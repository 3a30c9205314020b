"""Run ``loupe serve`` with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_traced.py SPANS.jsonl serve [ARGS...]

The traced service iteration starts the server through this launcher
instead of ``python3 -m repro.cli``, so the server-side layers (session,
analyzer, engine, appsim, run-cache store) record spans like they do
in-process. The spans are written to SPANS.jsonl when the server exits.
"""

from __future__ import annotations

import sys

import tracing


def main(spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
