"""Build the reference outputs the benchmark checks its workloads against.

    PYTHONPATH=src python3 perfbench/reference.py OUT.json SCRATCH_DIR

Analyzes every corpus app serially in-process (default
``AnalyzerConfig``, no store, no server) and records, per app, the
SHA-256 of its canonical report (``encode_report``, the bytes the
campaign server serves) and the runs a serial analysis executes. Adds
the digest of the corpus support plan for unikraft and, where ptrace
works, the runs a serial campaign executes per traced command.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import workloads


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(out: str, scratch: str) -> int:
    from repro import AnalyzerConfig, LoupeSession
    from repro.api.session import AnalysisRequest
    from repro.appsim.corpus import cloud_apps, corpus
    from repro.plans import render_plan
    from repro.ptracer import ptrace_works
    from repro.server.jobstore import encode_report

    reference: dict = {"apps": {}, "cloud": [app.name for app in cloud_apps()]}
    with LoupeSession() as session:
        for app in corpus():
            result = session.analyze(app)
            reference["apps"][app.name] = {
                "digest": digest(encode_report(result)),
                "runs_executed": session.last_engine_stats.runs_executed,
            }
        plan = session.plan(os_name="unikraft", apps="corpus")
        reference["plan"] = digest(render_plan(plan))

    reference["ptrace_works"] = ptrace_works()
    reference["ptrace"] = {}
    if reference["ptrace_works"]:
        directory = Path(scratch) / "ptrace-data"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "input.txt").write_text(workloads.PTRACE_INPUT)
        with LoupeSession(config=AnalyzerConfig(parallel=1)) as session:
            for label in sorted(workloads.PTRACE_COMMANDS):
                argv = workloads.ptrace_argv(label, str(directory))
                result = session.analyze(AnalysisRequest(
                    backend="ptrace", argv=argv, timeout_s=10.0
                ))
                if not result.final_run_ok:
                    print(f"reference: {label}: final run failed",
                          file=sys.stderr)
                    return 1
                reference["ptrace"][argv[0]] = (
                    session.last_engine_stats.runs_executed
                )

    partial = out + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, sort_keys=True)
    os.replace(partial, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
