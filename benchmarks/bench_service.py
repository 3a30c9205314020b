"""Campaign-service smoke — the closed-loop client path, end to end.

Runs perfbench's ``service`` workload in a subprocess for a short
budget: two closed-loop clients submit the 15 cloud apps to a ``loupe
serve --workers 2`` child through :class:`ServiceClient` (submit, wait,
fetch the report), and every report is checked against a serial
in-process reference. The tier-1 suite drives the server in-process;
this bench is the check that goes through a served ``loupe serve`` the
way a user's client does.

The test asserts that the run reads ``correct: true`` with 0 failed
operations, and writes perfbench's final JSON line (the end-to-end
metrics) to ``BENCH_service.json`` for CI to archive. Run it from the
repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q -s
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

#: The repository root: perfbench measures the ``src/`` under its
#: working directory.
ROOT = Path(__file__).resolve().parent.parent

#: Where the metrics land (CI uploads this file).
RESULTS_PATH = Path("BENCH_service.json")

COMMAND = [
    sys.executable, "perfbench/run.py", "--workload", "service",
    "--seed", "1", "--seconds", "5", "--trace", "0",
]


def test_service_workload_is_correct():
    completed = subprocess.run(
        COMMAND, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    print(completed.stdout)
    print(completed.stderr, file=sys.stderr)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    RESULTS_PATH.write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"bench results written to {RESULTS_PATH}")
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0, completed.stderr
