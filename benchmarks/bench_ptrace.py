"""Real-ptrace perf smoke: a serial campaign over four coreutils
commands on the seccomp-filtered tracer.

Every tracee is started by the tracer's spawn (``repro.ptracer.spawn``)
and every run waits in a blocking ``waitpid`` that the
``loupe-ptrace-watchdog`` thread ends at the deadline. This bench runs
``ROUNDS`` serial campaigns, each in a fresh interpreter pinned to one
CPU (as perfbench's ``ptrace`` workload is), and reports their median.

It asserts that every campaign reaches the same analysis (required,
avoidable, stubbable and fakeable sets, and ``final_run_ok``) and ends
at two threads, the main one and the watchdog. It writes the median and
every ``campaign_s`` to ``BENCH_ptrace.json`` for CI to archive. Unlike
the synthetic ``_GilBoundBackend`` rows of ``bench_parallel_engine.py``,
every run here is a real traced process. Run it from the repository
root:

    PYTHONPATH=src python -m pytest benchmarks/bench_ptrace.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ptracer.ctypes_bindings import ptrace_works

pytestmark = pytest.mark.skipif(
    not ptrace_works(), reason="ptrace unavailable in this environment"
)

#: Where the numbers land (CI uploads this file).
RESULTS_PATH = Path("BENCH_ptrace.json")

SRC = Path(__file__).resolve().parent.parent / "src"

ROUNDS = 5

#: One serial campaign; ``sys.argv[1]`` is the JSON list of commands.
_CAMPAIGN = """
import json, os, sys, threading, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
from repro import LoupeSession
from repro.api.session import AnalysisRequest
found, runs = {}, 0
started = time.perf_counter()
with LoupeSession() as session:
    for argv in json.loads(sys.argv[1]):
        report = session.analyze(AnalysisRequest(
            backend="ptrace", argv=tuple(argv), timeout_s=10.0,
        ))
        runs += session.last_engine_stats.runs_executed
        found[" ".join(argv)] = {
            "required": sorted(report.required_syscalls()),
            "avoidable": sorted(report.avoidable_syscalls()),
            "stubbable": sorted(report.stubbable_syscalls()),
            "fakeable": sorted(report.fakeable_syscalls()),
            "final_run_ok": report.final_run_ok,
        }
campaign_s = time.perf_counter() - started
print(json.dumps({
    "campaign_s": campaign_s, "runs": runs, "found": found,
    "threads": sorted(thread.name for thread in threading.enumerate()),
}))
"""


def _campaign(commands: list) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _CAMPAIGN, json.dumps(commands)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    # The tracees share the interpreter's stdout; the JSON line is last.
    return json.loads(completed.stdout.splitlines()[-1])


def test_serial_campaigns_agree(tmp_path):
    (tmp_path / "input.txt").write_text("one line of fixed input\n")
    labels = ["/bin/true", "/bin/echo loupe", "/bin/ls DIR", "/bin/date -u"]
    commands = [
        [str(tmp_path) if arg == "DIR" else arg for arg in label.split()]
        for label in labels
    ]
    campaigns = [_campaign(commands) for _ in range(ROUNDS)]

    median = statistics.median(c["campaign_s"] for c in campaigns)
    results = {
        "rounds": ROUNDS,
        "commands": labels,
        "runs_per_campaign": campaigns[0]["runs"],
        "campaign_s": round(median, 4),
        "all_s": [round(c["campaign_s"], 4) for c in campaigns],
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print("\n=== Real ptrace: serial campaign, median of "
          f"{ROUNDS}, one CPU ===")
    print(f"{median:.3f} s ({results['runs_per_campaign']} runs)")
    print(f"bench results written to {RESULTS_PATH}")

    assert all(
        c["threads"] == ["MainThread", "loupe-ptrace-watchdog"]
        for c in campaigns
    )
    reference = campaigns[0]["found"]
    assert all(entry["final_run_ok"] for entry in reference.values())
    assert all(c["found"] == reference for c in campaigns)
