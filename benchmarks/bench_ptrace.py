"""Real-ptrace perf smoke: the tracer's ``sigtimedwait`` wait against its
watchdog wait.

Every tracee is started by the same spawn (``repro.ptracer.spawn``). A
tracer that is its process's only thread bounds each run with
``sigtimedwait``; a tracer sharing its process with another thread waits
in a blocking ``waitpid`` that the watchdog thread ends at the deadline.
This bench runs the same serial campaign over four coreutils commands
on each wait, each campaign in a fresh interpreter pinned to one CPU
(as perfbench's ``ptrace`` workload is), and an idle thread forces the
watchdog wait. The waits alternate, five campaigns each, and the
medians are compared.

It asserts that both waits reach identical analyses (required,
avoidable, stubbable and fakeable sets, and ``final_run_ok``) and that
the ``sigtimedwait`` wait is no more than ``MARGIN`` slower. That wait
makes two more calls per stop than a blocking ``waitpid``; its median
campaign has read 7-18% slower, and single campaigns on one CPU spread
by ±10%, so the check is there to catch a wait that oversleeps (a lost
``SIGCHLD`` costs a whole deadline), not to rank the two. It writes the
numbers to ``BENCH_ptrace.json`` for CI to archive. Unlike the synthetic
``_GilBoundBackend`` rows of ``bench_parallel_engine.py``, every run here
is a real traced process. Run it from the repository root:

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

#: How much slower than the watchdog wait the ``sigtimedwait`` one may be.
MARGIN = 1.5

#: One serial campaign; ``sys.argv[1]`` names the wait, and
#: ``sys.argv[2]`` is the JSON list of commands.
_CAMPAIGN = """
import json, os, sys, threading, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
if sys.argv[1] == "watchdog":
    threading.Thread(target=threading.Event().wait, daemon=True).start()
from repro import LoupeSession
from repro.api.session import AnalysisRequest
found, runs = {}, 0
started = time.perf_counter()
with LoupeSession() as session:
    for argv in json.loads(sys.argv[2]):
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
    "threads": len(os.listdir("/proc/self/task")),
}))
"""


def _campaign(path: str, commands: list) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _CAMPAIGN, path, json.dumps(commands)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    # The tracees share the interpreter's stdout; the JSON line is last.
    return json.loads(completed.stdout.splitlines()[-1])


def test_both_waits_agree_and_neither_oversleeps(tmp_path):
    (tmp_path / "input.txt").write_text("one line of fixed input\n")
    labels = ["/bin/true", "/bin/echo loupe", "/bin/ls DIR", "/bin/date -u"]
    commands = [
        [str(tmp_path) if arg == "DIR" else arg for arg in label.split()]
        for label in labels
    ]
    paths = ["signalled", "watchdog"]
    campaigns: dict = {path: [] for path in paths}
    for round_index in range(ROUNDS):
        for path in paths if round_index % 2 == 0 else paths[::-1]:
            campaigns[path].append(_campaign(path, commands))

    median = {
        path: statistics.median(c["campaign_s"] for c in campaigns[path])
        for path in paths
    }
    results = {
        "rounds": ROUNDS,
        "commands": labels,
        "runs_per_campaign": campaigns["signalled"][0]["runs"],
        **{f"{path}_campaign_s": round(median[path], 4) for path in paths},
        **{
            f"{path}_all_s": [round(c["campaign_s"], 4) for c in campaigns[path]]
            for path in paths
        },
        "signalled_speedup": round(median["watchdog"] / median["signalled"], 3),
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print("\n=== Real ptrace: serial campaign, median of "
          f"{ROUNDS}, one CPU ===")
    for path in paths:
        print(f"{path:>9}: {median[path]:.3f} s "
              f"({results['runs_per_campaign']} runs)")
    print(f"bench results written to {RESULTS_PATH}")

    # Only the signalled campaign stays at one thread: no watchdog.
    assert all(c["threads"] == 1 for c in campaigns["signalled"])
    assert all(c["threads"] > 1 for c in campaigns["watchdog"])
    reference = campaigns["signalled"][0]["found"]
    assert all(entry["final_run_ok"] for entry in reference.values())
    for path in paths:
        for campaign in campaigns[path]:
            assert campaign["found"] == reference, path
    assert median["signalled"] <= median["watchdog"] * MARGIN
