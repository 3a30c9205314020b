"""End to end: ``loupe compare`` across two registered backends.

The command runs in a fresh interpreter through the real CLI. An
appsim variant registered in that interpreter as ``appsim-b`` needs no
ptrace privileges. Fanning weborf across ``appsim,appsim-b`` streams
one ``target_started`` and one ``target_finished`` event per target,
and the streamed :class:`~repro.report.CrossValidationReport`
round-trips through its dict form, equals the ``--report`` file, and
finds zero divergences between the two identical backends.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.report import CrossValidationReport

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"

#: Registers ``appsim-b`` in the child interpreter, then runs the CLI
#: on the remaining arguments.
_TWO_BACKENDS_CLI = """
import sys

import repro.appsim as appsim
from repro.api.registry import register_backend
from repro.cli import main

register_backend("appsim-b", appsim._appsim_backend_factory)
sys.exit(main(sys.argv[1:]))
"""


def test_two_backend_compare_round_trips_with_no_divergence(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [
            sys.executable, "-c", _TWO_BACKENDS_CLI,
            "compare", "--app", "weborf", "--workload", "health",
            "--backends", "appsim,appsim-b", "--events", "jsonl",
            "--report", "compare-report.json",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    events = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    kinds = [event["event"] for event in events]
    assert kinds.count("target_started") == 2, kinds
    assert kinds.count("target_finished") == 2, kinds
    [event] = [e for e in events if e["event"] == "cross_validation_report"]
    streamed = CrossValidationReport.from_dict(event["report"])
    assert streamed.to_dict() == event["report"]
    saved = CrossValidationReport.from_dict(
        json.loads((tmp_path / "compare-report.json").read_text())
    )
    assert saved == streamed
    assert saved.targets == ("appsim", "appsim-b")
    assert saved.agrees and saved.divergences == ()
