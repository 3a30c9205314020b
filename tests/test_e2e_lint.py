"""End to end: ``loupe lint`` and the static soundness gate.

Each command runs in a fresh interpreter through the real CLI.

* The shipped 116-app corpus lints clean (exit 0).
* A fixture app whose binary footprint names ``frobnicate``, a
  syscall the x86-64 table has never heard of, makes ``loupe lint``
  exit 1 with one ``unknown-syscall`` error in its JSON output.
* ``loupe compare --backends static,appsim`` finds only the expected
  ``static-overapproximation`` divergences and no soundness
  violation, the paper's Section 5.1 invariant.
* ``loupe lint --db`` audits a stored weborf campaign with no error.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.report import CrossValidationReport

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"

#: Registers ``badapp`` (weborf plus a ``frobnicate`` binary syscall)
#: in the child interpreter, then runs the CLI on the remaining
#: arguments.
_BADAPP_CLI = """
import dataclasses
import sys

from repro.appsim.corpus import HANDBUILT, build
from repro.cli import main


def badapp():
    app = build("weborf")
    extra = dict(app.program.static_extra)
    extra["binary"] = extra.get("binary", frozenset()) | {"frobnicate"}
    return dataclasses.replace(
        app, program=dataclasses.replace(app.program, static_extra=extra),
    )


HANDBUILT["badapp"] = badapp
sys.exit(main(sys.argv[1:]))
"""


def _python(cwd: Path, *args: str, code: int = 0) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code, done.stdout + done.stderr
    return done.stdout


def test_shipped_corpus_lints_clean(tmp_path):
    out = _python(tmp_path, "-m", "repro.cli", "lint")
    assert "116 app(s) checked, 0 error(s), 0 warning(s)" in out


def test_planted_unknown_syscall_exits_1(tmp_path):
    out = _python(
        tmp_path, "-c", _BADAPP_CLI,
        "lint", "--app", "badapp", "--format", "json", code=1,
    )
    payload = json.loads(out)
    assert payload["counts"]["error"] == 1, payload["counts"]
    [finding] = [
        f for f in payload["findings"] if f["rule"] == "unknown-syscall"
    ]
    assert finding["severity"] == "error", finding
    assert "frobnicate" in finding["message"], finding


def test_static_compare_has_no_soundness_violation(tmp_path):
    out = _python(
        tmp_path, "-m", "repro.cli", "compare", "--app", "weborf",
        "--workload", "health", "--backends", "static,appsim",
        "--events", "jsonl",
    )
    events = [
        json.loads(line) for line in out.splitlines()
        if line.startswith("{")
    ]
    [event] = [e for e in events if e["event"] == "cross_validation_report"]
    report = CrossValidationReport.from_dict(event["report"])
    assert report.to_dict() == event["report"]
    assert report.reference == "appsim"
    assert set(report.divergence_counts()) == {"static-overapproximation"}
    assert report.soundness_violations() == ()
    assert {o.target: o.static_analysis for o in report.observations} \
        == {"static": True, "appsim": False}


def test_db_audit_of_a_stored_campaign_is_clean(tmp_path):
    _python(
        tmp_path, "-m", "repro.cli", "analyze", "--app", "weborf",
        "--workload", "health", "--output", "loupedb.json",
    )
    out = _python(
        tmp_path, "-m", "repro.cli", "lint", "--app", "weborf",
        "--db", "loupedb.json",
    )
    assert re.search(r"(?<!\d)0 error\(s\)", out), out
