"""End to end: ``loupe analyze`` and ``loupe cache`` through the real CLI.

Each command runs in a fresh interpreter, as a user would run it, so
the run-cache checks cross real process boundaries.

* ``--events jsonl`` streams one JSON event per line, from
  ``analysis_started`` to ``analysis_finished``.
* ``--backend bogus`` exits 2 and lists the registered backends.
* A JSONL run cache warms a second campaign; ``loupe cache stats``,
  ``compact`` and ``migrate`` work on it; the migrated SQLite store
  answers the same number of runs from the persistent cache, then
  every run (``0 executed``); ``gc --max-entries`` evicts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"
WEBORF = ("analyze", "--app", "weborf", "--workload", "health")


def _loupe(cwd: Path, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code, done.stdout + done.stderr
    return done


def _persistent_hits(out: str) -> str:
    match = re.search(r"[0-9]+ from the persistent cache", out)
    assert match, out
    return match.group(0)


def test_events_jsonl_stream_is_bracketed(tmp_path):
    out = _loupe(tmp_path, *WEBORF, "--events", "jsonl").stdout
    events = [json.loads(line) for line in out.splitlines()
              if line.startswith("{")]
    assert events and all("event" in event for event in events)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "analysis_started", kinds
    assert kinds[-1] == "analysis_finished", kinds


def test_unknown_backend_exits_2_listing_registry(tmp_path):
    err = _loupe(
        tmp_path, "analyze", "--app", "weborf", "--backend", "bogus", code=2,
    ).stderr
    assert "unknown backend 'bogus'; available:" in err
    assert "appsim" in err


def test_run_cache_ops_round_trip(tmp_path):
    _loupe(tmp_path, *WEBORF, "--run-cache", "runs.jsonl")
    warm_jsonl = _persistent_hits(
        _loupe(tmp_path, *WEBORF, "--run-cache", "runs.jsonl").stdout
    )

    stats = _loupe(tmp_path, "cache", "stats", "runs.jsonl").stdout
    assert "backend: jsonl" in stats
    assert "compacted" in _loupe(
        tmp_path, "cache", "compact", "runs.jsonl"
    ).stdout
    assert "migrated" in _loupe(
        tmp_path, "cache", "migrate", "runs.jsonl", "runs.sqlite"
    ).stdout

    warm_sqlite = _persistent_hits(
        _loupe(tmp_path, *WEBORF, "--run-cache", "runs.sqlite").stdout
    )
    assert warm_sqlite == warm_jsonl
    assert "0 executed" in _loupe(
        tmp_path, *WEBORF, "--run-cache", "runs.sqlite"
    ).stdout

    stats = _loupe(tmp_path, "cache", "stats", "runs.sqlite").stdout
    assert "backend: sqlite" in stats
    assert "evicted" in _loupe(
        tmp_path, "cache", "gc", "runs.sqlite", "--max-entries", "10"
    ).stdout
    assert "compacted" in _loupe(
        tmp_path, "cache", "compact", "runs.sqlite"
    ).stdout
