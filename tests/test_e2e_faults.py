"""End to end: a degraded chaos campaign and ``loupe cache verify``.

Each command runs in a fresh interpreter through the real CLI.

* A seeded chaos wrapper around appsim (hangs plus injected errors),
  analyzed under ``--on-fault degrade``, exits 0. Its event stream
  carries ``probe_retry`` and ``probe_faulted``, and a non-empty
  ``faults_summary`` whose kinds come from the fault taxonomy and
  whose total is ``engine_stats.faulted``.
* ``loupe cache verify`` reports ``0 mismatched`` on a clean run
  cache, then exits 1 with ``MISMATCH`` once a record the backend
  does not reproduce is planted in it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cachestore import JsonlRunCache

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"

#: Registers ``chaos:appsim`` (futex hangs, getpid errors) in the
#: child interpreter, then runs the CLI on the remaining arguments.
_CHAOS_CLI = """
import sys

from repro.api.registry import register_chaos
from repro.cli import main
from repro.core.faults import ChaosSpec

register_chaos("appsim", ChaosSpec(
    seed=7,
    hang_features=frozenset({"futex"}),
    hang_s=0.2,
    error_features=frozenset({"getpid"}),
))
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


def test_degraded_chaos_campaign_quarantines_faults(tmp_path):
    out = _python(
        tmp_path, "-c", _CHAOS_CLI,
        "analyze", "--app", "redis", "--workload", "health",
        "--backend", "chaos:appsim", "--replicas", "2",
        "--probe-timeout", "0.05", "--retries", "1",
        "--retry-backoff", "0.001", "--on-fault", "degrade",
        "--fault-seed", "3", "--events", "jsonl",
    )
    events = [json.loads(line) for line in out.splitlines()
              if line.startswith("{")]
    kinds = [event["event"] for event in events]
    assert kinds[-1] == "analysis_finished", kinds[-10:]
    assert "probe_retry" in kinds and "probe_faulted" in kinds
    [summary] = [e for e in events if e["event"] == "faults_summary"]
    assert summary["total"] > 0 and summary["faults"], summary
    assert set(summary["kinds"]) <= {
        "timeout", "worker-crash", "backend-error", "torn-result",
    }, summary["kinds"]
    [stats] = [e for e in events if e["event"] == "engine_stats"]
    assert stats["faulted"] == summary["total"], (stats, summary)


def test_cache_verify_clean_then_planted_mismatch(tmp_path):
    _python(tmp_path, "-m", "repro.cli", "analyze", "--app", "weborf",
            "--workload", "health", "--run-cache", "runs.jsonl")
    clean = _python(tmp_path, "-m", "repro.cli", "cache", "verify",
                    "runs.jsonl")
    assert "0 mismatched" in clean

    store = JsonlRunCache(tmp_path / "runs.jsonl")
    key, stored, policy_doc = sorted(store.records())[0]
    store.put(key, dataclasses.replace(
        stored, success=not stored.success,
        failure_reason="planted corruption",
    ), policy=policy_doc)
    store.close()

    corrupt = _python(tmp_path, "-m", "repro.cli", "cache", "verify",
                      "runs.jsonl", code=1)
    assert "MISMATCH" in corrupt
