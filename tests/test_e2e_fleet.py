"""End to end: a worker fleet sharing the campaign server's run cache.

Drives the real CLI in subprocesses, the way an operator would:
``loupe serve`` with a served SQLite run cache, two ``loupe worker``
processes announcing to it, then remote campaigns against the fleet.

* A cold campaign survives one worker being SIGKILLed mid-flight: its
  lost chunks re-enqueue on the survivor, and the report is
  byte-identical to a serial run.
* A warm campaign executes nothing; every run is a persistent hit.
* ``GET /stats`` shows the cache traffic and the fleet gauges.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"
CAMPAIGN = ("analyze", "--app", "redis", "--workload", "bench")


def _loupe_argv(*args: str) -> "list[str]":
    return [sys.executable, "-m", "repro.cli", *args]


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def _loupe(cwd: Path, *args: str) -> str:
    done = subprocess.run(
        _loupe_argv(*args), cwd=cwd, env=_env(), capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _address(text: str) -> str:
    if not text.strip():
        raise ValueError("not written yet")
    return text.strip()


def _read_when_ready(path: Path, parse=_address, timeout: float = 30.0):
    """Poll until *path* holds a complete document, then parse it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return parse(path.read_text())
        except (OSError, ValueError):
            if time.monotonic() > deadline:
                raise AssertionError(f"{path.name} never appeared") from None
            time.sleep(0.1)


@pytest.fixture
def fleet(tmp_path):
    """A served run cache plus two announcing workers.

    Yields ``(server_url, worker_processes, worker_addresses)``.
    """
    processes: "list[subprocess.Popen]" = []
    logs = []

    def spawn(log: str, *args: str) -> subprocess.Popen:
        logs.append(open(tmp_path / log, "w"))
        process = subprocess.Popen(
            _loupe_argv(*args), cwd=tmp_path, env=_env(),
            stdout=logs[-1], stderr=subprocess.STDOUT,
        )
        processes.append(process)
        return process

    try:
        spawn(
            "serve.log", "serve", "--data-dir", "svc", "--workers", "1",
            "--run-cache", "fleet.sqlite",
        )
        server = _read_when_ready(tmp_path / "svc" / "server.json", json.loads)
        url = server["url"]
        workers = [
            spawn(
                f"worker{n}.log", "worker", "--port-file", f"w{n}.addr",
                "--announce", url,
            )
            for n in (1, 2)
        ]
        addresses = [_read_when_ready(tmp_path / f"w{n}.addr") for n in (1, 2)]
        yield url, workers, addresses
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for log in logs:
            log.close()


def test_fleet_survives_sigkill_then_answers_warm(fleet, tmp_path):
    url, workers, (first, second) = fleet
    _loupe(tmp_path, *CAMPAIGN, "--output", "serial.json")
    serial = (tmp_path / "serial.json").read_bytes()

    # Cold: SIGKILL worker 1 as soon as the baseline has run on the
    # fleet, so the probe batch is dispatched over a dying link.
    # --retries covers the worker-crash taxonomy.
    cold = subprocess.Popen(
        _loupe_argv(
            *CAMPAIGN, "--executor", "remote",
            "--workers", f"{first},{second}", "--run-cache", url,
            "--retries", "1", "--events", "jsonl", "--output", "remote.json",
        ),
        cwd=tmp_path, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    seen = []
    for line in cold.stdout:
        seen.append(line)
        if '"features_enumerated"' in line:
            os.kill(workers[0].pid, signal.SIGKILL)
            break
    seen.append(cold.stdout.read())
    assert cold.wait(timeout=300) == 0, "".join(seen)
    assert workers[0].wait(timeout=10) == -signal.SIGKILL
    assert (tmp_path / "remote.json").read_bytes() == serial

    # Warm: the survivor alone, every run answered by the shared cache.
    warm = _loupe(
        tmp_path, *CAMPAIGN, "--executor", "remote", "--workers", second,
        "--run-cache", url, "--output", "warm.json",
    )
    assert re.search(r"\b0 executed", warm), warm
    assert "from the persistent cache" in warm, warm
    assert (tmp_path / "warm.json").read_bytes() == serial

    with urllib.request.urlopen(f"{url}/stats", timeout=10) as response:
        stats = json.load(response)
    cache, gauges = stats["cache"], stats["fleet"]
    assert cache["hits"] > 0, cache
    assert cache["misses"] > 0, cache
    assert cache["claims_granted"] > 0, cache
    # The SIGKILLed worker ages out of the gauges by TTL; the survivor
    # must still be announcing.
    assert gauges["workers"] >= 1, gauges
