"""End to end: the campaign server driven through the real CLI.

``loupe serve --port 0`` runs in a subprocess with one worker, a
seeded chaos backend (``chaos:appsim``, which exercises ``--on-fault
degrade`` through the service) and a slowed appsim wrapper
(``slowsim``, which keeps the worker busy long enough to observe the
queue). ``loupe submit``/``tail``/``cancel`` talk to it through the
``server.json`` discovery file.

* A degraded chaos job tails to ``analysis_finished``, and every
  event carries the ``schema_version`` envelope.
* A clean job's report is byte-identical to a direct
  :class:`~repro.api.session.LoupeSession` run of its spec; the chaos
  job's matches modulo ``faults[].durations_s``, the one wall-clock
  field a fault record carries.
* Cancelling a queued job makes ``loupe tail`` exit 3.
* SIGTERM shuts the server down cleanly and removes ``server.json``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.e2e

SRC = Path(__file__).resolve().parents[1] / "src"
CLEAN = ("--app", "weborf", "--workload", "health", "--replicas", "1")

#: The server, with the chaos and slowed backends registered. The
#: direct-run script imports it for the same registrations.
LAUNCHER = '''\
import dataclasses
import sys
import time

from repro.api.registry import (
    register_backend, register_chaos, resolve_backend,
)
from repro.cli import main
from repro.core.faults import ChaosSpec

register_chaos("appsim", ChaosSpec(
    seed=7, error_features=frozenset({"getpid"}),
))


class SlowBackend:
    def __init__(self, inner, delay_s=0.1):
        self.inner = inner
        self.delay_s = delay_s
        self.name = getattr(inner, "name", "slow")

    def capabilities(self):
        from repro.core.runner import capabilities_of
        return capabilities_of(self.inner)

    def run(self, workload, policy, *, replica=0):
        time.sleep(self.delay_s)
        return self.inner.run(workload, policy, replica=replica)


def slow_factory(request):
    target = resolve_backend("appsim")(request)
    return dataclasses.replace(target, backend=SlowBackend(target.backend))


register_backend("slowsim", slow_factory)

if __name__ == "__main__":
    sys.exit(main([
        "serve", "--data-dir", "svc", "--port", "0", "--workers", "1",
    ]))
'''

#: The job's own spec through a direct session.
DIRECT_RUN = '''\
import json
import sys
from pathlib import Path

import serve_chaos  # noqa: F401 - registers chaos:appsim
from repro.api.session import LoupeSession
from repro.server import JobSpec, encode_report

spec = JobSpec.from_dict(json.loads(Path(sys.argv[1]).read_text()))
with LoupeSession(config=spec.analyzer_config()) as session:
    sys.stdout.write(encode_report(session.analyze(spec.request())))
'''


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def _python(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_env(), capture_output=True,
        text=True, timeout=300,
    )


def _loupe(cwd: Path, *args: str, code: int = 0) -> str:
    done = _python(cwd, "-m", "repro.cli", *args, "--data-dir", "svc")
    assert done.returncode == code, done.stdout + done.stderr
    return done.stdout


def _submit(cwd: Path, *args: str) -> str:
    return json.loads(_loupe(cwd, "submit", "--json", *args))["id"]


def _direct_report(cwd: Path, job: str) -> str:
    done = _python(cwd, "direct_run.py", f"svc/jobs/{job}/spec.json")
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running server; yields ``(directory, process)``."""
    tmp_path = tmp_path_factory.mktemp("server")
    (tmp_path / "serve_chaos.py").write_text(LAUNCHER)
    (tmp_path / "direct_run.py").write_text(DIRECT_RUN)
    with open(tmp_path / "serve.log", "w") as log:
        process = subprocess.Popen(
            [sys.executable, "serve_chaos.py"], cwd=tmp_path, env=_env(),
            stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not (tmp_path / "svc" / "server.json").is_file():
                assert process.poll() is None, "server exited at start"
                assert time.monotonic() < deadline, "no server.json"
                time.sleep(0.1)
            yield tmp_path, process
        finally:
            if process.poll() is None:
                process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


@pytest.fixture(scope="module")
def chaos_job(served):
    """A degraded chaos campaign, tailed to its end."""
    directory, _ = served
    job = _submit(
        directory, "--app", "redis", "--workload", "health",
        "--backend", "chaos:appsim", "--replicas", "2", "--retries", "1",
        "--retry-backoff", "0.001", "--on-fault", "degrade",
        "--fault-seed", "3",
    )
    return job, _loupe(directory, "tail", job)


def test_degraded_chaos_job_tails_to_analysis_finished(chaos_job):
    _, stream = chaos_job
    events = [json.loads(line) for line in stream.splitlines()]
    assert all(event["schema_version"] == 1 for event in events)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "analysis_started", kinds[:3]
    assert kinds[-1] == "analysis_finished", kinds[-3:]
    assert "probe_faulted" in kinds and "faults_summary" in kinds


def test_clean_report_is_byte_identical_to_a_direct_run(served):
    directory, _ = served
    job = _submit(directory, *CLEAN)
    _loupe(directory, "tail", job)
    served_report = (directory / "svc" / "jobs" / job / "report.json")
    assert served_report.read_text() == _direct_report(directory, job)


def test_chaos_report_matches_modulo_fault_durations(served, chaos_job):
    directory, _ = served
    job, _ = chaos_job

    def stable(encoded):
        report = json.loads(encoded)
        assert report.get("faults"), "the chaos job recorded no faults"
        for fault in report["faults"]:
            fault["durations_s"] = []
        return report

    served_report = (directory / "svc" / "jobs" / job / "report.json")
    assert stable(served_report.read_text()) == stable(
        _direct_report(directory, job)
    )


def test_cancelling_a_queued_job_makes_tail_exit_3(served):
    directory, _ = served
    # One worker: the slow blocker occupies it, so the next submission
    # stays queued long enough to cancel.
    blocker = _submit(directory, *CLEAN, "--backend", "slowsim")
    queued = _submit(directory, *CLEAN)
    assert f"{queued} cancelled" in _loupe(directory, "cancel", queued)
    _loupe(directory, "tail", queued, code=3)
    _loupe(directory, "cancel", blocker)
    _loupe(directory, "tail", blocker, code=3)


def test_sigterm_removes_the_discovery_file(served):
    directory, process = served
    discovery = directory / "svc" / "server.json"
    assert json.loads(discovery.read_text())["pid"] == process.pid
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=30)
    assert not discovery.exists()
