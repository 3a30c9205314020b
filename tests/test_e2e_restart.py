"""End to end: a campaign server SIGKILLed mid-job resumes the job.

Drives the real CLI in subprocesses, the way an operator would:
``loupe serve`` (one worker, a slowed appsim backend so the kill lands
mid-campaign), ``loupe submit``, then ``kill -9`` once the job's
checkpoint holds a few completed probes, and a second ``loupe serve``
on the same data directory.

The restarted server must re-own the orphan as attempt 2 with the
crash in its history, answer part of the rerun from the attempt-1
checkpoint, and land a report byte-identical to an uninterrupted
direct :class:`~repro.api.session.LoupeSession` run.
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
JOB = "job-000001"

#: One launcher, started before and after the SIGKILL. The slowed
#: appsim wrapper stretches the campaign so the kill reliably lands
#: mid-job with a half-built checkpoint.
LAUNCHER = '''\
import dataclasses
import sys
import time

from repro.api.registry import register_backend, resolve_backend
from repro.cli import main

DELAY_S = 0.1


class SlowBackend:
    def __init__(self, inner):
        self.inner = inner
        self.name = getattr(inner, "name", "slow")
        self.deterministic = getattr(inner, "deterministic", False)

    def capabilities(self):
        from repro.core.runner import capabilities_of
        return capabilities_of(self.inner)

    def run(self, workload, policy, *, replica=0):
        time.sleep(DELAY_S)
        return self.inner.run(workload, policy, replica=replica)


def slow_factory(request):
    target = resolve_backend("appsim")(request)
    return dataclasses.replace(target, backend=SlowBackend(target.backend))


register_backend("slowsim", slow_factory)

if __name__ == "__main__":
    sys.exit(main(["serve", "--data-dir", "svc", "--workers", "1"]))
'''

#: The uninterrupted reference: the job's own spec through a direct
#: session, with the slowed backend's delay dropped (it changes no
#: result, only how long the run takes).
DIRECT_RUN = '''\
import json
import sys
from pathlib import Path

import serve_slow
from repro.api.session import LoupeSession
from repro.server import JobSpec, encode_report

serve_slow.DELAY_S = 0.0
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


def _run(cwd: Path, *argv: str) -> str:
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_env(), capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _wait_for(predicate, what: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise AssertionError(f"{what} within {timeout:.0f}s")


def _complete_records(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


@pytest.fixture
def serve(tmp_path):
    """Start the slowed server on ``tmp_path/svc``; stop it at teardown."""
    (tmp_path / "serve_slow.py").write_text(LAUNCHER)
    processes: "list[subprocess.Popen]" = []
    logs = []

    def start() -> subprocess.Popen:
        (tmp_path / "svc" / "server.json").unlink(missing_ok=True)
        logs.append(open(tmp_path / f"serve{len(logs) + 1}.log", "w"))
        process = subprocess.Popen(
            [sys.executable, "serve_slow.py"], cwd=tmp_path, env=_env(),
            stdout=logs[-1], stderr=subprocess.STDOUT,
        )
        processes.append(process)
        _wait_for(
            lambda: (tmp_path / "svc" / "server.json").is_file(),
            "server.json never appeared", timeout=30.0,
        )
        return process

    try:
        yield start
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


def test_sigkilled_job_resumes_warm_and_byte_identical(serve, tmp_path):
    job_dir = tmp_path / "svc" / "jobs" / JOB
    first = serve()
    _run(
        tmp_path, "-m", "repro.cli", "submit", "--data-dir", "svc",
        "--app", "weborf", "--workload", "health", "--backend", "slowsim",
        "--replicas", "1",
    )

    # kill -9 once attempt 1 has checkpointed a few probes: no SIGTERM
    # grace, no flushing. The restart sees only what reached the file.
    _wait_for(
        lambda: _complete_records(job_dir / "runcache.jsonl") >= 3,
        "attempt 1 never built a checkpoint",
    )
    os.kill(first.pid, signal.SIGKILL)
    assert first.wait(timeout=10) == -signal.SIGKILL
    meta = json.loads((job_dir / "meta.json").read_text())
    assert meta["status"] == "running", meta["status"]

    serve()
    _run(
        tmp_path, "-m", "repro.cli", "tail", "--data-dir", "svc", JOB,
    )

    meta = json.loads((job_dir / "meta.json").read_text())
    assert meta["status"] == "done", meta["status"]
    assert meta["attempt"] == 2, meta["attempt"]
    assert meta["history"][-1]["outcome"] == "server-restart", meta["history"]
    assert meta["engine_stats"]["persistent_hits"] > 0, (
        "resume never touched the attempt-1 checkpoint"
    )
    markers = [
        json.loads(line)["event"]
        for line in (job_dir / "events.jsonl").read_text().splitlines()
    ]
    assert "job_requeued" in markers, markers

    (tmp_path / "direct_run.py").write_text(DIRECT_RUN)
    direct = _run(tmp_path, "direct_run.py", str(job_dir / "spec.json"))
    assert (job_dir / "report.json").read_bytes() == direct.encode(), (
        "resumed report diverged from the uninterrupted direct run"
    )
