"""End to end: a campaign server SIGKILLed mid-job resumes its jobs.

Drives the real CLI in subprocesses, the way an operator would:
``loupe serve`` (two workers, a slowed appsim backend so the kill
lands mid-campaign), two ``loupe submit``s of the same campaign — one
spec-less, one naming a ``--run-cache`` — then ``kill -9`` once the
run cache holds a few completed probes, and a second ``loupe serve``
on the same data directory.

The restarted server must re-own both orphans as attempt 2 with the
crash in their history and land reports byte-identical to an
uninterrupted direct :class:`~repro.api.session.LoupeSession` run.
The job with a run cache resumes warm from it; the spec-less job
resumes cold, and the server writes no store of its own for it.
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
COLD_JOB = "job-000001"
WARM_JOB = "job-000002"
CAMPAIGN = (
    "--app", "weborf", "--workload", "health", "--backend", "slowsim",
    "--replicas", "1",
)

#: One launcher, started before and after the SIGKILL. The slowed
#: appsim wrapper stretches the campaign so the kill reliably lands
#: mid-job with a half-built run cache.
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
    sys.exit(main(["serve", "--data-dir", "svc", "--workers", "2"]))
'''

#: The uninterrupted reference: the job's own spec through a direct
#: session with no run cache, and with the slowed backend's delay
#: dropped (neither changes a result, only how long the run takes).
DIRECT_RUN = '''\
import json
import sys
from pathlib import Path

import serve_slow
from repro.api.session import LoupeSession
from repro.server import JobSpec, encode_report

serve_slow.DELAY_S = 0.0
document = json.loads(Path(sys.argv[1]).read_text())
spec = JobSpec.from_dict({**document, "run_cache": None})
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


def _serve(tmp_path: Path, processes: list, logs: list) -> subprocess.Popen:
    """Start the slowed server on ``tmp_path/svc``."""
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


def _stop(processes: list, logs: list) -> None:
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


@pytest.fixture(scope="module")
def resumed(tmp_path_factory):
    """Run both jobs through one SIGKILL and restart; yield the data
    directory once every job has finished."""
    tmp_path = tmp_path_factory.mktemp("restart")
    (tmp_path / "serve_slow.py").write_text(LAUNCHER)
    (tmp_path / "direct_run.py").write_text(DIRECT_RUN)
    cache = tmp_path / "runs.jsonl"
    jobs = tmp_path / "svc" / "jobs"
    processes: "list[subprocess.Popen]" = []
    logs: list = []
    try:
        first = _serve(tmp_path, processes, logs)
        submit = ("-m", "repro.cli", "submit", "--data-dir", "svc")
        _run(tmp_path, *submit, *CAMPAIGN)
        _run(tmp_path, *submit, *CAMPAIGN, "--run-cache", str(cache))

        # kill -9 once both jobs are mid-run and the run cache holds a
        # few probes: no SIGTERM grace, no flushing. The restart sees
        # only what reached the files.
        _wait_for(
            lambda: _complete_records(cache) >= 3
            and _complete_records(jobs / COLD_JOB / "events.jsonl") >= 3,
            "the jobs never got under way",
        )
        os.kill(first.pid, signal.SIGKILL)
        assert first.wait(timeout=10) == -signal.SIGKILL
        for job in (COLD_JOB, WARM_JOB):
            meta = json.loads((jobs / job / "meta.json").read_text())
            assert meta["status"] == "running", (job, meta["status"])

        _serve(tmp_path, processes, logs)
        for job in (COLD_JOB, WARM_JOB):
            _run(tmp_path, "-m", "repro.cli", "tail", "--data-dir", "svc", job)
        yield tmp_path
    finally:
        _stop(processes, logs)


def _assert_resumed_byte_identical(tmp_path: Path, job: str) -> dict:
    job_dir = tmp_path / "svc" / "jobs" / job
    meta = json.loads((job_dir / "meta.json").read_text())
    assert meta["status"] == "done", meta["status"]
    assert meta["attempt"] == 2, meta["attempt"]
    assert meta["history"][-1]["outcome"] == "server-restart", meta["history"]
    markers = [
        json.loads(line)["event"]
        for line in (job_dir / "events.jsonl").read_text().splitlines()
    ]
    assert "job_requeued" in markers, markers

    direct = _run(tmp_path, "direct_run.py", str(job_dir / "spec.json"))
    assert (job_dir / "report.json").read_bytes() == direct.encode(), (
        "resumed report diverged from the uninterrupted direct run"
    )
    return meta


def test_sigkilled_job_resumes_warm_and_byte_identical(resumed):
    meta = _assert_resumed_byte_identical(resumed, WARM_JOB)
    assert meta["engine_stats"]["persistent_hits"] > 0, (
        "resume never touched the attempt-1 run cache"
    )


def test_sigkilled_specless_job_resumes_cold_and_byte_identical(resumed):
    meta = _assert_resumed_byte_identical(resumed, COLD_JOB)
    assert meta["engine_stats"]["persistent_hits"] == 0
    job_dir = resumed / "svc" / "jobs" / COLD_JOB
    assert not list(job_dir.glob("runcache.*"))
