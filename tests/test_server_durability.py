"""Tests for the campaign server's durability substrate: job
ownership, crash resume, poison-job quarantine, hung and slow runs,
torn-metadata recovery, admission control, drain mode, and the
client's transient-retry behavior."""

import dataclasses
import json
import math
import os
import sys
import threading
import time

import pytest

from repro.api.registry import (
    register_backend,
    register_chaos,
    resolve_backend,
    unregister_backend,
)
from repro.core.faults import ChaosSpec
from repro.errors import ServiceUnavailableError
from repro.server import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    CampaignServer,
    JobRunner,
    JobSpec,
    JobStateError,
    JobStore,
    QueueFullError,
    ServerDrainingError,
    ServiceClient,
    ServiceError,
    TornMetaError,
)
from repro.cli import main

DEADLINE_S = 30.0

QUICK_SPEC = {"app": "weborf", "workload": "health", "replicas": 1}
SLOW_SPEC = {**QUICK_SPEC, "backend": "slowsim"}


def _wait_until(predicate, *, timeout=DEADLINE_S, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within deadline")


class _SlowBackend:
    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s
        self.name = getattr(inner, "name", "slow")

    def capabilities(self):
        from repro.core.runner import capabilities_of

        return capabilities_of(self.inner)

    def run(self, workload, policy, *, replica=0):
        time.sleep(self.delay_s)
        return self.inner.run(workload, policy, replica=replica)


@pytest.fixture
def slow_backend_name():
    def factory(request):
        target = resolve_backend("appsim")(request)
        return dataclasses.replace(
            target, backend=_SlowBackend(target.backend, 0.05)
        )

    register_backend("slowsim", factory, replace=True)
    yield "slowsim"
    unregister_backend("slowsim")


class _SlowBaselineBackend(_SlowBackend):
    """Sleeps through passthrough runs only: the baseline's."""

    def run(self, workload, policy, *, replica=0):
        if policy.altered_features():
            return self.inner.run(workload, policy, replica=replica)
        return super().run(workload, policy, replica=replica)


@pytest.fixture
def slow_baseline_name():
    def factory(request):
        target = resolve_backend("appsim")(request)
        return dataclasses.replace(
            target, backend=_SlowBaselineBackend(target.backend, 0.25)
        )

    register_backend("slowbaseline", factory, replace=True)
    yield "slowbaseline"
    unregister_backend("slowbaseline")


@pytest.fixture
def hang_backend_name():
    name = register_chaos(
        "appsim", ChaosSpec(hang_features={"getpid"}, hang_s=3.0),
        name="chaos:hang", replace=True,
    )
    yield name
    unregister_backend(name)


def _events(store, job_id):
    lines, _ = store.read_events(job_id)
    return [json.loads(line) for line in lines]


class TestLeases:
    def test_running_job_holds_a_lease(self, tmp_path, slow_backend_name):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            client = ServiceClient(server.url)
            meta = client.submit(SLOW_SPEC)
            running = _wait_until(lambda: (
                client.job(meta["id"])["status"] == RUNNING
                and client.job(meta["id"])
            ))
            assert running["lease_owner"]
            assert running["attempt"] == 1
            client.cancel(meta["id"])

    def test_stale_owner_cannot_commit_an_outcome(self, tmp_path):
        store = JobStore(tmp_path)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(meta.id, RUNNING, owner="w1")
        # A restart's recovery hands the job to a new attempt...
        store.transition(meta.id, QUEUED, bump_attempt=True)
        # ...so the old worker's terminal report must be refused, even
        # though queued → cancelled is a legal edge in general.
        with pytest.raises(JobStateError):
            store.transition(meta.id, DONE, owner="w1")
        with pytest.raises(JobStateError):
            store.transition(meta.id, CANCELLED, owner="w1")
        assert store.meta(meta.id).status == QUEUED
        assert store.meta(meta.id).attempt == 2


class TestHungAndSlowJobs:
    """Nothing on the server expires a job: a slow run is left to
    finish, and a hung one is bounded by the run's own timeout."""

    def _run_to_end(self, tmp_path, document):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            assert "loupe-reaper" not in {
                thread.name for thread in threading.enumerate()
            }
            client = ServiceClient(server.url)
            meta = client.submit(document)
            final = _wait_until(lambda: (
                client.job(meta["id"])["status"] in TERMINAL_STATES
                and client.job(meta["id"])
            ))
            report = json.loads(client.report_bytes(meta["id"]))
        assert final["status"] == DONE
        assert final["attempt"] == 1
        assert final["history"] == []
        return report

    def test_slow_baseline_runs_to_done_on_first_attempt(
        self, tmp_path, slow_baseline_name
    ):
        # Three baseline replicas of 0.25 s each: 0.75 s with no wave
        # boundary between them.
        self._run_to_end(tmp_path, {
            **QUICK_SPEC, "backend": slow_baseline_name, "replicas": 3,
        })

    def test_hung_run_is_bounded_by_the_probe_timeout(
        self, tmp_path, hang_backend_name
    ):
        report = self._run_to_end(tmp_path, {
            **QUICK_SPEC, "backend": hang_backend_name,
            "probe_timeout": 0.2, "on_fault": "degrade",
        })
        assert sorted(
            (fault["probe"], fault["kind"]) for fault in report["faults"]
        ) == [("getpid=fake", "timeout"), ("getpid=stub", "timeout")]

    def test_timed_out_run_leaves_no_thread_behind(
        self, tmp_path, hang_backend_name
    ):
        """A run stopped at its deadline is over: no thread keeps
        running it until the 3 s hang ends."""
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            client = ServiceClient(server.url)
            before = threading.active_count()
            meta = client.submit({
                **QUICK_SPEC, "backend": hang_backend_name,
                "probe_timeout": 0.2, "on_fault": "degrade",
            })
            _wait_until(lambda: (
                client.job(meta["id"])["status"] in TERMINAL_STATES
            ))
            assert client.job(meta["id"])["status"] == DONE
            _wait_until(
                lambda: threading.active_count() <= before, timeout=1.0
            )


class TestCheckpointResume:
    def test_kill_resume_is_byte_identical_and_warm(self, tmp_path):
        # The spec names a run cache, so the store outlives the server.
        cache = tmp_path / "runs.jsonl"
        document = {**QUICK_SPEC, "run_cache": str(cache)}
        spec = JobSpec.from_dict(document)

        # Reference: an uninterrupted server run of the same spec.
        with CampaignServer(tmp_path / "ref", workers=1) as ref_server:
            ref_client = ServiceClient(ref_server.url)
            ref_meta = ref_client.submit(document)
            _wait_until(lambda: (
                ref_client.job(ref_meta["id"])["status"] in TERMINAL_STATES
            ))
            assert ref_client.job(ref_meta["id"])["status"] == DONE
            reference_report = ref_client.report_bytes(ref_meta["id"])
        assert cache.is_file()

        # Crash scene: a job caught mid-run by a dead server — status
        # running, owned by a worker that no longer exists, and
        # its run cache already holding every completed probe (the
        # reference job's writes double as "attempt 1 finished all its
        # probes before the crash").
        data_dir = tmp_path / "crashed"
        store = JobStore(data_dir)
        orphan = store.new_job(spec)
        store.transition(orphan.id, RUNNING, owner="dead-pid")

        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(orphan.id)["status"] in TERMINAL_STATES
                and client.job(orphan.id)
            ))
            assert final["status"] == DONE
            assert final["attempt"] == 2
            assert final["history"][-1]["outcome"] == "server-restart"
            # Warm resume: the spec's store answered probes, the
            # engine re-executed only what it had to.
            assert final["engine_stats"]["persistent_hits"] > 0
            # Determinism: byte-identical to the uninterrupted run.
            assert client.report_bytes(orphan.id) == reference_report
            kinds = [
                doc["event"] for doc in _events(server.store, orphan.id)
            ]
            assert "job_requeued" in kinds

    def test_specless_job_writes_no_run_cache(self, tmp_path):
        # The runner injects no store: a job with no run cache leaves
        # only its lifecycle files behind.
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            client = ServiceClient(server.url)
            meta = client.submit(QUICK_SPEC)
            _wait_until(
                lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
            )
            assert client.job(meta["id"])["status"] == DONE
            job_dir = server.store.job_dir(meta["id"])
            assert sorted(p.name for p in job_dir.iterdir()) == [
                "events.jsonl", "meta.json", "report.json", "spec.json",
            ]
            assert server.store.spec(meta["id"]).run_cache is None


def _open_job_logs(root):
    """Paths under *root* of this process's open event logs and run
    caches, read from ``/proc/self/fd``."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed between listdir and readlink
        name = os.path.basename(target)
        if target.startswith(str(root)) and (
            name == "events.jsonl" or name.startswith("runcache.")
        ):
            held.append(target)
    return sorted(held)


class TestLogLifetimes:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_no_log_handle_outlives_its_job(
        self, tmp_path, slow_backend_name
    ):
        store = JobStore(tmp_path)
        runner = JobRunner(store, workers=1)
        runner.start()

        def settle(job_id, status):
            _wait_until(lambda: (
                store.meta(job_id).status == status
                and runner.busy_workers == 0
                and runner.queue_depth == 0
            ))
            assert _open_job_logs(tmp_path) == []

        def running_with_logs_open(job_id):
            # The positive control: a live attempt holds its event log,
            # and nothing else under the job dir.
            _wait_until(
                lambda: store.meta(job_id).status == RUNNING
            )
            _wait_until(lambda: _open_job_logs(tmp_path) == [
                str(store.events_path(job_id)),
            ])

        try:
            done = runner.submit(JobSpec(**QUICK_SPEC))
            settle(done.id, DONE)

            # The failure marker is appended after the terminal
            # transition, through a handle of its own.
            failed = runner.submit(JobSpec(**{**QUICK_SPEC, "backend": "gone"}))
            settle(failed.id, FAILED)
            assert _events(store, failed.id)[-1]["event"] == "job_failed"

            cancelled = runner.submit(JobSpec(**SLOW_SPEC))
            running_with_logs_open(cancelled.id)
            runner.cancel(cancelled.id)
            settle(cancelled.id, CANCELLED)
        finally:
            runner.stop(cancel_running=True)

    def test_marker_lands_whole_beside_an_open_worker_handle(self, tmp_path):
        # The worker appends through its held handle while two marker
        # writers append markers through their own, with a short
        # switch interval so the writes interleave as much as they can.
        store = JobStore(tmp_path)
        job_id = store.new_job(JobSpec(**QUICK_SPEC)).id
        padding = "x" * 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with store.event_log(job_id) as append:
                def worker():
                    for n in range(300):
                        append(json.dumps(
                            {"event": "probe", "n": n, "pad": padding}
                        ))

                def markers(first):
                    for attempt in range(first, first + 15):
                        store.append_marker(
                            job_id, "job_requeued",
                            attempt=attempt, reason="server-restart",
                        )

                threads = [
                    threading.Thread(target=worker),
                    threading.Thread(target=markers, args=(0,)),
                    threading.Thread(target=markers, args=(15,)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=DEADLINE_S)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # Every line parses: none was glued to or torn by another.
        documents = _events(store, job_id)
        assert [
            doc["n"] for doc in documents if doc["event"] == "probe"
        ] == list(range(300))
        assert sorted(
            doc["attempt"] for doc in documents
            if doc["event"] == "job_requeued"
        ) == list(range(30))
        lines, next_since = store.read_events(job_id)
        assert len(lines) == next_since == 330


class TestTornMeta:
    def test_torn_meta_reads_as_torn_not_crash(self, tmp_path):
        store = JobStore(tmp_path)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.meta_path(meta.id).write_text('{"id": "job-0001", "sta')
        with pytest.raises(TornMetaError):
            store.meta(meta.id)
        # Listings skip it instead of blowing up.
        assert store.list_jobs() == []

    def test_recover_rebuilds_torn_meta_from_spec(self, tmp_path):
        store = JobStore(tmp_path)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(meta.id, RUNNING)
        # Kill-mid-write simulation: a torn meta.json and the
        # atomic-write temp file left behind.
        store.meta_path(meta.id).write_text('{"id": "job-0001", "sta')
        temp = store.meta_path(meta.id).with_suffix(".json.tmp")
        temp.write_text("{")

        reopened = JobStore(tmp_path)
        _resumed, _quarantined, requeue = reopened.recover()
        assert [m.id for m in requeue] == [meta.id]
        rebuilt = reopened.meta(meta.id)
        assert rebuilt.status == QUEUED
        assert rebuilt.app == "weborf"
        assert rebuilt.history[-1]["outcome"] == "rebuilt-after-torn-meta"
        assert not temp.exists()

    def test_recover_rebuilds_missing_meta(self, tmp_path):
        store = JobStore(tmp_path)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.meta_path(meta.id).unlink()
        _resumed, _quarantined, requeue = JobStore(tmp_path).recover()
        assert [m.id for m in requeue] == [meta.id]
        rebuilt = JobStore(tmp_path).meta(meta.id)
        assert rebuilt.status == QUEUED
        assert rebuilt.history[-1]["outcome"] == "rebuilt-after-missing-meta"

    def test_torn_job_runs_to_done_after_restart(self, tmp_path):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.meta_path(meta.id).write_text("not json at all")
        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(meta.id)["status"] in TERMINAL_STATES
                and client.job(meta.id)
            ))
            assert final["status"] == DONE


class TestAdmissionControl:
    def test_queue_full_is_429_with_retry_after(
        self, tmp_path, slow_backend_name
    ):
        with CampaignServer(
            tmp_path / "svc", workers=1, max_queue=1
        ) as server:
            client = ServiceClient(server.url)
            first = client.submit(SLOW_SPEC)
            _wait_until(
                lambda: client.job(first["id"])["status"] == RUNNING
            )
            second = client.submit(SLOW_SPEC)
            with pytest.raises(ServiceError) as caught:
                client.submit(SLOW_SPEC)
            assert caught.value.status == 429
            assert caught.value.retry_after_s > 0
            assert "queue full" in caught.value.message
            # The refused submission left no trace on disk.
            ids = {meta["id"] for meta in client.jobs()}
            assert ids == {first["id"], second["id"]}
            client.cancel(second["id"])
            client.cancel(first["id"])

    def test_runner_rejects_before_touching_disk(self, tmp_path):
        store = JobStore(tmp_path)
        runner = JobRunner(store, workers=1, max_queue=1)
        # Not started: nothing drains the queue, so depth is exact.
        runner.submit(JobSpec(**QUICK_SPEC))
        with pytest.raises(QueueFullError) as caught:
            runner.submit(JobSpec(**QUICK_SPEC))
        assert caught.value.retry_after_s > 0
        assert len(store.list_jobs()) == 1


class TestDrain:
    def test_drain_finishes_running_and_parks_queued(
        self, tmp_path, slow_backend_name
    ):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            client = ServiceClient(server.url)
            running = client.submit(SLOW_SPEC)
            _wait_until(
                lambda: client.job(running["id"])["status"] == RUNNING
            )
            parked = client.submit(QUICK_SPEC)

            plan = client.drain()
            assert plan["draining"] is True
            assert client.health()["draining"] is True
            assert client.stats()["queue"]["draining"] is True

            # Intake is closed...
            with pytest.raises(ServiceError) as caught:
                client.submit(QUICK_SPEC)
            assert caught.value.status == 503

            # ...in-flight work finishes...
            final = _wait_until(lambda: (
                client.job(running["id"])["status"] in TERMINAL_STATES
                and client.job(running["id"])
            ))
            assert final["status"] == DONE

            # ...and the parked job stays queued on disk for the next
            # server start, never picked up by the draining workers.
            _wait_until(lambda: server.runner.busy_workers == 0)
            assert client.job(parked["id"])["status"] == QUEUED

    def test_drained_jobs_run_on_next_start(self, tmp_path):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        parked = store.new_job(JobSpec(**QUICK_SPEC))
        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(parked.id)["status"] in TERMINAL_STATES
                and client.job(parked.id)
            ))
            assert final["status"] == DONE


class TestQueryValidation:
    @pytest.fixture
    def done_job(self, tmp_path):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            client = ServiceClient(server.url)
            meta = client.submit(QUICK_SPEC)
            _wait_until(
                lambda: client.job(meta["id"])["status"] in TERMINAL_STATES
            )
            yield client, meta["id"]

    @pytest.mark.parametrize("timeout", ["-1", "-0.5", "nan", "inf", "-inf"])
    def test_bad_timeout_is_400(self, done_job, timeout):
        client, job_id = done_job
        with pytest.raises(ServiceError) as caught:
            client._json("GET", f"/jobs/{job_id}/events?timeout={timeout}")
        assert caught.value.status == 400
        assert "timeout" in caught.value.message

    def test_huge_timeout_is_clamped_not_rejected(self, done_job):
        client, job_id = done_job
        # Terminal job: even a clamped long-poll returns immediately.
        lines, _, status = client.events(job_id, timeout=1e9)
        assert status == DONE and lines

    def test_negative_since_is_400(self, done_job):
        client, job_id = done_job
        with pytest.raises(ServiceError) as caught:
            client._json("GET", f"/jobs/{job_id}/events?since=-5")
        assert caught.value.status == 400
        assert "since" in caught.value.message

    def test_non_numeric_params_are_400(self, done_job):
        client, job_id = done_job
        for query in ("timeout=soon", "since=first"):
            with pytest.raises(ServiceError) as caught:
                client._json("GET", f"/jobs/{job_id}/events?{query}")
            assert caught.value.status == 400

    def test_unknown_state_filter_is_400(self, done_job):
        client, _ = done_job
        with pytest.raises(ServiceError) as caught:
            client._json("GET", "/jobs?state=bogus")
        assert caught.value.status == 400
        assert "bogus" in caught.value.message

    def test_state_filter_selects(self, done_job):
        client, job_id = done_job
        assert [m["id"] for m in client.jobs(state="done")] == [job_id]
        assert client.jobs(state="quarantined") == []


class TestOldDataDir:
    def test_queued_job_with_removed_field_fails_and_server_serves(
        self, tmp_path
    ):
        # A spec.json written before the remote executor was removed
        # carries a ``workers`` list the spec no longer knows.
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        spec_path = store.spec_path(meta.id)
        spec_path.write_text(json.dumps(
            {**json.loads(spec_path.read_text()), "workers": []}
        ))
        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(meta.id)["status"] in TERMINAL_STATES
                and client.job(meta.id)
            ))
            assert final["status"] == FAILED
            assert "workers" in final["reason"]
            assert _events(server.store, meta.id)[-1]["event"] == "job_failed"
            assert client.health()["ok"] is True
            fresh = client.submit(QUICK_SPEC)
            done = _wait_until(lambda: (
                client.job(fresh["id"])["status"] in TERMINAL_STATES
                and client.job(fresh["id"])
            ))
            assert done["status"] == DONE


    def test_meta_with_lease_keys_loads_and_recovers(self, tmp_path):
        # A meta.json written while the server still leased jobs
        # carries a deadline and a heartbeat the meta no longer knows.
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(meta.id, RUNNING, owner="dead")
        meta_path = store.meta_path(meta.id)
        meta_path.write_text(json.dumps({
            **json.loads(meta_path.read_text()),
            "lease_deadline": time.time() + 30.0,
            "heartbeat_at": time.time(),
        }))
        assert store.meta(meta.id).status == RUNNING
        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            final = _wait_until(lambda: (
                client.job(meta.id)["status"] in TERMINAL_STATES
                and client.job(meta.id)
            ))
        assert final["status"] == DONE
        assert final["attempt"] == 2
        assert final["history"][-1]["outcome"] == "server-restart"
        assert "lease_deadline" not in final


class TestShutdownMarkers:
    def test_stop_flushes_terminal_marker_for_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        runner = JobRunner(store, workers=1)
        runner.start()
        # A job running under a worker that will outlive the join
        # window (modeled by never giving it to this runner's queue):
        # stop() must still flush a terminal marker to its stream.
        meta = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(meta.id, RUNNING, owner="wedged")
        runner.stop(cancel_running=True, timeout=0.5)
        kinds = [doc["event"] for doc in _events(store, meta.id)]
        assert "job_interrupted" in kinds

    def test_worker_crash_leaves_terminal_marker(self, tmp_path):
        # An unresolvable backend field sails through spec validation
        # (validate checks the analyzer knobs, not registry presence —
        # the HTTP front door checks that) but blows up in the worker:
        # the stream must still end with a terminal marker.
        store = JobStore(tmp_path)
        runner = JobRunner(store, workers=1)
        meta = runner.submit(JobSpec(**{**QUICK_SPEC, "backend": "gone"}))
        runner.start()
        _wait_until(lambda: store.meta(meta.id).status in TERMINAL_STATES)
        assert store.meta(meta.id).status == "failed"
        kinds = [doc["event"] for doc in _events(store, meta.id)]
        assert "job_failed" in kinds
        runner.stop()


class TestFailedJobTail:
    def test_tail_of_failed_job_ends_with_its_marker(
        self, tmp_path, monkeypatch
    ):
        # The worker is descheduled right after its job turns
        # ``failed``: a tail that sees that status must already have
        # the terminal marker in the stream.
        transition = JobStore.transition

        def slow_to_return(self, job_id, status, **kwargs):
            meta = transition(self, job_id, status, **kwargs)
            if status == FAILED:
                time.sleep(0.5)
            return meta

        monkeypatch.setattr(JobStore, "transition", slow_to_return)
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            # Submitted past the HTTP front door, which would refuse
            # the unresolvable backend before it could fail a worker.
            meta = server.runner.submit(
                JobSpec(**{**QUICK_SPEC, "backend": "gone"})
            )
            client = ServiceClient(server.url)
            lines = list(client.tail(meta.id, poll=1.0))
        assert client.last_status == FAILED
        assert [json.loads(line)["event"] for line in lines][-1:] \
            == ["job_failed"]


class TestClientRetries:
    def test_get_retries_then_raises_service_unavailable(self, tmp_path):
        client = ServiceClient(
            "http://127.0.0.1:9", retries=2, retry_backoff_s=0.01
        )
        with pytest.raises(ServiceUnavailableError) as caught:
            client.health()
        assert caught.value.attempts == 3

    def test_post_never_retries_transport_errors(self):
        client = ServiceClient(
            "http://127.0.0.1:9", retries=5, retry_backoff_s=0.01
        )
        started = time.monotonic()
        with pytest.raises(OSError):
            client.submit(QUICK_SPEC)
        # No backoff sleeps happened: one attempt, straight failure.
        assert time.monotonic() - started < 1.0

    def test_zero_retries_restores_fail_fast(self):
        client = ServiceClient("http://127.0.0.1:9", retries=0)
        with pytest.raises(OSError):
            client.health()

    def test_tail_survives_server_restart_mid_stream(
        self, tmp_path, slow_backend_name
    ):
        data_dir = tmp_path / "svc"
        first = CampaignServer(data_dir, workers=1).start()
        port = first.address[1]
        client = ServiceClient(
            first.url, retries=8, retry_backoff_s=0.05
        )
        meta = client.submit(SLOW_SPEC)
        _wait_until(lambda: client.job(meta["id"])["status"] == RUNNING)

        second_holder = {}

        def restart():
            time.sleep(0.2)
            first.close(cancel_running=True)
            second_holder["server"] = CampaignServer(
                data_dir, port=port, workers=1
            ).start()

        restarter = threading.Thread(target=restart)
        restarter.start()
        try:
            # The tail rides through the restart on GET retries: the
            # long-poll that dies with the first server is re-polled
            # against the second with the same cursor.
            lines = list(client.tail(meta["id"], poll=1.0))
            assert client.last_status in TERMINAL_STATES
            assert lines
        finally:
            restarter.join()
            second_holder["server"].close()


class TestDurabilityCLI:
    def test_jobs_state_filter_lists_quarantined(self, tmp_path, capsys):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        poisoned = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(poisoned.id, RUNNING, owner="dead")
        healthy = store.new_job(JobSpec(**QUICK_SPEC))
        with CampaignServer(
            data_dir, workers=1, max_attempts=1
        ) as server:
            # recover() quarantines the poisoned orphan on start
            # (attempt budget of 1 is already spent).
            _wait_until(lambda: (
                ServiceClient(server.url).job(healthy.id)["status"]
                in TERMINAL_STATES
            ))
            code = main([
                "jobs", "--url", server.url, "--state", "quarantined",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert poisoned.id in out
            assert healthy.id not in out
            assert "quarantined" in out

            code = main([
                "jobs", "--url", server.url, "--state", "done", "--json",
            ])
            out = capsys.readouterr().out
            listed = json.loads(out)
            assert [m["id"] for m in listed] == [healthy.id]

    def test_drain_command(self, tmp_path, capsys):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            code = main(["drain", "--url", server.url])
            out = capsys.readouterr().out
            assert code == 0
            assert "draining" in out
            assert server.runner.draining is True

    def test_no_checkpoint_flag_is_gone(self, tmp_path, capsys):
        from repro.cli import build_parser

        for flag in (["--no-checkpoint"], ["--lease", "5"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([
                    "serve", "--data-dir", str(tmp_path), *flag,
                ])
            assert exit_info.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_serve_flags_reach_the_runner(self, tmp_path):
        server = CampaignServer(
            tmp_path / "svc",
            max_queue=7, max_attempts=5,
        )
        try:
            assert server.runner.max_queue == 7
            assert server.runner.max_attempts == 5
        finally:
            # Never start()ed, so only the bound socket needs release
            # (close() would block on an HTTP loop that never ran).
            server._httpd.server_close()


class TestStatsGauges:
    def test_attempt_and_queue_age_metrics(self, tmp_path):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        orphan = store.new_job(JobSpec(**QUICK_SPEC))
        store.transition(orphan.id, RUNNING, owner="dead")
        with CampaignServer(data_dir, workers=1) as server:
            client = ServiceClient(server.url)
            _wait_until(lambda: (
                client.job(orphan.id)["status"] in TERMINAL_STATES
            ))
            stats = client.stats()
            # The resumed orphan ran as attempt 2: one retry observed.
            assert stats["attempts"]["retries"] >= 1
            assert stats["attempts"]["max_observed"] >= 2
            assert stats["attempts"]["max_attempts"] == 3
            assert "lease_s" not in stats["attempts"]
            assert stats["queue"]["max_queue"] is None
            assert math.isfinite(stats["queue"]["oldest_age_s"])
