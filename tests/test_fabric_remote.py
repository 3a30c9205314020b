"""The remote executor: a worker fleet is a pure scheduling choice.

Extends the executor-equivalence contract of
``test_engine_executors.py`` across the network: ``executor="remote"``
against in-process :class:`FabricWorker` fleets must produce reports
byte-identical to serial execution, survive a worker dying mid-batch
by re-enqueueing its lost chunks on the survivors (the same
``worker-crash`` fault taxonomy and retry budget the process pool
uses), and fail with typed, actionable errors when the whole fleet is
unreachable.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.appsim.corpus import build, seven_apps
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import ProbeEngine
from repro.core.faults import (
    FAULT_WORKER_CRASH,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFaultError,
)
from repro.core.policy import stubbing
from repro.core.runner import BackendCapabilities
from repro.fabric.executor import (
    FabricConnectionError,
    FabricExecutor,
    parse_worker_address,
)
from repro.fabric.protocol import (
    KIND_ACK,
    KIND_CHUNK,
    KIND_HEARTBEAT,
    FabricProtocolError,
    decode_chunk,
    encode_ack,
    encode_frame,
    read_frame,
)
from repro.fabric.worker import FabricWorker, _ConnectionHandler


def _digest(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fleet():
    """Two live in-process workers, shared by the equivalence tests."""
    with FabricWorker() as one, FabricWorker() as two:
        yield (one.address, two.address)


def _analyze(app, workload, *, executor="serial", workers=()):
    with Analyzer(AnalyzerConfig(
        replicas=3,
        parallel=1 if executor == "serial" else 3,
        executor=executor,
        workers=workers,
    )) as analyzer:
        return analyzer.analyze(
            app.backend(), app.workload(workload),
            app=app.name, app_version=app.version,
        )


class TestRemoteEquivalence:
    def test_remote_reports_byte_identical_to_serial(self, fleet):
        for app in seven_apps()[:3]:
            serial = _analyze(app, "bench")
            remote = _analyze(
                app, "bench", executor="remote", workers=fleet
            )
            assert _digest(remote) == _digest(serial), app.name

    def test_remote_resolves_regardless_of_parallel(self, fleet):
        """Fleet width comes from the worker count, not --jobs: even
        parallel=1 ships chunks instead of degrading to serial."""
        with ProbeEngine(
            parallel=1, executor="remote", workers=fleet
        ) as engine:
            assert engine.executor_name == "remote"
            assert engine.mode_for(build("redis").backend()) == "remote"

    def test_unshardable_backend_falls_back_locally(self, fleet):
        backend = build("redis").backend()
        backend._poison = lambda: None  # defeats the pickle probe
        with ProbeEngine(
            parallel=3, executor="remote", workers=fleet
        ) as engine:
            assert engine.mode_for(backend) == "thread"
        with ProbeEngine(
            parallel=1, executor="remote", workers=fleet
        ) as engine:
            assert engine.mode_for(backend) == "serial"


# -- failure injection -------------------------------------------------------


class _DropAfterAckHandler(_ConnectionHandler):
    """Handshakes fine, then hangs up right after ACKing each chunk —
    the footprint of a worker SIGKILLed mid-execution (the scheduler
    saw the ACK, never the RESULT)."""

    def _chunk_loop(self, worker, reader, send) -> None:
        while True:
            frame = read_frame(reader)
            if frame is None:
                return
            kind, payload = frame
            if kind == KIND_HEARTBEAT:
                continue
            if kind != KIND_CHUNK:
                raise FabricProtocolError(f"unexpected kind {kind}")
            chunk_id, _job = decode_chunk(payload)
            send(encode_frame(KIND_ACK, encode_ack(chunk_id)))
            self.request.close()
            return


class _MuteHandler(_ConnectionHandler):
    """Accepts chunks but never answers them. Combined with a huge
    ``heartbeat_s`` this is the footprint of a *wedged* (not crashed)
    worker; only the silence timeout can unmask it."""

    def _chunk_loop(self, worker, reader, send) -> None:
        while read_frame(reader) is not None:
            pass


def _flaky_worker(handler, **kwargs):
    worker = FabricWorker(**kwargs)
    # socketserver reads RequestHandlerClass at dispatch time, so the
    # swap applies to every connection this worker accepts.
    worker._server.RequestHandlerClass = handler
    return worker


_RECOVERY_POLICY = FaultPolicy(
    retries=1, retry_backoff_s=0.0, on_fault="degrade"
)


class TestLostChunkReenqueue:
    def test_dead_worker_chunks_requeue_on_survivor(self):
        app = build("redis")
        notices = []
        with _flaky_worker(_DropAfterAckHandler) as flaky, \
                FabricWorker() as steady:
            with ProbeEngine(
                parallel=3, executor="remote",
                workers=(flaky.address, steady.address),
                cache=False, fault_policy=_RECOVERY_POLICY,
                on_notice=notices.append,
            ) as engine:
                outcome = engine.run_replicas(
                    app.backend(), app.workload("health"),
                    stubbing("futex"), 3, early_exit=False,
                )
                stats = engine.stats
        recoveries = [
            n for n in notices if isinstance(n, PoolRecoveredNotice)
        ]
        assert recoveries and sum(n.lost_runs for n in recoveries) >= 1
        assert stats.faulted == 0  # recovered, not quarantined
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        )
        serial = ProbeEngine(cache=False).run_replicas(
            app.backend(), app.workload("health"),
            stubbing("futex"), 3, early_exit=False,
        )
        assert [r.to_dict() for r in outcome.results] == [
            r.to_dict() for r in serial.results
        ]

    def test_every_worker_dead_exhausts_the_budget(self):
        app = build("redis")
        with _flaky_worker(_DropAfterAckHandler) as flaky:
            with ProbeEngine(
                parallel=2, executor="remote", workers=(flaky.address,),
                cache=False,
                fault_policy=FaultPolicy(
                    retries=1, retry_backoff_s=0.0, on_fault="fail"
                ),
            ) as engine:
                with pytest.raises(
                    (ProbeFaultError, FabricConnectionError)
                ) as excinfo:
                    engine.run_replicas(
                        app.backend(), app.workload("health"),
                        stubbing("futex"), 2,
                    )
            if isinstance(excinfo.value, ProbeFaultError):
                assert excinfo.value.fault.kind == FAULT_WORKER_CRASH

    def test_silent_worker_is_presumed_dead(self):
        app = build("redis")
        notices = []
        # The mute worker never beats (heartbeat_s is an hour); the
        # steady one beats well inside the 1s silence budget.
        with _flaky_worker(_MuteHandler, heartbeat_s=3600.0) as mute, \
                FabricWorker(heartbeat_s=0.2) as steady:
            with ProbeEngine(
                parallel=3, executor="remote",
                workers=(mute.address, steady.address),
                cache=False, fault_policy=_RECOVERY_POLICY,
                on_notice=notices.append,
            ) as engine:
                engine._fabric = FabricExecutor(
                    engine.workers, dead_after_s=1.0
                ).connect()
                outcome = engine.run_replicas(
                    app.backend(), app.workload("health"),
                    stubbing("futex"), 3, early_exit=False,
                )
        serial = ProbeEngine(cache=False).run_replicas(
            app.backend(), app.workload("health"),
            stubbing("futex"), 3, early_exit=False,
        )
        assert [r.to_dict() for r in outcome.results] == [
            r.to_dict() for r in serial.results
        ]
        assert any(
            isinstance(n, PoolRecoveredNotice) for n in notices
        )


class _NodelayProbeHandler(_ConnectionHandler):
    """Records the accepted socket's TCP_NODELAY once the handshake is
    done, then serves chunks as usual."""

    seen: "list[int]" = []

    def _chunk_loop(self, worker, reader, send) -> None:
        self.seen.append(
            self.request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        super()._chunk_loop(worker, reader, send)


class TestWire:
    def test_both_ends_disable_nagle(self):
        """Small ACK/RESULT/CHUNK frames must not wait on Nagle's
        algorithm and the peer's delayed ACK."""
        _NodelayProbeHandler.seen.clear()
        with _flaky_worker(_NodelayProbeHandler) as worker, \
                FabricExecutor([worker.address]) as executor:
            (link,) = executor._links
            assert link.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            deadline = time.monotonic() + 5.0
            while not _NodelayProbeHandler.seen \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _NodelayProbeHandler.seen and all(
                _NodelayProbeHandler.seen
            )


class TestConnectionErrors:
    def test_no_reachable_workers_is_actionable(self):
        executor = FabricExecutor(["127.0.0.1:1"])
        with pytest.raises(FabricConnectionError) as excinfo:
            executor.connect()
        assert "loupe worker" in str(excinfo.value)

    def test_worker_without_process_safety_is_refused(self):
        caps = BackendCapabilities(
            deterministic=True, parallel_safe=True, process_safe=False
        )
        with FabricWorker(capabilities=caps) as worker:
            executor = FabricExecutor([worker.address])
            with pytest.raises(FabricConnectionError) as excinfo:
                executor.connect()
            assert "process_safe" in str(excinfo.value)

    def test_worker_addresses_parse_or_refuse(self):
        assert parse_worker_address("host:1234") == ("host", 1234)
        with pytest.raises(FabricConnectionError):
            parse_worker_address("no-port")
        with pytest.raises(FabricConnectionError):
            parse_worker_address("host:http")

    def test_empty_fleet_is_refused_up_front(self):
        with pytest.raises(FabricConnectionError):
            FabricExecutor([])
        with pytest.raises(ValueError):
            ProbeEngine(executor="remote")
