"""Fault-tolerance tests: policy, guarded execution, chaos, recovery.

Covers the robustness layer end to end:

* :class:`FaultPolicy` validation, activation, and deterministic
  backoff jitter;
* :func:`guarded_run` classification (timeout / backend-error /
  torn-result), bounded retries, and quarantine records;
* :class:`ChaosBackend` — seeded deterministic injection, wrong-answer
  flips, and the parent-pid crash guard;
* the engine accounting invariant ``requested == executed +
  cache_hits + skipped + faulted`` under chaos, on every executor
  (hypothesis-driven);
* byte-identical degraded campaigns across serial and process,
  including a real worker crash recovered mid-batch;
* the ``undecided`` verdict flow, its serialization, and the
  ``undecided-in-target`` cross-validation divergence;
* ``loupe cache verify`` (clean store, planted corruption, seeded
  sampling) and the SQLite lock-retry helper;
* the fault events' wire format and the BrokenPipe-safe emitter.
"""

import argparse
import dataclasses
import json
import math
import pickle
import sqlite3
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.events import (
    EngineStatsEvent,
    FaultsSummary,
    PoolRecovered,
    ProbeFaulted,
    ProbeRetry,
)
from repro.api.registry import (
    BackendRegistryError,
    create_target,
    register_chaos,
    unregister_backend,
)
from repro.api.session import AnalysisRequest
from repro.appsim.backend import SimBackend
from repro.appsim.behavior import harmless, ignore
from repro.appsim.corpus import build
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.cachestore import (
    JsonlRunCache,
    SqliteRunCache,
    VerifyReport,
    verify_store,
)
from repro.core.cachestore import sqlite as sqlite_store
from repro.core.decisions import Verdict
from repro.core.engine import ProbeEngine
from repro.core.faults import (
    FAULT_BACKEND_ERROR,
    FAULT_TIMEOUT,
    FAULT_TORN_RESULT,
    ChaosBackend,
    ChaosError,
    ChaosSpec,
    FaultNotice,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFault,
    ProbeFaultError,
    RetryNotice,
    guarded_run,
    probe_key,
)
from repro.core.policy import passthrough, stubbing
from repro.core.result import AnalysisResult
from repro.core.runner import (
    BackendCapabilities,
    ResourceUsage,
    RunResult,
    backend_name,
)
from repro.core.workload import health_check
from repro.errors import AnalysisError
from repro.report import (
    UNDECIDED_IN_TARGET,
    CrossValidationReport,
    cross_validate,
)

_SYSCALLS = ("read", "close", "uname", "prctl")

_PROGRAM = SimProgram(
    name="faulty",
    version="1",
    ops=tuple(
        SyscallOp(syscall=syscall, on_stub=ignore(), on_fake=harmless())
        for syscall in _SYSCALLS
    ),
    profiles={"*": WorkloadProfile(metric=500.0)},
)

_WORKLOAD = health_check("health")


def _result(success=True, metric=100.0):
    return RunResult(
        success=success,
        traced=Counter({"read": 3}),
        metric=metric if success else None,
        resources=ResourceUsage(fd_peak=12, mem_peak_kb=2048),
        exit_code=0 if success else 1,
        failure_reason=None if success else "boom",
    )


class _FlakyBackend:
    """Raises on the first *fail_times* calls, then succeeds."""

    name = "sim:flaky"

    def capabilities(self):
        return BackendCapabilities(parallel_safe=True)

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def run(self, workload, policy, *, replica=0):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("transient backend hiccup")
        return _result()


class _HangingBackend:
    """Blocks for 5 s, or until its deadline, as the contract asks."""

    name = "sim:hanging"

    def run(self, workload, policy, *, replica=0, deadline=None):
        if deadline is not None and deadline - time.monotonic() < 5.0:
            time.sleep(max(0.0, deadline - time.monotonic()))
            raise TimeoutError("deadline reached")
        time.sleep(5.0)
        return _result()


class _LateBackend:
    """Ignores its deadline and returns a good result after it."""

    name = "sim:late"

    def run(self, workload, policy, *, replica=0, deadline=None):
        time.sleep(0.2)
        return _result()


class _ThreadRecordingBackend:
    name = "sim:threads"

    def __init__(self):
        self.threads = []

    def run(self, workload, policy, *, replica=0, deadline=None):
        self.threads.append(threading.get_ident())
        return _result()


class _TornBackend:
    name = "sim:torn"

    def run(self, workload, policy, *, replica=0):
        return {"not": "a RunResult"}


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(probe_timeout_s=0)
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(retry_backoff_s=-0.1)
        with pytest.raises(ValueError):
            FaultPolicy(on_fault="explode")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_timeout_and_backoff_refused(self, value):
        with pytest.raises(ValueError):
            FaultPolicy(probe_timeout_s=value)
        with pytest.raises(ValueError):
            FaultPolicy(retry_backoff_s=value)
        with pytest.raises(ValueError):
            AnalyzerConfig(probe_timeout_s=value)

    def test_activation(self):
        assert not FaultPolicy().active
        assert FaultPolicy(probe_timeout_s=1.0).active
        assert FaultPolicy(retries=1).active
        assert FaultPolicy(on_fault="degrade").active
        assert FaultPolicy(retries=2).attempts == 3

    def test_config_validates_fault_fields(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(on_fault="explode")
        with pytest.raises(ValueError):
            AnalyzerConfig(probe_timeout_s=-1.0)
        assert AnalyzerConfig().fault_policy() is None
        policy = AnalyzerConfig(retries=2, on_fault="degrade").fault_policy()
        assert policy is not None and policy.degrade

    def test_backoff_deterministic_when_seeded(self):
        policy = FaultPolicy(retries=3, retry_backoff_s=0.1, jitter_seed=7)
        first = [policy.backoff_delay(n, "key") for n in (1, 2, 3)]
        again = [policy.backoff_delay(n, "key") for n in (1, 2, 3)]
        assert first == again
        # Exponential envelope with jitter in [1.0, 1.5) of the base.
        for attempt, delay in enumerate(first, start=1):
            base = 0.1 * 2 ** (attempt - 1)
            assert base <= delay < 1.5 * base
        # A different probe key jitters differently (same envelope).
        assert policy.backoff_delay(1, "other") != first[0]

    def test_backoff_zero_base_never_sleeps(self):
        policy = FaultPolicy(retries=2, retry_backoff_s=0.0)
        assert policy.backoff_delay(1, "key") == 0.0


class TestGuardedRun:
    def test_retry_then_success(self):
        backend = _FlakyBackend(fail_times=1)
        outcome = guarded_run(
            backend, _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(retries=2, retry_backoff_s=0.0),
        )
        assert not outcome.faulted
        assert outcome.result == _result()
        assert len(outcome.failures) == 1
        assert outcome.failures[0].kind == FAULT_BACKEND_ERROR
        assert backend.calls == 2

    def test_exhausted_backend_error(self):
        backend = _FlakyBackend(fail_times=10)
        policy = stubbing("close")
        outcome = guarded_run(
            backend, _WORKLOAD, policy, 1,
            FaultPolicy(retries=1, retry_backoff_s=0.0),
        )
        assert outcome.faulted and outcome.result is None
        assert len(outcome.failures) == 2
        fault = outcome.fault(_WORKLOAD, policy, 1)
        assert fault.kind == FAULT_BACKEND_ERROR
        assert fault.workload == "health" and fault.replica == 1
        assert fault.attempts == 2
        assert "RuntimeError" in fault.detail
        assert len(fault.durations_s) == 2

    def test_timeout_classified_and_abandoned(self):
        started = time.monotonic()
        outcome = guarded_run(
            _HangingBackend(), _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(probe_timeout_s=0.05),
        )
        assert time.monotonic() - started < 2.0
        assert outcome.faulted
        assert outcome.failures[0].kind == FAULT_TIMEOUT
        assert outcome.failures[0].detail == "no result within 0.05s"

    def test_late_result_is_a_timeout(self):
        outcome = guarded_run(
            _LateBackend(), _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(probe_timeout_s=0.05),
        )
        assert outcome.faulted
        assert outcome.failures[0].kind == FAULT_TIMEOUT

    def test_timed_attempt_runs_on_the_callers_thread(self):
        backend = _ThreadRecordingBackend()
        before = threading.active_count()
        outcome = guarded_run(
            backend, _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(probe_timeout_s=5.0),
        )
        assert outcome.result == _result()
        assert backend.threads == [threading.get_ident()]
        assert threading.active_count() == before

    def test_timeout_error_without_a_deadline_is_a_backend_error(self):
        class Raising:
            def run(self, workload, policy, *, replica=0):
                raise TimeoutError("the backend's own timeout")

        outcome = guarded_run(
            Raising(), _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(on_fault="degrade"),
        )
        assert outcome.failures[0].kind == FAULT_BACKEND_ERROR

    def test_torn_result_classified(self):
        outcome = guarded_run(
            _TornBackend(), _WORKLOAD, stubbing("close"), 0,
            FaultPolicy(retries=0, on_fault="degrade"),
        )
        assert outcome.faulted
        assert outcome.failures[0].kind == FAULT_TORN_RESULT
        assert "dict" in outcome.failures[0].detail

    def test_probe_fault_round_trips(self):
        fault = ProbeFault(
            workload="health", probe="stub:close", replica=2,
            kind=FAULT_TIMEOUT, attempts=3, durations_s=(0.1, 0.2, 0.1),
            detail="no result within 0.1s",
        )
        assert ProbeFault.from_dict(json.loads(json.dumps(fault.to_dict()))) == fault
        assert "stub:close" in fault.describe()
        assert "[timeout]" in fault.describe()

    def test_probe_fault_error_pickles(self):
        fault = ProbeFault(
            workload="health", probe="stub:close", replica=0,
            kind=FAULT_BACKEND_ERROR, attempts=1, detail="boom",
        )
        error = pickle.loads(pickle.dumps(ProbeFaultError(fault)))
        assert isinstance(error, ProbeFaultError)
        assert error.fault == fault


class TestChaosBackend:
    def test_error_injection_targets_altered_features_only(self):
        spec = ChaosSpec(seed=1, error_features=frozenset({"close"}))
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        with pytest.raises(ChaosError):
            chaos.run(_WORKLOAD, stubbing("close"))
        # The passthrough baseline is never injected.
        assert chaos.run(_WORKLOAD, passthrough()).success
        # Other probes pass through untouched.
        assert chaos.run(_WORKLOAD, stubbing("read")).success

    def test_wrong_answer_flip(self):
        spec = ChaosSpec(seed=1, flip_features=frozenset({"read"}))
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        honest = SimBackend(_PROGRAM).run(_WORKLOAD, stubbing("read"))
        flipped = chaos.run(_WORKLOAD, stubbing("read"))
        assert honest.success
        assert not flipped.success
        assert flipped.failure_reason == "chaos: wrong-answer flip"

    def test_error_rate_is_seeded_and_deterministic(self):
        spec = ChaosSpec(seed=9, error_rate=0.5)
        def injected(chaos):
            raised = set()
            for syscall in _SYSCALLS:
                for replica in range(3):
                    try:
                        chaos.run(_WORKLOAD, stubbing(syscall), replica=replica)
                    except ChaosError:
                        raised.add((syscall, replica))
            return raised
        first = injected(ChaosBackend(SimBackend(_PROGRAM), spec))
        again = injected(ChaosBackend(SimBackend(_PROGRAM), spec))
        assert first == again
        assert 0 < len(first) < len(_SYSCALLS) * 3
        other = injected(ChaosBackend(
            SimBackend(_PROGRAM), dataclasses.replace(spec, seed=10)
        ))
        assert first != other

    def test_crash_guard_never_kills_the_scheduling_process(self):
        spec = ChaosSpec(seed=1, crash_features=frozenset({"close"}))
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        # Inline execution (the serial executor) hits the pid
        # guard: the run proceeds normally instead of os._exit()ing.
        assert chaos.run(_WORKLOAD, stubbing("close")).success

    def test_hang_stops_at_the_deadline(self):
        spec = ChaosSpec(hang_features=frozenset({"close"}), hang_s=5.0)
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            chaos.run(_WORKLOAD, stubbing("close"), deadline=started + 0.1)
        assert 0.1 <= time.monotonic() - started < 2.0

    def test_hang_shorter_than_the_deadline_is_an_error(self):
        spec = ChaosSpec(hang_features=frozenset({"close"}), hang_s=0.05)
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        with pytest.raises(ChaosError):
            chaos.run(
                _WORKLOAD, stubbing("close"),
                deadline=time.monotonic() + 5.0,
            )

    def test_deadline_reaches_the_inner_backend(self):
        seen = []

        class Inner:
            def run(self, workload, policy, *, replica=0, deadline=None):
                seen.append(deadline)
                return _result()

        chaos = ChaosBackend(Inner(), ChaosSpec())
        chaos.run(_WORKLOAD, passthrough(), deadline=12.5)
        chaos.run(_WORKLOAD, passthrough())
        assert seen == [12.5, None]

    def test_capabilities_and_name_delegate(self):
        chaos = ChaosBackend(SimBackend(_PROGRAM), ChaosSpec())
        assert chaos.capabilities().deterministic
        assert backend_name(chaos) == "chaos:sim:faulty-1"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(hang_s=0)
        with pytest.raises(ValueError):
            ChaosSpec(error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(crash_after=0)


class TestEngineFaultHandling:
    def test_fail_mode_raises_probe_fault_error(self):
        spec = ChaosSpec(seed=1, error_features=frozenset({"close"}))
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        engine = ProbeEngine(
            cache=False,
            fault_policy=FaultPolicy(retries=1, retry_backoff_s=0.0),
        )
        with pytest.raises(ProbeFaultError) as caught:
            engine.run_replicas(chaos, _WORKLOAD, stubbing("close"), 2)
        assert caught.value.fault.kind == FAULT_BACKEND_ERROR
        assert caught.value.fault.attempts == 2

    def test_degrade_quarantines_and_notifies(self):
        spec = ChaosSpec(seed=1, error_features=frozenset({"close"}))
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        notices = []
        engine = ProbeEngine(
            cache=False,
            fault_policy=FaultPolicy(
                retries=1, retry_backoff_s=0.0, on_fault="degrade",
            ),
            on_notice=notices.append,
        )
        outcome = engine.run_replicas(chaos, _WORKLOAD, stubbing("close"), 2)
        assert outcome.undecided and not outcome.all_succeeded
        assert len(outcome.faults) == 2
        stats = engine.stats
        assert stats.faulted == 2
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        )
        retries = [n for n in notices if isinstance(n, RetryNotice)]
        faults = [n for n in notices if isinstance(n, FaultNotice)]
        assert len(retries) == 2 and len(faults) == 2
        assert all(n.attempt == 1 for n in retries)

    def test_inactive_policy_keeps_raw_exception_types(self):
        """The historical contract: no policy, no wrapping."""
        backend = _FlakyBackend(fail_times=10)
        engine = ProbeEngine(cache=False, fault_policy=FaultPolicy())
        with pytest.raises(RuntimeError, match="hiccup"):
            engine.run_replicas(backend, _WORKLOAD, stubbing("close"), 1)


class TestAccountingInvariantProperty:
    """The satellite property: the stats ledger balances under chaos,
    on every executor, whatever faults land where."""

    @settings(max_examples=20, deadline=None)
    @given(
        error_features=st.sets(st.sampled_from(_SYSCALLS), max_size=2),
        error_rate=st.sampled_from((0.0, 0.3)),
        executor=st.sampled_from(("serial", "process")),
        replicas=st.integers(1, 3),
        retries=st.integers(0, 1),
        seed=st.integers(0, 5),
    )
    def test_requested_equals_executed_hits_skipped_faulted(
        self, error_features, error_rate, executor, replicas, retries, seed
    ):
        spec = ChaosSpec(
            seed=seed,
            error_features=frozenset(error_features),
            error_rate=error_rate,
        )
        chaos = ChaosBackend(SimBackend(_PROGRAM), spec)
        policy = FaultPolicy(
            retries=retries, retry_backoff_s=0.0, on_fault="degrade",
            jitter_seed=0,
        )
        with ProbeEngine(
            parallel=1 if executor == "serial" else 3,
            executor=executor,
            fault_policy=policy,
        ) as engine:
            for syscall in _SYSCALLS:
                engine.run_replicas(
                    chaos, _WORKLOAD, stubbing(syscall), replicas
                )
                stats = engine.stats
                assert stats.runs_requested == (
                    stats.runs_executed + stats.cache_hits
                    + stats.replicas_skipped + stats.faulted
                ), stats.describe()

    @settings(max_examples=6, deadline=None)
    @given(
        error_features=st.sets(
            st.sampled_from(_SYSCALLS), min_size=1, max_size=2
        ),
        seed=st.integers(0, 3),
    )
    def test_degraded_reports_serial_vs_process(
        self, error_features, seed
    ):
        spec = ChaosSpec(seed=seed, error_features=frozenset(error_features))
        documents = {}
        for executor in ("serial", "process"):
            with Analyzer(AnalyzerConfig(
                replicas=2,
                parallel=1 if executor == "serial" else 3,
                executor=executor,
                retries=0,
                on_fault="degrade",
                fault_seed=0,
            )) as analyzer:
                result = analyzer.analyze(
                    ChaosBackend(SimBackend(_PROGRAM), spec), _WORKLOAD
                )
            for feature in error_features:
                assert result.features[feature].verdict is Verdict.UNDECIDED
            documents[executor] = _strip_fault_durations(result.to_dict())
        assert documents["serial"] == documents["process"]


def _strip_fault_durations(document):
    """Fault wall-clock is measurement, not outcome: identical
    campaigns legitimately differ in how long each attempt took."""
    document = json.loads(json.dumps(document))
    for fault in document.get("faults", ()):
        fault["durations_s"] = []
    return document


class TestChaosCampaignAcrossExecutors:
    """The acceptance campaign: hangs + errors + a real worker crash,
    under degrade, byte-identical on serial and process."""

    def test_campaign_byte_identical_and_fully_accounted(self, tmp_path):
        app = build("redis")

        def run(executor):
            spec = ChaosSpec(
                seed=7,
                hang_features=frozenset({"futex"}),
                hang_s=0.2,
                error_features=frozenset({"getpid"}),
                crash_features=frozenset({"ioctl"}),
                crash_marker=str(tmp_path / f"crash-{executor}"),
            )
            with Analyzer(AnalyzerConfig(
                replicas=2,
                parallel=1 if executor == "serial" else 3,
                executor=executor,
                probe_timeout_s=0.05,
                retries=1,
                retry_backoff_s=0.001,
                on_fault="degrade",
                fault_seed=3,
            )) as analyzer:
                result = analyzer.analyze(
                    ChaosBackend(app.backend(), spec),
                    app.workload("health"),
                    app=app.name,
                )
                stats = analyzer.engine.stats
            assert stats.runs_requested == (
                stats.runs_executed + stats.cache_hits
                + stats.replicas_skipped + stats.faulted
            ), executor
            assert stats.faulted == len(result.faults), executor
            return result

        reference = run("serial")
        kinds = {fault.kind for fault in reference.faults}
        assert FAULT_TIMEOUT in kinds          # the hang, guarded
        assert FAULT_BACKEND_ERROR in kinds    # the injected error
        undecided = {
            feature
            for feature, report in reference.features.items()
            if report.verdict is Verdict.UNDECIDED
        }
        assert {"futex", "getpid"} <= undecided
        variant = run("process")
        assert _strip_fault_durations(variant.to_dict()) \
            == _strip_fault_durations(reference.to_dict())
        # The crash injection really fired in a worker process — and
        # was recovered without changing the report.
        assert (tmp_path / "crash-process").exists()
        assert not (tmp_path / "crash-serial").exists()


class TestWorkerCrashRecovery:
    def test_crash_recovered_without_losing_or_doubling_runs(self, tmp_path):
        app = build("redis")
        spec = ChaosSpec(
            seed=1,
            crash_features=frozenset({"futex"}),
            crash_marker=str(tmp_path / "crashed"),
        )
        notices = []
        with ProbeEngine(
            parallel=2,
            executor="process",
            cache=False,
            fault_policy=FaultPolicy(
                retries=1, retry_backoff_s=0.0, on_fault="degrade",
            ),
            on_notice=notices.append,
        ) as engine:
            outcome = engine.run_replicas(
                ChaosBackend(app.backend(), spec),
                app.workload("health"),
                stubbing("futex"), 2, early_exit=False,
            )
            stats = engine.stats
        assert (tmp_path / "crashed").exists()
        recoveries = [
            n for n in notices if isinstance(n, PoolRecoveredNotice)
        ]
        assert recoveries and sum(n.lost_runs for n in recoveries) >= 1
        assert stats.faulted == 0  # recovered, not quarantined
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        )
        # The recovered probe answers exactly like an uninjected serial
        # run (the pid guard makes in-process chaos a no-op).
        serial = ProbeEngine(cache=False).run_replicas(
            ChaosBackend(app.backend(), spec),
            app.workload("health"),
            stubbing("futex"), 2, early_exit=False,
        )
        assert [r.to_dict() for r in outcome.results] == [
            r.to_dict() for r in serial.results
        ]


class TestUndecidedVerdictFlow:
    def test_undecided_flow_events_and_roundtrip(self):
        app = build("redis")
        spec = ChaosSpec(seed=1, error_features=frozenset({"getpid"}))
        events = []
        with Analyzer(AnalyzerConfig(
            replicas=2, retries=1, retry_backoff_s=0.0,
            on_fault="degrade", fault_seed=0,
        )) as analyzer:
            result = analyzer.analyze(
                ChaosBackend(app.backend(), spec),
                app.workload("health"),
                on_event=events.append,
            )
        report = result.features["getpid"]
        assert report.verdict is Verdict.UNDECIDED
        assert report.decision.undecided
        assert not report.decision.can_stub and not report.decision.can_fake
        assert not report.verdict.avoidable
        assert result.faults
        assert all(f.kind == FAULT_BACKEND_ERROR for f in result.faults)
        assert "probe undecided" in json.dumps(result.to_dict())

        rebuilt = AnalysisResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.features["getpid"].verdict is Verdict.UNDECIDED
        assert rebuilt.faults == result.faults

        retries = [e for e in events if isinstance(e, ProbeRetry)]
        faulted = [e for e in events if isinstance(e, ProbeFaulted)]
        summaries = [e for e in events if isinstance(e, FaultsSummary)]
        assert retries and all(e.kind == "probe_retry" for e in retries)
        assert len(faulted) == len(result.faults)
        assert all(e.attempts == 2 for e in faulted)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.total == len(result.faults)
        assert summary.kinds == {FAULT_BACKEND_ERROR: len(result.faults)}
        assert [
            ProbeFault.from_dict(doc) for doc in summary.faults
        ] == list(result.faults)
        stats_events = [e for e in events if isinstance(e, EngineStatsEvent)]
        assert stats_events[-1].faulted == len(result.faults)

    def test_fault_free_campaign_emits_no_fault_events(self):
        app = build("redis")
        events = []
        with Analyzer(AnalyzerConfig(
            replicas=1, retries=1, on_fault="degrade",
        )) as analyzer:
            result = analyzer.analyze(
                app.backend(), app.workload("health"),
                on_event=events.append,
            )
        assert not result.faults
        assert "faults" not in result.to_dict()
        assert not any(
            isinstance(e, (ProbeRetry, ProbeFaulted, FaultsSummary))
            for e in events
        )
        stats_event = [
            e for e in events if isinstance(e, EngineStatsEvent)
        ][-1]
        assert "faulted" not in stats_event.to_dict()

    def test_faulted_baseline_aborts_with_fault_detail(self):
        spec = ChaosSpec(seed=0, error_rate=1.0)
        with pytest.raises(AnalysisError, match="without interposition"):
            with Analyzer(AnalyzerConfig(
                replicas=1, retries=0, on_fault="degrade",
            )) as analyzer:
                analyzer.analyze(
                    ChaosBackend(SimBackend(_PROGRAM), spec), _WORKLOAD
                )

    def test_cross_validation_flags_undecided_in_target(self):
        app = build("redis")
        with Analyzer(AnalyzerConfig(replicas=1)) as analyzer:
            clean = analyzer.analyze(
                app.backend(), app.workload("health"), app=app.name
            )
        spec = ChaosSpec(seed=1, error_features=frozenset({"getpid"}))
        with Analyzer(AnalyzerConfig(
            replicas=1, on_fault="degrade",
        )) as analyzer:
            chaotic = analyzer.analyze(
                ChaosBackend(app.backend(), spec),
                app.workload("health"),
                app=app.name,
            )
        report = cross_validate(
            [("appsim", clean, True), ("chaos:appsim", chaotic, False)]
        )
        undecided = [
            d for d in report.divergences if d.kind == UNDECIDED_IN_TARGET
        ]
        assert any(d.feature == "getpid" for d in undecided)
        counts = report.divergence_counts()
        assert counts[UNDECIDED_IN_TARGET] == len(undecided)
        rebuilt = CrossValidationReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert rebuilt.to_dict() == report.to_dict()


class TestRegisterChaos:
    def test_register_resolve_and_wrap(self):
        name = register_chaos(
            "appsim", ChaosSpec(seed=5), replace=True
        )
        try:
            assert name == "chaos:appsim"
            target = create_target(name, AnalysisRequest(app="redis"))
            assert isinstance(target.backend, ChaosBackend)
            assert backend_name(target.backend).startswith("chaos:sim:redis")
            assert target.app == "redis"
        finally:
            unregister_backend(name)

    def test_custom_name(self):
        name = register_chaos(
            "appsim", name="mayhem", replace=True
        )
        try:
            assert name == "mayhem"
            target = create_target("mayhem", AnalysisRequest(app="nginx"))
            assert isinstance(target.backend, ChaosBackend)
        finally:
            unregister_backend("mayhem")

    def test_rejects_non_spec(self):
        with pytest.raises(BackendRegistryError, match="ChaosSpec"):
            register_chaos("appsim", spec=object())


def _populate_store(store, features=("getpid", "futex")):
    app = build("redis")
    backend = app.backend()
    workload = app.workload("health")
    with ProbeEngine(cache=True, store=store) as engine:
        for feature in features:
            engine.run_replicas(backend, workload, stubbing(feature), 1)
    return store


class TestCacheVerify:
    def test_clean_store_verifies(self, tmp_path):
        store = _populate_store(JsonlRunCache(tmp_path / "cache.jsonl"))
        report = verify_store(store)
        assert report.ok
        assert report.total == report.checked == report.matched == 2
        assert report.unverifiable == 0
        assert "2 matched, 0 mismatched" in report.describe()

    def test_sqlite_store_verifies(self, tmp_path):
        store = _populate_store(SqliteRunCache(tmp_path / "cache.sqlite"))
        report = verify_store(store)
        assert report.ok and report.matched == report.total == 2

    def test_planted_corruption_detected(self, tmp_path):
        store = _populate_store(JsonlRunCache(tmp_path / "cache.jsonl"))
        key, stored, policy_doc = sorted(store.records())[0]
        tampered = dataclasses.replace(
            stored, success=not stored.success, failure_reason="tampered",
        )
        store.put(key, tampered, policy=policy_doc)
        report = verify_store(store)
        assert not report.ok
        (mismatch,) = report.mismatches
        assert mismatch.key == key
        assert "success" in mismatch.fields
        assert "differ" in mismatch.describe()

    def test_policy_fingerprint_mismatch_detected(self, tmp_path):
        """A policy document that does not describe its key is torn."""
        store = _populate_store(JsonlRunCache(tmp_path / "cache.jsonl"))
        key, stored, _policy_doc = sorted(store.records())[0]
        store.put(key, stored, policy=stubbing("uname").to_dict())
        report = verify_store(store)
        assert not report.ok
        assert report.mismatches[0].fields == ("policy",)

    def test_records_without_policy_or_backend_are_unverifiable(
        self, tmp_path
    ):
        store = _populate_store(JsonlRunCache(tmp_path / "cache.jsonl"))
        store.put(
            ("sim:redis-6.2", "health", "stub:zzz", 0), _result(),
        )
        store.put(
            ("sim:nosuch-1.0", "health", "passthrough", 0), _result(),
            policy=passthrough().to_dict(),
        )
        report = verify_store(store)
        assert report.ok  # absence of evidence is not a mismatch
        assert report.unverifiable == 2
        assert report.checked == 2

    def test_sampling_is_seeded(self, tmp_path):
        store = _populate_store(
            JsonlRunCache(tmp_path / "cache.jsonl"),
            features=("getpid", "futex", "uname", "brk"),
        )
        first = verify_store(store, sample=2, seed=3)
        again = verify_store(store, sample=2, seed=3)
        assert first == again
        assert first.total == 4 and first.checked == 2
        with pytest.raises(ValueError):
            verify_store(store, sample=0)

    def test_cli_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cache.jsonl"
        store = _populate_store(JsonlRunCache(path))
        assert main(["cache", "verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 matched, 0 mismatched" in out

        key, stored, policy_doc = sorted(store.records())[0]
        tampered = dataclasses.replace(
            stored, success=not stored.success, failure_reason="tampered",
        )
        JsonlRunCache(path).put(key, tampered, policy=policy_doc)
        assert main(["cache", "verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out


class TestSqliteLockRetry:
    def test_transient_lock_retried(self, monkeypatch):
        monkeypatch.setattr(sqlite_store.time, "sleep", lambda delay: None)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert sqlite_store._retry_locked(flaky) == "ok"
        assert calls["n"] == 3

    def test_persistent_lock_raises_after_budget(self, monkeypatch):
        monkeypatch.setattr(sqlite_store.time, "sleep", lambda delay: None)
        calls = {"n": 0}

        def stuck():
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            sqlite_store._retry_locked(stuck)
        assert calls["n"] == sqlite_store._LOCK_ATTEMPTS

    def test_non_lock_errors_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.OperationalError("no such table: runs")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            sqlite_store._retry_locked(broken)
        assert calls["n"] == 1


class TestFaultEventWireFormat:
    def test_fault_events_serialize_json_safe(self):
        events = (
            ProbeRetry(
                workload="health", probe="stub:close", replica=1,
                attempt=1, fault=FAULT_TIMEOUT, detail="slow",
            ),
            ProbeFaulted(
                workload="health", probe="stub:close", replica=1,
                fault=FAULT_TIMEOUT, attempts=2, detail="slow",
            ),
            PoolRecovered(lost_runs=3, rebuilds=1),
            FaultsSummary(
                total=1, kinds={FAULT_TIMEOUT: 1},
                faults=({"workload": "health"},),
            ),
        )
        for event in events:
            document = json.loads(json.dumps(event.to_dict()))
            assert document["event"] == event.kind

    def test_engine_stats_event_omits_zero_faulted(self):
        from repro.core.engine import EngineStats

        clean = EngineStatsEvent.from_stats(
            EngineStats(runs_requested=2, runs_executed=2)
        )
        assert "faulted" not in clean.to_dict()
        faulty = EngineStatsEvent.from_stats(
            EngineStats(runs_requested=2, runs_executed=1, faulted=1)
        )
        assert faulty.to_dict()["faulted"] == 1
        assert faulty.stats().faulted == 1


class TestJsonlEmitterPipeSafety:
    def test_broken_pipe_suppresses_instead_of_raising(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from repro.core.engine import EngineStats

        emitter = cli._jsonl_emitter(argparse.Namespace(events="jsonl"))
        assert emitter is not None

        class _ClosedPipe:
            def write(self, line):
                raise BrokenPipeError()

            def flush(self):
                pass

        monkeypatch.setattr(cli.sys, "stdout", _ClosedPipe())
        event = EngineStatsEvent.from_stats(EngineStats())
        emitter(event)
        emitter(event)  # second emission is silently dropped
        err = capsys.readouterr().err
        assert err.count("pipe closed") == 1

    def test_no_emitter_without_jsonl_mode(self):
        from repro import cli

        assert cli._jsonl_emitter(argparse.Namespace(events="progress")) is None
