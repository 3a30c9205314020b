"""Tests for the probe execution engine (parallel scheduling + caching).

Covers the satellite checklist: determinism under ``parallel>1`` (the
same :class:`AnalysisResult` as a serial run), cache hit accounting,
early-exit correctness on both execution paths, and the
stability/equality semantics of ``InterpositionPolicy.fingerprint()``.
"""

import json
import threading
from collections import Counter

import pytest

from repro.appsim.backend import SimBackend
from repro.appsim.behavior import abort, breaks_core, fallback, harmless, ignore
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core import engine as engine_module
from repro.core.engine import EngineStats, ProbeEngine, _execute_chunk
from repro.core.cachestore import open_store
from repro.core.faults import (
    FAULT_WORKER_CRASH,
    ChaosBackend,
    ChaosSpec,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFaultError,
    ProbeRunError,
    guarded_run,
)
from repro.core.policy import (
    Action,
    InterpositionPolicy,
    combined,
    faking,
    passthrough,
    stubbing,
)
from repro.core.replicas import aggregate, run_replicas
from repro.core.runner import BackendCapabilities, ResourceUsage, RunResult
from repro.core.workload import benchmark, health_check


class _CountingBackend:
    """Deterministic backend that counts executions per (policy, replica)."""

    name = "sim:counting"
    deterministic = True
    parallel_safe = True

    def capabilities(self):
        # Read through the attributes so subclasses tweak one flag
        # (deterministic=False, parallel_safe=False) and the contract
        # follows.
        return BackendCapabilities(
            deterministic=self.deterministic,
            parallel_safe=self.parallel_safe,
            process_safe=getattr(self, "process_safe", False),
        )

    def __init__(self, failing_features=()):
        self.failing_features = frozenset(failing_features)
        self.calls = 0
        self.lock = threading.Lock()

    def run(self, workload, policy, *, replica=0):
        with self.lock:
            self.calls += 1
        failed = bool(policy.altered_features() & self.failing_features)
        return RunResult(
            success=not failed,
            traced=Counter({"read": 1 + replica}),
            metric=None if failed else 100.0 + replica,
            resources=ResourceUsage(fd_peak=10, mem_peak_kb=1000),
            failure_reason="poisoned feature" if failed else None,
        )


class _ShardableBackend(_CountingBackend):
    """A counting backend the process executor can ship to its workers.

    ``calls`` then counts only the runs this process executed; the
    process-sharded tests read the engine's stats instead.
    """

    process_safe = True

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.lock = threading.Lock()


class _IntervalBackend(_ShardableBackend):
    """Sleeps through each run and appends its start and end to a log,
    so a test can count how many runs the workers had going at once."""

    def __init__(self, log_path, delay_s=0.05):
        super().__init__()
        self.log_path = str(log_path)
        self.delay_s = delay_s

    def run(self, workload, policy, *, replica=0):
        import time

        start = time.monotonic()
        time.sleep(self.delay_s)
        end = time.monotonic()
        with open(self.log_path, "a") as handle:
            handle.write(f"{start} {end}\n")
        return super().run(workload, policy, replica=replica)


def _most_runs_at_once(log_path):
    edges = []
    for line in log_path.read_text().splitlines():
        start, end = map(float, line.split())
        edges += [(start, 1), (end, -1)]
    live = peak = 0
    for _, step in sorted(edges):  # at a tie, an end sorts first
        live += step
        peak = max(peak, live)
    return peak


class _ExplodingBackend(_ShardableBackend):
    def run(self, workload, policy, *, replica=0):
        if replica == 0:
            raise RuntimeError("backend blew up")
        return super().run(workload, policy, replica=replica)


class TestFingerprint:
    def test_construction_order_irrelevant(self):
        one = combined(stubs=["close", "uname"], fakes=["prctl"])
        other = (
            passthrough()
            .with_feature("prctl", Action.FAKE)
            .with_feature("uname", Action.STUB)
            .with_feature("close", Action.STUB)
        )
        assert one.fingerprint() == other.fingerprint()

    def test_explicit_passthrough_matches_absence(self):
        explicit = passthrough().with_feature("close", Action.PASSTHROUGH)
        assert explicit.fingerprint() == passthrough().fingerprint()
        assert passthrough().fingerprint() == "passthrough"

    def test_action_changes_fingerprint(self):
        assert stubbing("close").fingerprint() != faking("close").fingerprint()
        assert stubbing("close").fingerprint() != stubbing("uname").fingerprint()

    def test_granularities_never_collide(self):
        syscall = stubbing("fcntl")
        subfeature = stubbing("fcntl:F_SETFD")
        pseudo = stubbing("/proc/self")
        prints = {p.fingerprint() for p in (syscall, subfeature, pseudo)}
        assert len(prints) == 3

    def test_shadowing_passthrough_is_significant(self):
        """An explicit PASSTHROUGH overriding a coarser STUB must count."""
        stub_all = stubbing("fcntl")
        carve_out = stub_all.with_feature("fcntl:F_SETFD", Action.PASSTHROUGH)
        assert carve_out.fingerprint() != stub_all.fingerprint()
        assert (
            carve_out.action_for("fcntl", "F_SETFD") is Action.PASSTHROUGH
        )
        proc = stubbing("/proc")
        proc_carved = proc.with_feature("/proc/sys", Action.PASSTHROUGH)
        assert proc_carved.fingerprint() != proc.fingerprint()
        # ...but a PASSTHROUGH with nothing coarser to shadow is inert.
        inert = passthrough().with_feature("fcntl:F_SETFD", Action.PASSTHROUGH)
        assert inert.fingerprint() == passthrough().fingerprint()
        inert_path = passthrough().with_feature("/proc/sys", Action.PASSTHROUGH)
        assert inert_path.fingerprint() == passthrough().fingerprint()

    def test_stable_across_copies(self):
        policy = combined(stubs=["close"], fakes=["uname"])
        rebuilt = InterpositionPolicy(
            syscall_actions=dict(policy.syscall_actions)
        )
        assert policy.fingerprint() == rebuilt.fingerprint()


class TestCacheAccounting:
    def test_repeat_probe_served_from_cache(self):
        backend = _CountingBackend()
        engine = ProbeEngine(cache=True)
        workload = benchmark("b", "m")
        engine.run_replicas(backend, workload, stubbing("close"), 3)
        assert backend.calls == 3
        engine.run_replicas(backend, workload, stubbing("close"), 3)
        assert backend.calls == 3  # all three replicas were cache hits
        stats = engine.stats
        assert stats == EngineStats(
            runs_requested=6, runs_executed=3, cache_hits=3, replicas_skipped=0
        )
        assert stats.hit_rate == pytest.approx(0.5)

    def test_nondeterministic_backend_never_cached(self):
        """Backends not declaring determinism bypass the cache entirely."""

        class _UndeclaredBackend(_CountingBackend):
            deterministic = False

        backend = _UndeclaredBackend()
        engine = ProbeEngine(cache=True)
        workload = benchmark("b", "m")
        for _ in range(2):
            engine.run_replicas(backend, workload, stubbing("close"), 2)
        assert backend.calls == 4
        assert engine.stats.cache_hits == 0
        assert engine.cached_runs() == 0

    def test_cache_disabled_reexecutes(self):
        backend = _CountingBackend()
        engine = ProbeEngine(cache=False)
        workload = benchmark("b", "m")
        for _ in range(2):
            engine.run_replicas(backend, workload, stubbing("close"), 2)
        assert backend.calls == 4
        assert engine.stats.cache_hits == 0

    def test_equivalent_policies_share_entries(self):
        backend = _CountingBackend()
        engine = ProbeEngine(cache=True)
        workload = benchmark("b", "m")
        engine.run_replicas(
            backend, workload, combined(stubs=["close", "uname"]), 1
        )
        rebuilt = (
            passthrough()
            .with_feature("uname", Action.STUB)
            .with_feature("close", Action.STUB)
        )
        engine.run_replicas(backend, workload, rebuilt, 1)
        assert backend.calls == 1

    def test_lru_eviction(self):
        backend = _CountingBackend()
        engine = ProbeEngine(cache=True, cache_size=2)
        workload = benchmark("b", "m")
        for feature in ("close", "uname", "prctl"):
            engine.run_replicas(backend, workload, stubbing(feature), 1)
        assert engine.cached_runs() == 2
        engine.run_replicas(backend, workload, stubbing("close"), 1)  # evicted
        assert backend.calls == 4

    def test_reset_drops_cache_and_stats(self):
        backend = _CountingBackend()
        engine = ProbeEngine(cache=True)
        workload = benchmark("b", "m")
        engine.run_replicas(backend, workload, stubbing("close"), 2)
        engine.reset()
        assert engine.cached_runs() == 0
        assert engine.stats == EngineStats()
        engine.run_replicas(backend, workload, stubbing("close"), 2)
        assert backend.calls == 4

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ProbeEngine(parallel=0)
        with pytest.raises(ValueError):
            ProbeEngine(cache_size=0)
        with pytest.raises(ValueError):
            ProbeEngine().run_replicas(
                _CountingBackend(), benchmark("b", "m"), passthrough(), 0
            )


class TestEarlyExit:
    def test_serial_stops_after_first_failure(self):
        backend = _CountingBackend(failing_features={"close"})
        engine = ProbeEngine(cache=False)
        outcome = engine.run_replicas(
            backend, benchmark("b", "m"), stubbing("close"), 3
        )
        assert not outcome.all_succeeded
        assert backend.calls == 1
        assert engine.stats.replicas_skipped == 2

    def test_serial_early_exit_disabled(self):
        backend = _CountingBackend(failing_features={"close"})
        engine = ProbeEngine(cache=False)
        outcome = engine.run_replicas(
            backend, benchmark("b", "m"), stubbing("close"), 3,
            early_exit=False,
        )
        assert not outcome.all_succeeded
        assert backend.calls == 3
        assert engine.stats.replicas_skipped == 0

    def test_parallel_backend_error_propagates(self):
        """A backend exception ends the probe on both execution paths
        (from a worker process it arrives carrying the probe key)."""
        backend = _ExplodingBackend()
        with ProbeEngine(parallel=3, cache=False, executor="process") \
                as engine:
            assert engine.mode_for(backend) == "process"
            with pytest.raises(ProbeRunError, match="blew up"):
                engine.run_replicas(
                    backend, benchmark("b", "m"), stubbing("close"), 3
                )
            # The engine stays usable for the next probe.
            outcome = engine.run_replicas(
                _ShardableBackend(), benchmark("b", "m"), stubbing("close"),
                3,
            )
            assert outcome.all_succeeded

    def test_parallel_failure_still_conservative(self):
        backend = _ShardableBackend(failing_features={"close"})
        with ProbeEngine(parallel=3, cache=False, executor="process") \
                as engine:
            outcome = engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 3
            )
        assert not outcome.all_succeeded
        assert engine.stats.runs_executed <= 3

    def test_unsafe_backend_forced_serial(self):
        """Backends not declaring parallel_safe never overlap replicas.

        Observable through early-exit accounting: the serial path skips
        the replicas after a failure, the parallel path submits them
        all up front.
        """

        class _UnsafeBackend(_CountingBackend):
            parallel_safe = False

        backend = _UnsafeBackend(failing_features={"close"})
        with ProbeEngine(parallel=3, cache=False) as engine:
            engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 3
            )
        assert backend.calls == 1
        assert engine.stats.replicas_skipped == 2

    def test_run_replicas_function_early_exits(self):
        backend = _CountingBackend(failing_features={"close"})
        outcome = run_replicas(
            backend, benchmark("b", "m"), stubbing("close"), 3
        )
        assert not outcome.all_succeeded
        assert backend.calls == 1
        backend2 = _CountingBackend(failing_features={"close"})
        run_replicas(
            backend2, benchmark("b", "m"), stubbing("close"), 3,
            early_exit=False,
        )
        assert backend2.calls == 3


def _program(ops, name="crafted", features=frozenset({"core"}), profiles=None):
    return SimProgram(
        name=name,
        version="1",
        ops=tuple(ops),
        features=features,
        profiles=profiles or {"*": WorkloadProfile(metric=1000.0)},
    )


def _op(syscall, **kwargs):
    kwargs.setdefault("on_stub", ignore())
    kwargs.setdefault("on_fake", harmless())
    return SyscallOp(syscall=syscall, **kwargs)


def _mixed_program():
    return _program(
        [
            _op("read", on_stub=abort(), on_fake=breaks_core()),
            _op("close", on_stub=ignore(), on_fake=harmless()),
            _op("uname", on_stub=ignore(), on_fake=breaks_core()),
            _op("prctl", on_stub=abort(), on_fake=harmless()),
        ]
    )


def _conflicting_program():
    inner = _op("mmap", on_stub=abort(), on_fake=breaks_core())
    return _program(
        [
            _op("mremap", on_stub=fallback(inner), on_fake=harmless()),
            _op("mmap", on_stub=fallback(
                _op("mremap", on_stub=abort(), on_fake=breaks_core())
            ), on_fake=breaks_core()),
            _op("close", on_stub=ignore(), on_fake=harmless()),
        ]
    )


def _result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestAnalyzerIntegration:
    def _analyze(self, program, workload, **knobs):
        analyzer = Analyzer(AnalyzerConfig(**knobs))
        result = analyzer.analyze(SimBackend(program), workload)
        return result, analyzer.engine.stats

    def test_parallel_matches_serial_analysis(self):
        workload = benchmark("bench", metric_name="req/s")
        serial, _ = self._analyze(
            _mixed_program(), workload,
            parallel=1, cache=False, early_exit=False,
        )
        for knobs in (
            dict(parallel=1, cache=True, early_exit=True),
            dict(parallel=4, cache=True, early_exit=True,
                 executor="process"),
            dict(parallel=4, cache=False, early_exit=False,
                 executor="process"),
        ):
            variant, _ = self._analyze(_mixed_program(), workload, **knobs)
            assert _result_json(variant) == _result_json(serial), knobs

    def test_parallel_matches_serial_on_conflicts(self):
        serial, _ = self._analyze(
            _conflicting_program(), health_check("health"),
            parallel=1, cache=False, early_exit=False,
        )
        parallel, _ = self._analyze(
            _conflicting_program(), health_check("health"),
            parallel=4, cache=True, executor="process",
        )
        assert _result_json(parallel) == _result_json(serial)
        assert parallel.conflicts

    def test_bisection_reuses_probe_runs(self):
        """The confirmation/bisection stages must hit the run cache."""
        result, stats = self._analyze(
            _conflicting_program(), health_check("health"), cache=True
        )
        assert result.final_run_ok
        assert stats.cache_hits > 0
        assert stats.runs_executed < stats.runs_requested

    def test_early_exit_saves_runs(self):
        _, eager = self._analyze(
            _mixed_program(), health_check("health"),
            cache=False, early_exit=True,
        )
        _, full = self._analyze(
            _mixed_program(), health_check("health"),
            cache=False, early_exit=False,
        )
        assert eager.replicas_skipped > 0
        assert eager.runs_executed < full.runs_executed

    def test_baseline_failure_reports_every_replica(self):
        """The baseline never early-exits: all failure reasons surface."""
        from repro.errors import AnalysisError

        class _FlakyBaselineBackend(_CountingBackend):
            def run(self, workload, policy, *, replica=0):
                super().run(workload, policy, replica=replica)
                ok = replica == 0
                return RunResult(
                    success=ok,
                    traced=Counter({"read": 1}),
                    failure_reason=None if ok else f"reason-{replica}",
                )

        with pytest.raises(AnalysisError) as error:
            Analyzer().analyze(
                _FlakyBaselineBackend(), health_check("health")
            )
        assert "reason-1" in str(error.value)
        assert "reason-2" in str(error.value)

    def test_engine_reset_between_analyses(self):
        """Same backend/workload names, different program: no bleed-through."""
        analyzer = Analyzer(AnalyzerConfig(cache=True))
        benign = analyzer.analyze(
            SimBackend(_program([_op("close")])), health_check("health")
        )
        assert benign.features["close"].decision.can_stub
        hostile = analyzer.analyze(
            SimBackend(_program([_op("close", on_stub=abort())])),
            health_check("health"),
        )
        assert not hostile.features["close"].decision.can_stub

    def test_progress_narrates_engine(self):
        events = []
        Analyzer().analyze(
            SimBackend(_mixed_program()), health_check("health"),
            on_event=events.append,
        )
        stats = [e for e in events if e.kind == "engine_stats"]
        assert len(stats) == 1 and stats[0].runs_executed > 0


def _stats_invariant(stats):
    return stats.runs_requested == (
        stats.runs_executed + stats.cache_hits + stats.replicas_skipped
    )


class TestStatsInvariant:
    """Regression pin for the early-exit accounting invariant.

    A future that completes between the failure and the ``cancel()``
    sweep used to be neither counted as skipped nor consistently
    reflected in ``runs_executed``; accounting now charges requests up
    front and balances with whatever was actually obtained, so
    ``requested == executed + hits + skipped`` holds on every executor
    no matter how the cancellation race resolves.
    """

    class _SlowFailingBackend(_ShardableBackend):
        """Replica 0 fails fast; siblings linger, in other chunks,
        while the failure is observed."""

        deterministic = False

        def run(self, workload, policy, *, replica=0):
            import time

            if replica > 0:
                time.sleep(0.002 * replica)
            result = super().run(workload, policy, replica=replica)
            if replica == 0:
                return RunResult(
                    success=False, traced=Counter({"read": 1}),
                    failure_reason="replica 0 fails",
                )
            return result

    def test_parallel_early_exit_race(self):
        for _ in range(3):
            backend = self._SlowFailingBackend()
            with ProbeEngine(parallel=4, cache=False, executor="process") \
                    as engine:
                outcome = engine.run_replicas(
                    backend, benchmark("b", "m"), stubbing("close"), 6
                )
            stats = engine.stats
            assert not outcome.all_succeeded
            assert stats.runs_requested == 6
            assert _stats_invariant(stats), stats
            # Siblings in other chunks already ran: executed, not skipped.
            assert stats.runs_executed == outcome.replica_count

    def test_invariant_across_scenarios(self):
        scenarios = [
            dict(parallel=1, cache=True, early_exit=True),
            dict(parallel=1, cache=False, early_exit=False),
            dict(parallel=4, cache=True, early_exit=True),
            dict(parallel=4, cache=False, early_exit=True),
        ]
        for knobs in scenarios:
            engine = ProbeEngine(
                parallel=knobs["parallel"], cache=knobs["cache"],
                executor="process",
            )
            with engine:
                backend = _ShardableBackend(failing_features={"close"})
                for policy in (stubbing("close"), stubbing("uname"),
                               stubbing("close")):
                    engine.run_replicas(
                        backend, benchmark("b", "m"), policy, 3,
                        early_exit=knobs["early_exit"],
                    )
            assert _stats_invariant(engine.stats), (knobs, engine.stats)

    def test_batch_invariant_with_cached_failures(self):
        backend = _ShardableBackend(failing_features={"close"})
        with ProbeEngine(parallel=4, cache=True, executor="process") \
                as engine:
            policies = [stubbing("close"), stubbing("uname"),
                        stubbing("prctl")]
            engine.run_probe_batch(
                backend, benchmark("b", "m"), policies, 3
            )
            # Second pass: the failure is answered from the cache, so
            # siblings are skipped without ever being submitted.
            engine.run_probe_batch(
                backend, benchmark("b", "m"), policies, 3
            )
        assert _stats_invariant(engine.stats), engine.stats


class TestProbeBatch:
    def test_serial_batch_matches_sequential_runs(self):
        policies = [stubbing("close"), stubbing("uname"), stubbing("prctl")]
        one_by_one = ProbeEngine(cache=False)
        sequential = [
            one_by_one.run_replicas(
                _CountingBackend(), benchmark("b", "m"), policy, 2
            )
            for policy in policies
        ]
        batched_engine = ProbeEngine(cache=False)
        batched = batched_engine.run_probe_batch(
            _CountingBackend(), benchmark("b", "m"), policies, 2
        )
        assert [o.results for o in batched] == [o.results for o in sequential]
        assert one_by_one.stats == batched_engine.stats

    def test_empty_batch(self):
        engine = ProbeEngine()
        assert engine.run_probe_batch(
            _CountingBackend(), benchmark("b", "m"), [], 3
        ) == []
        assert engine.stats == EngineStats()

    def test_parallel_batch_outcomes_in_policy_order(self):
        policies = [stubbing("uname"), stubbing("close"), stubbing("prctl")]
        backend = _ShardableBackend(failing_features={"close"})
        with ProbeEngine(parallel=4, cache=False, executor="process") \
                as engine:
            outcomes = engine.run_probe_batch(
                backend, benchmark("b", "m"), policies, 2
            )
        assert [o.all_succeeded for o in outcomes] == [True, False, True]

    def test_batch_early_exit_is_per_probe(self):
        """One probe's failure must not skip another probe's replicas."""
        policies = [stubbing("close"), stubbing("uname")]
        backend = _ShardableBackend(failing_features={"close"})
        with ProbeEngine(parallel=2, cache=False, executor="process") \
                as engine:
            outcomes = engine.run_probe_batch(
                backend, benchmark("b", "m"), policies, 3
            )
        assert not outcomes[0].all_succeeded
        assert outcomes[1].all_succeeded
        assert outcomes[1].replica_count == 3


def _expected_stats(policies, reference, replicas, *, cache, warm=False):
    """The stats a serial batch must report for the plain-loop
    *reference* outcomes: a repeated policy is an LRU hit (faulted
    replicas are never cached, so they fault again); a warm store
    answers every first occurrence."""
    seen = set()
    executed = hits = persistent = faulted = 0
    for policy, outcome in zip(policies, reference):
        obtained = len(outcome.results)
        faulted += len(outcome.faults)
        if cache and policy.fingerprint() in seen:
            hits += obtained
        elif warm:
            hits += obtained
            persistent += obtained
        else:
            executed += obtained
        seen.add(policy.fingerprint())
    requested = len(policies) * replicas
    return EngineStats(
        runs_requested=requested,
        runs_executed=executed,
        cache_hits=hits,
        replicas_skipped=requested - executed - hits - faulted,
        persistent_hits=persistent,
        faulted=faulted,
    )


def _guarded_loop(backend, workload, policy, replicas, early_exit, guard):
    """The plain replica loop under a fault policy: quarantine a run
    that exhausts its attempts, stop at the first decided failure."""
    results, faults = [], []
    for replica in range(replicas):
        outcome = guarded_run(backend, workload, policy, replica, guard)
        if outcome.faulted:
            faults.append(outcome.fault(workload, policy, replica))
            continue
        results.append(outcome.result)
        if early_exit and not outcome.result.success:
            break
    return aggregate(results, faults=tuple(faults))


def _fault_keys(outcome):
    return [
        (f.workload, f.probe, f.replica, f.kind, f.attempts, f.detail)
        for f in outcome.faults
    ]


class TestSerialPathMatchesPlainLoop:
    """The serial batch path resolves its per-batch facts once and
    accounts once per probe; its outcomes and stats must still be
    those of a plain ``replicas.run_replicas`` loop."""

    #: Every verdict shape of the mixed program, and one repeat so the
    #: LRU has something to answer.
    POLICIES = [
        stubbing("read"), faking("read"), stubbing("close"),
        faking("close"), stubbing("uname"), faking("uname"),
        stubbing("prctl"), faking("prctl"), stubbing("close"),
    ]
    WORKLOAD = benchmark("b", "m")

    def _batch(self, engine, backend, early_exit):
        return engine.run_probe_batch(
            backend, self.WORKLOAD, self.POLICIES, 3, early_exit=early_exit
        )

    @pytest.mark.parametrize("early_exit", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    def test_lru_on_and_off(self, cache, early_exit):
        backend = SimBackend(_mixed_program())
        reference = [
            run_replicas(backend, self.WORKLOAD, policy, 3,
                         early_exit=early_exit)
            for policy in self.POLICIES
        ]
        engine = ProbeEngine(cache=cache)
        assert self._batch(engine, backend, early_exit) == reference
        assert engine.stats == _expected_stats(
            self.POLICIES, reference, 3, cache=cache
        )

    @pytest.mark.parametrize("early_exit", [True, False])
    @pytest.mark.parametrize("name", ["runs.jsonl", "runs.sqlite"])
    def test_store_cold_and_warm(self, tmp_path, name, early_exit):
        backend = SimBackend(_mixed_program())
        reference = [
            run_replicas(backend, self.WORKLOAD, policy, 3,
                         early_exit=early_exit)
            for policy in self.POLICIES
        ]
        for warm in (False, True):
            with open_store(tmp_path / name) as store:
                engine = ProbeEngine(store=store)
                assert self._batch(engine, backend, early_exit) == reference
            assert engine.stats == _expected_stats(
                self.POLICIES, reference, 3, cache=True, warm=warm
            ), warm

    @pytest.mark.parametrize("early_exit", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    def test_seeded_chaos_under_degrade(self, cache, early_exit):
        backend = ChaosBackend(
            SimBackend(_mixed_program()),
            ChaosSpec(seed=11, error_rate=0.3),
        )
        guard = FaultPolicy(
            retries=1, retry_backoff_s=0.0, on_fault="degrade"
        )
        reference = [
            _guarded_loop(backend, self.WORKLOAD, policy, 3, early_exit,
                          guard)
            for policy in self.POLICIES
        ]
        assert any(outcome.faults for outcome in reference)
        engine = ProbeEngine(cache=cache, fault_policy=guard)
        outcomes = self._batch(engine, backend, early_exit)
        assert [o.results for o in outcomes] == [
            o.results for o in reference
        ]
        assert [_fault_keys(o) for o in outcomes] == [
            _fault_keys(o) for o in reference
        ]
        assert engine.stats == _expected_stats(
            self.POLICIES, reference, 3, cache=cache
        )


class _FakeTransport:
    """An in-memory chunk transport: no processes, no sockets.

    Executes each queued job on the calling thread, in submission
    order, unless the script says the worker holding it died (*dies*)
    or every chunk raises (*fails*).
    """

    width = 1

    def __init__(self, dies=lambda chunk: False, fails=None):
        self.dies = dies
        self.fails = fails
        self.chunks = []  # every submitted chunk, as (probe, replica) runs
        self.queue = []
        self.closed = False

    def submit(self, job):
        self.chunks.append([(probe, replica) for probe, replica, _ in job[2]])
        self.queue.append((len(self.chunks), job))
        return len(self.chunks)

    def next_events(self):
        chunk_id, job = self.queue.pop(0)
        if self.fails is not None:
            return [("failed", chunk_id, self.fails)]
        if self.dies(self.chunks[chunk_id - 1]):
            return [("lost", chunk_id, ConnectionError("worker died"))]
        return [("done", chunk_id, _execute_chunk(*job))]

    def close(self):
        self.closed = True


class TestChunkScheduler:
    """The chunk scheduler behind the process executor, driven through
    :class:`_FakeTransport` with scripted worker deaths."""

    POLICIES = [
        stubbing("close"), faking("close"), stubbing("uname"), faking("prctl"),
    ]

    def _run(self, monkeypatch, transport, **knobs):
        engine = ProbeEngine(
            parallel=2, executor="process", cache=False, **knobs
        )
        monkeypatch.setattr(
            engine_module, "_ProcessTransport", lambda width: transport
        )
        outcomes = engine.run_probe_batch(
            SimBackend(_mixed_program()), benchmark("b", "m"),
            self.POLICIES, 3, early_exit=False,
        )
        stats = engine.stats
        assert stats.runs_requested == (
            stats.runs_executed + stats.cache_hits
            + stats.replicas_skipped + stats.faulted
        ), stats
        return outcomes, stats

    def _serial(self):
        return ProbeEngine(cache=False).run_probe_batch(
            SimBackend(_mixed_program()), benchmark("b", "m"),
            self.POLICIES, 3, early_exit=False,
        )

    def test_lost_runs_requeue_as_singleton_chunks(self, monkeypatch):
        first = []

        def dies(chunk):  # the worker holding the first chunk dies once
            if not first:
                first.append(chunk)
                return True
            return False

        notices = []
        transport = _FakeTransport(dies)
        outcomes, stats = self._run(
            monkeypatch, transport, on_notice=notices.append
        )
        lost = transport.chunks[0]
        assert len(lost) > 1
        assert transport.chunks[-len(lost):] == [[run] for run in lost]
        assert [
            n.lost_runs for n in notices if isinstance(n, PoolRecoveredNotice)
        ] == [len(lost)]
        assert stats.faulted == 0
        assert [o.results for o in outcomes] == [
            o.results for o in self._serial()
        ]

    def test_exhausted_budget_quarantines_one_worker_crash(self, monkeypatch):
        poison = (1, 2)  # kills every worker that runs it
        transport = _FakeTransport(lambda chunk: poison in chunk)
        outcomes, stats = self._run(monkeypatch, transport, fault_policy=(
            FaultPolicy(retries=1, retry_backoff_s=0.0, on_fault="degrade")
        ))
        # The first send, then retries + 1 singleton re-sends.
        assert sum(poison in chunk for chunk in transport.chunks) == 3
        assert [
            (fault.kind, fault.replica, fault.attempts)
            for fault in outcomes[1].faults
        ] == [(FAULT_WORKER_CRASH, 2, 3)]
        assert stats.faulted == 1
        serial = self._serial()
        assert outcomes[1].results == serial[1].results[:2]
        for probe in (0, 2, 3):
            assert outcomes[probe].results == serial[probe].results

    def test_exhausted_budget_raises_under_fail(self, monkeypatch):
        transport = _FakeTransport(lambda chunk: (1, 2) in chunk)
        with pytest.raises(ProbeFaultError) as excinfo:
            self._run(monkeypatch, transport, fault_policy=FaultPolicy(
                retries=1, retry_backoff_s=0.0, on_fault="fail",
            ))
        assert excinfo.value.fault.kind == FAULT_WORKER_CRASH
        assert excinfo.value.fault.attempts == 3
        assert transport.closed

    def test_failed_chunk_reraises_its_exception(self, monkeypatch):
        error = ProbeRunError("the backend raised inside the chunk")
        transport = _FakeTransport(fails=error)
        with pytest.raises(ProbeRunError) as excinfo:
            self._run(monkeypatch, transport)
        assert excinfo.value is error
        assert transport.closed


class TestEngineLifecycle:
    def test_reset_refetches_shared_pool_at_current_width(self):
        from repro.core import engine as engine_module

        engine_module.shutdown_worker_pools()
        try:
            engine = ProbeEngine(parallel=2, cache=False, executor="process")
            engine.run_replicas(
                _ShardableBackend(), benchmark("b", "m"), stubbing("close"), 2
            )
            assert engine_module._PROCESS_POOL is not None
            assert engine_module._PROCESS_POOL_WIDTH == 2
            engine.parallel = 4
            engine.reset()
            engine.run_replicas(
                _ShardableBackend(), benchmark("b", "m"), stubbing("close"), 2
            )
            # The widened engine grew the shared pool on re-fetch.
            assert engine_module._PROCESS_POOL_WIDTH == 4
            engine.close()
        finally:
            engine_module.shutdown_worker_pools()

    def test_close_idempotent_and_reusable(self):
        engine = ProbeEngine(parallel=2, cache=False)
        engine.close()
        engine.close()
        outcome = engine.run_replicas(
            _CountingBackend(), benchmark("b", "m"), stubbing("close"), 2
        )
        assert outcome.all_succeeded
        engine.close()

    def test_analyzer_context_manager_closes_engine(self):
        from repro.core import engine as engine_module

        with Analyzer(AnalyzerConfig(parallel=2, executor="process")) \
                as analyzer:
            analyzer.analyze(
                SimBackend(_mixed_program()), health_check("health")
            )
        # close() released the engine without tearing down the shared
        # worker pool — it keeps serving the process's other engines.
        assert engine_module._PROCESS_POOL is not None

    def test_bad_executor_rejected(self):
        with pytest.raises(ValueError):
            ProbeEngine(executor="fibers")
        with pytest.raises(ValueError):
            AnalyzerConfig(executor="fibers")

    def test_executor_name_resolution(self):
        assert ProbeEngine().executor_name == "serial"
        assert ProbeEngine(parallel=4).executor_name == "process"
        assert ProbeEngine(parallel=4, executor="serial").executor_name \
            == "serial"
        assert ProbeEngine(parallel=4, executor="process").executor_name \
            == "process"

    def test_process_pool_shared_across_engines(self):
        """Worker processes are expensive: every engine shares one
        pool, engine.close() leaves it running, and a wider engine
        grows it instead of stacking a second pool."""
        from repro.core import engine as engine_module

        engine_module.shutdown_worker_pools()
        backend = SimBackend(_mixed_program())
        workload = benchmark("b", "m")
        with ProbeEngine(parallel=2, executor="process", cache=False) as one:
            one.run_replicas(backend, workload, stubbing("close"), 2)
            first = engine_module._PROCESS_POOL
        assert first is not None  # close() left the shared pool alone
        with ProbeEngine(parallel=2, executor="process", cache=False) as two:
            two.run_replicas(backend, workload, stubbing("close"), 2)
            assert engine_module._PROCESS_POOL is first
        with ProbeEngine(parallel=4, executor="process", cache=False) as wide:
            wide.run_replicas(backend, workload, stubbing("close"), 4)
            grown = engine_module._PROCESS_POOL
            assert grown is not first
            assert grown._max_workers == 4
        engine_module.shutdown_worker_pools()
        assert engine_module._PROCESS_POOL is None

    def test_parallel_bounds_runs_on_a_wider_shared_pool(self, tmp_path):
        """An engine runs at most ``parallel`` runs at once, even after
        a wider engine has grown the shared pool past its width."""
        policies = [
            stubbing(name) for name in (
                "close", "uname", "prctl", "read",
                "write", "openat", "mmap", "brk",
            )
        ]
        peaks = []
        engine_module.shutdown_worker_pools()
        try:
            for width in (2, 4, 2):
                log = tmp_path / f"batch-{len(peaks)}.log"
                with ProbeEngine(
                    parallel=width, executor="process", cache=False
                ) as engine:
                    engine.run_probe_batch(
                        _IntervalBackend(log), benchmark("b", "m"),
                        policies, 2, early_exit=False,
                    )
                assert engine.stats.runs_executed == 16
                peaks.append(_most_runs_at_once(log))
        finally:
            engine_module.shutdown_worker_pools()
        assert peaks[0] <= 2
        assert peaks[1] <= 4
        assert peaks[2] <= 2, peaks

    def test_shardability_checked_once_per_backend(self, monkeypatch):
        """The pickle round-trip runs once per backend object, not on
        every scheduling call."""
        from repro.core import engine as engine_module

        calls = []
        real = engine_module.process_shardable

        def counting(backend, **kwargs):
            calls.append(backend)
            return real(backend, **kwargs)

        monkeypatch.setattr(engine_module, "process_shardable", counting)
        backend = SimBackend(_mixed_program())
        with ProbeEngine(parallel=2, executor="process", cache=False) as engine:
            for _ in range(3):
                engine.run_replicas(
                    backend, benchmark("b", "m"), stubbing("close"), 2
                )
            assert len(calls) == 1
            engine.reset()
            engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 2
            )
            assert len(calls) == 2  # reset dropped the memoized verdict


class TestStudyParallelism:
    def test_analyze_apps_jobs_match_serial(self):
        from repro.appsim.corpus import seven_apps
        from repro.study.base import analyze_apps, clear_cache

        apps = seven_apps()[:3]
        clear_cache()
        serial = analyze_apps(apps, "bench")
        clear_cache()
        threaded = analyze_apps(apps, "bench", jobs=3, parallel=2)
        clear_cache()
        assert [r.app for r in threaded] == [r.app for r in serial]
        for left, right in zip(serial, threaded):
            assert _result_json(left) == _result_json(right)

    def test_concurrent_analyze_app_single_record(self):
        from repro.appsim.corpus import build
        from repro.study.base import analyze_app, clear_cache, shared_database

        clear_cache()
        app = build("weborf")
        results = []
        errors = []

        def worker():
            try:
                results.append(analyze_app(app, "health"))
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 6
        assert len(shared_database()) == 1
        clear_cache()

    def test_bad_jobs_rejected(self):
        from repro.study.base import analyze_apps

        with pytest.raises(ValueError):
            analyze_apps([], "bench", jobs=0)
