"""Tests for the simulated process execution semantics."""

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appsim.backend import SimBackend
from repro.appsim.behavior import (
    abort,
    as_failure,
    breaks,
    breaks_core,
    disable,
    fallback,
    harmless,
    ignore,
    safe_default,
)
from repro.appsim.program import Origin, SimProgram, SyscallOp, WorkloadProfile
from repro.appsim.corpus import corpus, seven_apps
from repro.appsim.runtime import (
    _MAX_FALLBACK_DEPTH,
    SimProcess,
    _deterministic_noise,
    _RunState,
)
from repro.core.analyzer import Analyzer
from repro.core.policy import Action, combined, faking, passthrough, stubbing
from repro.core.runner import ResourceUsage, RunResult
from repro.core.workload import SimWorkload, benchmark, health_check, test_suite
from repro.errors import BackendError, WorkloadError


def _program(ops, features=frozenset({"core"}), profiles=None):
    return SimProgram(
        name="rt-demo",
        version="1",
        ops=tuple(ops),
        features=features,
        profiles=profiles
        or {"*": WorkloadProfile(metric=1000.0, fd_peak=20, mem_peak_kb=1000)},
    )


def _op(syscall, **kwargs):
    kwargs.setdefault("on_stub", ignore())
    kwargs.setdefault("on_fake", harmless())
    return SyscallOp(syscall=syscall, **kwargs)


class TestTracing:
    def test_passthrough_traces_everything(self):
        program = _program([_op("read", count=5), _op("write", count=3)])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert run.success
        assert run.traced["read"] == 5
        assert run.traced["write"] == 3

    def test_stubbed_ops_still_traced(self):
        program = _program([_op("uname")])
        run = SimProcess(program).run(health_check("health"), stubbing("uname"))
        assert run.traced["uname"] == 1

    def test_subfeature_tracing(self):
        program = _program([_op("fcntl", subfeature="F_SETFL", count=2)])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert run.traced["fcntl"] == 2
        assert run.traced["fcntl:F_SETFL"] == 2

    def test_pseudofile_tracing(self):
        program = _program([_op("openat", path="/dev/urandom")])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert run.pseudo_files["/dev/urandom"] == 1

    def test_regular_path_not_pseudo(self):
        program = _program([_op("openat", path="/etc/app.conf")])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert not run.pseudo_files


class TestStubSemantics:
    def test_abort_fails_run(self):
        program = _program([_op("socket", on_stub=abort())])
        run = SimProcess(program).run(health_check("health"), stubbing("socket"))
        assert not run.success
        assert "fatal" in run.failure_reason

    def test_abort_stops_execution(self):
        program = _program(
            [_op("socket", on_stub=abort()), _op("write", count=9)]
        )
        run = SimProcess(program).run(health_check("health"), stubbing("socket"))
        assert "write" not in run.traced

    def test_disable_feature_checked_only_when_exercised(self):
        program = _program(
            [_op("pipe2", feature="persistence", on_stub=disable("persistence"))],
            features=frozenset({"core", "persistence"}),
        )
        health = SimProcess(program).run(health_check("health"), stubbing("pipe2"))
        assert health.success
        suite = SimProcess(program).run(
            test_suite("suite", features=("core", "persistence")),
            stubbing("pipe2"),
        )
        assert not suite.success
        assert "persistence" in suite.failure_reason

    def test_fallback_invokes_alternative_through_policy(self):
        mmap_op = _op("mmap", on_stub=abort())
        program = _program([_op("brk", on_stub=fallback(mmap_op))])
        run = SimProcess(program).run(health_check("health"), stubbing("brk"))
        assert run.success
        assert run.traced["mmap"] == 1
        both = SimProcess(program).run(
            health_check("health"), combined(stubs=["brk", "mmap"])
        )
        assert not both.success

    def test_fallback_not_traced_on_passthrough(self):
        mmap_op = _op("mmap", on_stub=abort())
        program = _program([_op("brk", on_stub=fallback(mmap_op))])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert "mmap" not in run.traced

    def test_safe_default_survives(self):
        program = _program([_op("prlimit64", on_stub=safe_default())])
        run = SimProcess(program).run(health_check("health"), stubbing("prlimit64"))
        assert run.success


class TestFakeSemantics:
    def test_harmless_fake(self):
        program = _program([_op("setsid", on_fake=harmless())])
        run = SimProcess(program).run(health_check("health"), faking("setsid"))
        assert run.success

    def test_breaks_core(self):
        program = _program([_op("writev", on_fake=breaks_core())])
        run = SimProcess(program).run(health_check("health"), faking("writev"))
        assert not run.success

    def test_breaks_feature_silently_for_unexercising_workload(self):
        program = _program(
            [_op("pipe2", feature="persistence",
                 on_fake=breaks("persistence"))],
            features=frozenset({"core", "persistence"}),
        )
        bench = SimProcess(program).run(health_check("health"), faking("pipe2"))
        assert bench.success
        suite = SimProcess(program).run(
            test_suite("suite", features=("core", "persistence")),
            faking("pipe2"),
        )
        assert not suite.success

    def test_as_failure_routes_to_stub_reaction(self):
        program = _program([_op("brk", on_stub=abort(), on_fake=as_failure())])
        run = SimProcess(program).run(health_check("health"), faking("brk"))
        assert not run.success


class TestMetrics:
    def test_perf_factors_multiply(self):
        program = _program(
            [
                _op("write", on_stub=ignore(perf_factor=1.15)),
                _op("rt_sigsuspend", on_stub=ignore(perf_factor=0.62)),
            ]
        )
        workload = benchmark("bench", metric_name="req/s")
        base = SimProcess(program).run(workload, passthrough())
        both = SimProcess(program).run(
            workload, combined(stubs=["write", "rt_sigsuspend"])
        )
        assert both.metric == pytest.approx(base.metric * 1.15 * 0.62, rel=0.02)

    def test_resource_fracs_accumulate(self):
        program = _program(
            [
                _op("close", on_stub=ignore(fd_frac=0.5)),
                _op("dup", on_stub=ignore(fd_frac=0.25)),
            ]
        )
        run = SimProcess(program).run(
            health_check("health"), combined(stubs=["close", "dup"])
        )
        assert run.resources.fd_peak == round(20 * 1.75)

    def test_metric_absent_without_performance_workload(self):
        program = _program([_op("read")])
        run = SimProcess(program).run(health_check("health"), passthrough())
        assert run.metric is None

    def test_noise_is_deterministic(self):
        a = _deterministic_noise("app", "bench", "p", "0", scale=0.01)
        b = _deterministic_noise("app", "bench", "p", "0", scale=0.01)
        c = _deterministic_noise("app", "bench", "p", "1", scale=0.01)
        assert a == b
        assert a != c
        assert abs(a) <= 0.01

    def test_replica_noise_bounded(self):
        program = _program([_op("read")])
        workload = benchmark("bench", metric_name="m")
        metrics = [
            SimProcess(program).run(workload, passthrough(), replica=i).metric
            for i in range(5)
        ]
        assert all(abs(m - 1000.0) <= 1000.0 * 0.004 + 1e-6 for m in metrics)
        assert len(set(metrics)) > 1


class TestValidation:
    def test_wrong_workload_type(self):
        from repro.core.workload import CommandWorkload, WorkloadKind

        program = _program([_op("read")])
        command = CommandWorkload(
            name="x", kind=WorkloadKind.HEALTH_CHECK, argv=("/bin/true",)
        )
        with pytest.raises(BackendError):
            SimProcess(program).run(command, passthrough())

    def test_unknown_feature_in_workload(self):
        program = _program([_op("read")])
        with pytest.raises(WorkloadError):
            SimProcess(program).run(
                test_suite("suite", features=("warp-drive",)), passthrough()
            )

    def test_backend_wrapper(self):
        program = _program([_op("read")])
        backend = SimBackend(program)
        assert backend.name == "sim:rt-demo-1"
        run = backend.run(health_check("health"), passthrough())
        assert run.success


class TestLibcOriginOps:
    def test_origin_recorded(self):
        op = _op("read", origin=Origin.LIBC)
        assert op.origin is Origin.LIBC


# -- compiled plans ------------------------------------------------------------


def reference_run(process, workload, policy, *, replica=0):
    """The op-by-op interpreter compiled plans replaced, kept verbatim as
    the reference: every op the workload runs goes through
    ``_execute``, in program order, until an abort."""
    if not isinstance(workload, SimWorkload):
        raise BackendError(
            f"simulation backend needs a SimWorkload, got {type(workload).__name__}"
        )
    exercised = workload.features_exercised
    known = process.program.features | {"core"}
    unknown = exercised - known
    if unknown:
        raise WorkloadError(
            f"workload {workload.name!r} exercises features "
            f"{sorted(unknown)} unknown to {process.program.name}"
        )

    state = _RunState(health={feature: True for feature in known})
    for op in process.program.ops:
        if state.aborted:
            break
        if not _op_runs(op, exercised):
            continue
        process._execute(op, policy, state, depth=0)

    success = not state.aborted and all(
        state.health[feature] for feature in exercised
    )
    failure_reason = None
    if state.aborted:
        failure_reason = state.abort_reason
    elif not success:
        broken = sorted(f for f in exercised if not state.health[f])
        failure_reason = f"broken feature(s): {', '.join(broken)}"

    profile = process.program.profile(workload.name)
    metric = None
    if workload.measures_performance and profile.metric is not None and success:
        noise = _deterministic_noise(
            process.program.name,
            workload.name,
            policy.describe(),
            str(replica),
            scale=profile.noise,
        )
        metric = profile.metric * state.perf_factor * (1.0 + noise)

    resources = ResourceUsage(
        fd_peak=max(0, round(profile.fd_peak * (1.0 + state.fd_frac))),
        mem_peak_kb=max(0, round(profile.mem_peak_kb * (1.0 + state.mem_frac))),
    )
    return RunResult(
        success=success,
        traced=state.traced,
        pseudo_files=state.pseudo_files,
        metric=metric,
        resources=resources,
        exit_code=0 if success else 1,
        failure_reason=failure_reason,
        duration_s=0.0,
    )


def _op_runs(op, exercised):
    when = getattr(op, "when", None)
    if when is None:
        return True
    return bool(when & exercised)


def assert_same_run(actual, expected):
    """Equal results, and equal key order: ``RunResult.to_dict()``
    writes the counters in insertion order into the JSONL run cache."""
    assert actual == expected
    assert list(actual.traced.items()) == list(expected.traced.items())
    assert list(actual.pseudo_files.items()) == list(expected.pseudo_files.items())
    assert actual.to_dict() == expected.to_dict()


_CORPUS = corpus()
#: One process per app for the whole module, so later examples run
#: against plans and trace ranges earlier examples memoized.
_PROCESSES = {app.name: SimProcess(app.program) for app in _CORPUS}


def _probe_features(program):
    """Every feature a policy could usefully name for *program*: its
    syscalls and sub-features (fallback targets included), and each
    pseudo path with every ancestor prefix, with and without the
    trailing slash."""
    features = set()
    pending = list(program.ops)
    while pending:
        op = pending.pop()
        features.add(op.syscall)
        features.add(op.qualified)
        if op.touches_pseudo_file:
            parts = op.path.strip("/").split("/")
            for depth in range(1, len(parts) + 1):
                prefix = "/" + "/".join(parts[:depth])
                features.update((prefix, prefix + "/"))
        if op.on_stub.fallback is not None:
            pending.append(op.on_stub.fallback)
    return sorted(features)


_FEATURES = {app.name: _probe_features(app.program) for app in _CORPUS}
_ACTIONS = (Action.STUB, Action.FAKE, Action.PASSTHROUGH)


def _pick(draw, options):
    """One of *options*. Integer draws keep example generation cheap:
    ``sampled_from`` labels every element it is built over."""
    return options[draw(st.integers(0, len(options) - 1))]


@st.composite
def _campaign_runs(draw):
    app = _pick(draw, _CORPUS)
    workload = app.workloads[_pick(draw, sorted(app.workloads))]
    policy = passthrough()
    for _ in range(draw(st.integers(1, 5))):
        policy = policy.with_feature(
            _pick(draw, _FEATURES[app.name]), _pick(draw, _ACTIONS)
        )
    return app.name, workload, policy, draw(st.integers(0, 2))


class TestCompiledPlans:
    @settings(max_examples=1000, deadline=None)
    @given(_campaign_runs())
    def test_matches_the_op_by_op_interpreter(self, case):
        name, workload, policy, replica = case
        process = _PROCESSES[name]
        assert_same_run(
            process.run(workload, policy, replica=replica),
            reference_run(process, workload, policy, replica=replica),
        )

    def test_passthrough_shadowing_a_coarser_stub(self):
        program = _program(
            [
                _op("fcntl", subfeature="F_GETFL", on_stub=abort()),
                _op("fcntl", subfeature="F_SETFD", on_stub=abort()),
                _op("openat", path="/proc/self/maps", on_stub=abort()),
                _op("openat", path="/proc/cpuinfo", on_stub=abort()),
                _op("write"),
            ]
        )
        policy = (
            stubbing("fcntl")
            .with_feature("fcntl:F_GETFL", Action.PASSTHROUGH)
            .with_feature("fcntl:F_SETFD", Action.PASSTHROUGH)
            .with_feature("/proc", Action.STUB)
            .with_feature("/proc/self", Action.PASSTHROUGH)
        )
        process = SimProcess(program)
        run = process.run(health_check("health"), policy)
        assert run.failure_reason == "fatal: openat failed (treated as fatal)"
        assert list(run.pseudo_files) == ["/proc/self/maps", "/proc/cpuinfo"]
        assert "write" not in run.traced
        assert_same_run(run, reference_run(process, health_check("health"), policy))

    def test_abort_mid_plan_truncates_the_trace(self):
        program = _program(
            [
                _op("read", count=2),
                _op("openat", path="/dev/urandom"),
                _op("socket", on_stub=abort()),
                _op("read", count=5),
                _op("openat", path="/proc/self/stat"),
                _op("write"),
            ]
        )
        process = SimProcess(program)
        for _ in range(2):  # cold, then from the memoized ranges
            run = process.run(health_check("health"), stubbing("socket"))
            assert run.failure_reason == "fatal: socket failed (treated as fatal)"
            assert list(run.traced.items()) == [("read", 2), ("openat", 1), ("socket", 1)]
            assert list(run.pseudo_files.items()) == [("/dev/urandom", 1)]
            assert_same_run(
                run,
                reference_run(process, health_check("health"), stubbing("socket")),
            )

    def test_stubbing_brk_and_mmap_aborts_through_the_fallback(self):
        app = next(app for app in _CORPUS if app.name == "redis")
        process = SimProcess(app.program)
        policy = combined(stubs=["brk", "mmap"])
        run = process.run(app.bench, policy)
        assert not run.success
        assert run.failure_reason == "fatal: mmap failed (treated as fatal)"
        assert_same_run(run, reference_run(process, app.bench, policy))
        alone = process.run(app.bench, stubbing("brk"))
        assert alone.success
        assert_same_run(alone, reference_run(process, app.bench, stubbing("brk")))

    def test_fallback_chain_deeper_than_the_guard(self):
        chain = _op("mmap", on_stub=abort())
        for _ in range(_MAX_FALLBACK_DEPTH + 3):
            chain = _op("mmap", on_stub=fallback(chain))
        program = _program([_op("read"), _op("brk", on_stub=fallback(chain)), _op("write")])
        process = SimProcess(program)
        policy = combined(stubs=["brk", "mmap"])
        run = process.run(health_check("health"), policy)
        assert run.failure_reason == "fallback chain too deep at mmap"
        assert list(run.traced.items()) == [
            ("read", 1), ("brk", 1), ("mmap", _MAX_FALLBACK_DEPTH),
        ]
        assert_same_run(run, reference_run(process, health_check("health"), policy))


class TestValidationWithCachedPlans:
    def test_unknown_feature_raises_before_and_after_a_plan(self):
        process = SimProcess(_program([_op("read")]))
        bad = test_suite("suite", features=("warp-drive",))
        with pytest.raises(WorkloadError, match="warp-drive") as first:
            process.run(bad, passthrough())
        assert process.run(health_check("health"), passthrough()).success
        with pytest.raises(WorkloadError) as again:
            process.run(bad, passthrough())
        assert str(again.value) == str(first.value)

    def test_wrong_workload_type_raises_before_and_after_a_plan(self):
        from repro.core.workload import CommandWorkload, WorkloadKind

        process = SimProcess(_program([_op("read")]))
        command = CommandWorkload(
            name="x", kind=WorkloadKind.HEALTH_CHECK, argv=("/bin/true",)
        )
        with pytest.raises(BackendError) as first:
            process.run(command, passthrough())
        assert process.run(health_check("health"), passthrough()).success
        with pytest.raises(BackendError) as again:
            process.run(command, passthrough())
        assert str(again.value) == str(first.value)


class TestPlanMemoBoundaries:
    def test_pickled_backend_does_not_carry_the_memo(self):
        app = next(app for app in _CORPUS if app.name == "nginx")
        backend = SimBackend(app.program)
        cold = len(pickle.dumps(backend))
        result = Analyzer().analyze(backend, app.bench)
        assert result.final_run_ok and result.features
        assert backend._process._plans and backend._process._walk[0] is not None
        assert len(pickle.dumps(backend)) == cold
        clone = pickle.loads(pickle.dumps(backend))
        assert not clone._process._plans and clone._process._walk == (None,)
        assert_same_run(
            clone.run(app.bench, passthrough()), backend.run(app.bench, passthrough())
        )

    def test_threads_filling_a_cold_memo_agree_with_serial(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the memo fills finely
        try:
            for app in seven_apps():
                self._race_one_backend(app)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _race_one_backend(app):
        baseline = SimBackend(app.program).run(app.bench, passthrough())
        policies = [passthrough(), combined(stubs=["brk", "mmap"])]
        for feature in sorted(baseline.features(subfeature_level=True)):
            policies += [stubbing(feature), faking(feature)]
        # Three replicas per probe: the threads keep replacing each
        # other's one-entry walk memo between the replicas of a probe.
        runs = [(p, replica) for p in policies for replica in range(3)]
        reference = SimProcess(app.program)
        serial = [
            reference_run(reference, app.bench, p, replica=replica)
            for p, replica in runs
        ]
        shared = SimBackend(app.program)
        barrier = threading.Barrier(4, timeout=30)

        def worker():
            barrier.wait()
            return [shared.run(app.bench, p, replica=replica) for p, replica in runs]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = [pool.submit(worker) for _ in range(4)]
            for outcome in outcomes:
                for actual, expected in zip(outcome.result(timeout=60), serial, strict=True):
                    assert_same_run(actual, expected)


class TestReplicaMemo:
    """Back-to-back replicas of one probe share one walk. Every run must
    still equal a fresh process's, whatever order the runs come in."""

    @staticmethod
    def _replay(program, runs):
        """Run each ``(workload, policy, replica)`` of *runs* on one
        shared process and on a fresh one; return the shared process's
        results, which share no counter, and how many walks it made."""
        shared = SimProcess(program)
        walks = []
        evaluate = shared._evaluate
        shared._evaluate = lambda plan, policy: walks.append(policy) or evaluate(plan, policy)
        results = []
        for workload, policy, replica in runs:
            run = shared.run(workload, policy, replica=replica)
            assert_same_run(run, SimProcess(program).run(workload, policy, replica=replica))
            results.append(run)
        counters = [id(c) for run in results for c in (run.traced, run.pseudo_files)]
        assert len(set(counters)) == len(counters)
        return results, len(walks)

    def test_interleaved_probes(self):
        app = next(app for app in _CORPUS if app.name == "redis")
        a, b = stubbing("getpid"), faking("brk")
        runs = [(app.bench, a, 0), (app.bench, a, 1), (app.bench, b, 0),
                (app.bench, a, 2), (app.bench, b, 1)]
        results, walks = self._replay(app.program, runs)
        assert walks == 4  # A0 A1 share a walk; B0, A2 and B1 each make one
        assert len({run.metric for run in results}) == len(results)

    def test_workloads_of_one_program(self):
        app = next(app for app in _CORPUS if app.name == "app-000")
        bench, suite, health = (app.workloads[name] for name in ("bench", "suite", "health"))
        assert bench.features_exercised != suite.features_exercised
        assert bench.features_exercised == health.features_exercised
        policy = stubbing("getpid")
        runs = [(bench, policy, 0), (suite, policy, 0), (bench, policy, 1),
                (health, policy, 0), (suite, policy, 1), (suite, policy, 2)]
        results, walks = self._replay(app.program, runs)
        # The suite runs ops the bench does not; the health check shares
        # the bench's walk but keeps its own profile.
        assert walks == 4
        assert results[0].traced != results[1].traced
        assert results[3].traced == results[2].traced
        assert results[3].resources != results[2].resources

    def test_distinct_but_equal_policies(self):
        app = next(app for app in _CORPUS if app.name == "nginx")
        policies = [
            stubbing("getpid"),
            passthrough().with_feature("getpid", Action.STUB),
            stubbing("getpid").with_feature("write", Action.PASSTHROUGH),
        ]
        assert len({policy.fingerprint() for policy in policies}) == 1
        runs = [(app.bench, policy, replica)
                for replica in range(2) for policy in policies]
        _, walks = self._replay(app.program, runs)
        assert walks == 1

    def test_shadowing_passthrough_is_another_walk(self):
        program = _program(
            [
                _op("fcntl", subfeature="F_GETFL", on_stub=abort()),
                _op("fcntl", subfeature="F_SETFD"),
                _op("write"),
            ]
        )
        coarse = stubbing("fcntl")
        shadowed = coarse.with_feature("fcntl:F_GETFL", Action.PASSTHROUGH)
        assert coarse.fingerprint() != shadowed.fingerprint()
        workload = benchmark("bench", metric_name="ops/s")
        runs = [(workload, coarse, 0), (workload, shadowed, 0),
                (workload, coarse, 1), (workload, shadowed, 1)]
        results, walks = self._replay(program, runs)
        assert walks == 4
        assert [run.success for run in results] == [False, True, False, True]
