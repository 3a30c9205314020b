"""Tests for the Loupe analysis algorithm on crafted programs.

These programs are built specifically to exercise one analyzer behavior
each: emergent stub/fake decisions, fallback-interaction conflicts and
their automated bisection, metric guarding, replica conservatism, and
the run-time model.
"""

import pytest

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
)
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig, estimated_runtime_s
from repro.core.workload import benchmark, health_check, test_suite
from repro.errors import AnalysisError


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


class TestBasicDecisions:
    def test_verdicts_emerge_from_semantics(self):
        program = _program(
            [
                _op("read", on_stub=abort(), on_fake=breaks_core()),   # required
                _op("close", on_stub=ignore(), on_fake=harmless()),    # any
                _op("uname", on_stub=ignore(), on_fake=breaks_core()), # stub-only
                _op("prctl", on_stub=abort(), on_fake=harmless()),     # fake-only
            ]
        )
        result = Analyzer().analyze(SimBackend(program), health_check("health"))
        assert result.required_syscalls() == {"read"}
        assert result.features["close"].verdict.avoidable
        assert result.features["uname"].decision.can_stub
        assert not result.features["uname"].decision.can_fake
        assert not result.features["prctl"].decision.can_stub
        assert result.features["prctl"].decision.can_fake
        assert result.final_run_ok

    def test_as_failure_fake_follows_stub_path(self):
        """AS_FAILURE models callers that validate results (brk)."""
        program = _program(
            [_op("brk", on_stub=ignore(), on_fake=as_failure())]
        )
        result = Analyzer().analyze(SimBackend(program), health_check("health"))
        # Stub is survivable, and the detected fake takes the same path.
        decision = result.features["brk"].decision
        assert decision.can_stub
        assert decision.can_fake

    def test_fallback_makes_syscall_avoidable(self):
        """The brk->mmap pattern from Section 5.2."""
        mmap_op = _op("mmap", on_stub=abort(), on_fake=breaks_core())
        program = _program(
            [
                _op("brk", on_stub=fallback(mmap_op), on_fake=as_failure()),
                mmap_op,
            ]
        )
        result = Analyzer().analyze(SimBackend(program), health_check("health"))
        assert result.features["brk"].decision.can_stub
        assert result.required_syscalls() == {"mmap"}

    def test_workload_gated_ops_invisible(self):
        program = _program(
            [
                _op("read", on_stub=abort(), on_fake=breaks_core()),
                _op(
                    "fsync",
                    feature="journal",
                    when=frozenset({"journal"}),
                    on_stub=disable("journal"),
                    on_fake=breaks("journal"),
                ),
            ],
            features=frozenset({"core", "journal"}),
        )
        backend = SimBackend(program)
        bench_result = Analyzer().analyze(backend, health_check("health"))
        assert "fsync" not in bench_result.traced_syscalls()
        suite_result = Analyzer().analyze(
            backend, test_suite("suite", features=("core", "journal"))
        )
        assert "fsync" in suite_result.required_syscalls()

    def test_feature_breakage_only_caught_when_exercised(self):
        """The pipe2/persistence pattern: benchmarks miss silent breakage."""
        program = _program(
            [
                _op(
                    "pipe2",
                    feature="persistence",
                    on_stub=disable("persistence"),
                    on_fake=breaks("persistence"),
                )
            ],
            features=frozenset({"core", "persistence"}),
        )
        backend = SimBackend(program)
        bench = Analyzer().analyze(backend, health_check("health"))
        assert bench.features["pipe2"].decision.avoidable
        suite = Analyzer().analyze(
            backend, test_suite("suite", features=("core", "persistence"))
        )
        assert suite.features["pipe2"].decision.required


class _AlwaysFailingBackend:
    """A backend whose application never passes its workload."""

    name = "sim:broken"

    def run(self, workload, policy, *, replica=0):
        from collections import Counter

        from repro.core.runner import RunResult

        return RunResult(
            success=False,
            traced=Counter({"read": 1}),
            failure_reason="synthetic failure",
            exit_code=1,
        )


class TestFailureHandling:
    def test_app_failing_baseline_raises(self):
        with pytest.raises(AnalysisError):
            Analyzer().analyze(_AlwaysFailingBackend(), health_check("health"))


class TestConflictBisection:
    def _conflicting_program(self):
        """Two individually-stubbable syscalls whose stubs conflict.

        ``mremap`` falls back to ``mmap2``-style re-allocation through
        ``mremap``'s fallback op; stubbing the fallback too aborts. Each
        alone is survivable, both together are not — the final combined
        run must catch it (Section 3.1's confirmation run).
        """
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

    def test_combined_conflict_detected_and_demoted(self):
        result = Analyzer().analyze(
            SimBackend(self._conflicting_program()), health_check("health")
        )
        # The analysis must end in a coherent state: final run green.
        assert result.final_run_ok
        assert result.conflicts, "bisection should report a conflict group"
        conflict = set().union(*result.conflicts)
        assert conflict <= {"mremap", "mmap", "close"}
        assert "close" not in conflict, "bisection should minimize"
        demoted = [
            f for f in conflict if result.features[f].decision.required
        ]
        assert demoted, "conflicting features must be demoted to required"

    def test_bisection_disabled(self):
        config = AnalyzerConfig(bisect_conflicts=False)
        result = Analyzer(config).analyze(
            SimBackend(self._conflicting_program()), health_check("health")
        )
        assert not result.final_run_ok


class TestMetricGuarding:
    def _shifting_program(self):
        return _program(
            [
                _op(
                    "rt_sigsuspend",
                    on_stub=ignore(perf_factor=0.62),
                    on_fake=harmless(perf_factor=0.62),
                ),
                _op("close", on_stub=ignore(fd_frac=7.0), on_fake=harmless()),
            ],
            profiles={
                "*": WorkloadProfile(metric=1000.0, fd_peak=50, mem_peak_kb=4096)
            },
        )

    def test_impacts_recorded_but_not_disqualifying(self):
        result = Analyzer().analyze(
            SimBackend(self._shifting_program()),
            benchmark("bench", metric_name="req/s"),
        )
        report = result.features["rt_sigsuspend"]
        assert report.decision.can_stub  # still passes the test script
        assert report.stub_impact is not None
        assert report.stub_impact.perf.significant
        assert report.stub_impact.perf.delta == pytest.approx(-0.38, abs=0.02)
        assert any("shifts metrics" in note for note in report.notes)
        fd_report = result.features["close"]
        assert fd_report.stub_impact.fd.significant

    def test_strict_metrics_disqualify(self):
        config = AnalyzerConfig(strict_metrics=True)
        result = Analyzer(config).analyze(
            SimBackend(self._shifting_program()),
            benchmark("bench", metric_name="req/s"),
        )
        assert not result.features["rt_sigsuspend"].decision.can_stub


class TestReplicaConservatism:
    def test_replicas_recorded(self):
        program = _program([_op("read", on_stub=abort(), on_fake=breaks_core())])
        config = AnalyzerConfig(replicas=5)
        result = Analyzer(config).analyze(
            SimBackend(program), health_check("health")
        )
        assert result.replicas == 5
        assert result.baseline.metric.n == 0 or result.baseline.metric.n == 5


class TestRuntimeModel:
    def test_paper_formula(self):
        """(2 + 2·t·s)·ceil(r/p) with t folded into time units."""
        # 10s workload, 20 syscalls, 3 replicas, serial.
        assert estimated_runtime_s(10, 20, replicas=3, parallel=1) == pytest.approx(
            (2 * 10 + 2 * 10 * 20) * 3
        )

    def test_parallel_replicas_divide(self):
        serial = estimated_runtime_s(10, 20, replicas=3, parallel=1)
        parallel = estimated_runtime_s(10, 20, replicas=3, parallel=3)
        assert parallel == pytest.approx(serial / 3)

    def test_partial_pool_rounds_up(self):
        # ceil(3/2) = 2 waves: a half-empty second wave still costs a wave.
        assert estimated_runtime_s(10, 20, replicas=3, parallel=2) == (
            pytest.approx((2 * 10 + 2 * 10 * 20) * 2)
        )

    def test_excess_parallelism_caps_at_one_wave(self):
        assert estimated_runtime_s(10, 20, replicas=3, parallel=64) == (
            pytest.approx(2 * 10 + 2 * 10 * 20)
        )

    def test_defaults_are_three_serial_replicas(self):
        assert estimated_runtime_s(1.0, 5) == pytest.approx((2 + 2 * 5) * 3)

    def test_nonpositive_parallel_treated_as_serial(self):
        assert estimated_runtime_s(10, 20, replicas=3, parallel=0) == (
            estimated_runtime_s(10, 20, replicas=3, parallel=1)
        )

    def test_zero_features_cost_discovery_and_confirmation_only(self):
        assert estimated_runtime_s(7.0, 0, replicas=1) == pytest.approx(14.0)


class TestConfigValidation:
    def test_bad_replicas(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(replicas=0)

    def test_bad_demotion_rounds(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(max_demotion_rounds=0)


class TestProgressReporting:
    def test_progress_narrates_all_stages(self):
        program = _program(
            [
                _op("read", on_stub=abort(), on_fake=breaks_core()),
                _op("close", on_stub=ignore(), on_fake=harmless()),
            ]
        )
        events = []
        Analyzer().analyze(
            SimBackend(program), health_check("health"),
            on_event=events.append,
        )
        kinds = [event.kind for event in events]
        for kind in (
            "baseline_started", "features_enumerated", "feature_probed",
            "combined_run_finished", "engine_stats", "analysis_finished",
        ):
            assert kind in kinds
        assert "read" in {
            event.feature for event in events if event.kind == "feature_probed"
        }
        combined = [e for e in events if e.kind == "combined_run_finished"]
        assert combined[-1].ok and combined[-1].avoided > 0
