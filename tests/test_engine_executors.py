"""Executor-equivalence tests: sharding never changes conclusions.

The engine's contract is that ``executor="serial"``, ``"process"``
and ``"auto"`` are pure scheduling choices — every one of them must
produce byte-identical :class:`FeatureReport`s (and therefore
identical :class:`Database` payloads) for the same analysis. This
module pins that contract two ways:

* a property test over *generated* simulated programs (hypothesis
  drives op count, stub/fake reactions, and replica counts), and
* an exhaustive sweep over the hand-modeled appsim corpus.

It also covers the capability-fallback ladder: non-parallel-safe
backends serialize, declared-but-unpicklable backends degrade from
processes to serial — and ``"auto"``, which picks processes from the
capability contract alone, before any run, and only for
real-execution backends.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.events import EngineStatsEvent
from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.backend import SimBackend
from repro.appsim.behavior import (
    abort,
    breaks,
    breaks_core,
    disable,
    harmless,
    ignore,
    safe_default,
)
from repro.appsim.corpus import build, seven_apps
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import ProbeEngine
from repro.core.policy import stubbing
from repro.core.runner import BackendCapabilities, process_shardable
from repro.core.workload import benchmark, health_check
from repro.db import Database

#: Syscalls the generated programs draw ops from.
_SYSCALLS = ("read", "close", "uname", "prctl", "mmap", "brk", "fcntl")

_STUBS = (ignore, abort, safe_default, lambda: disable("extra"))
_FAKES = (harmless, breaks_core, lambda: breaks("extra"))


def _digest(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _database_payload(results):
    return json.dumps(
        Database.collect(results).to_document(), sort_keys=True
    )


@st.composite
def _programs(draw):
    count = draw(st.integers(min_value=1, max_value=len(_SYSCALLS)))
    syscalls = draw(st.permutations(_SYSCALLS))[:count]
    ops = tuple(
        SyscallOp(
            syscall=syscall,
            feature="extra" if draw(st.booleans()) else "core",
            on_stub=_STUBS[draw(st.integers(0, len(_STUBS) - 1))](),
            on_fake=_FAKES[draw(st.integers(0, len(_FAKES) - 1))](),
        )
        for syscall in syscalls
    )
    return SimProgram(
        name="generated",
        version="1",
        ops=ops,
        features=frozenset({"core", "extra"}),
        profiles={"*": WorkloadProfile(metric=500.0)},
    )


def _analyze(program, workload, executor, replicas):
    with Analyzer(AnalyzerConfig(
        replicas=replicas,
        parallel=1 if executor == "serial" else 3,
        executor=executor,
    )) as analyzer:
        return analyzer.analyze(SimBackend(program), workload)


class TestExecutorEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(program=_programs(), replicas=st.integers(1, 3),
           measured=st.booleans())
    def test_all_executors_byte_identical(self, program, replicas, measured):
        workload = (
            benchmark("bench", metric_name="req/s")
            if measured else health_check("health")
        )
        reference = _analyze(program, workload, "serial", replicas)
        for executor in ("process", "auto"):
            variant = _analyze(program, workload, executor, replicas)
            assert _digest(variant) == _digest(reference), executor
            for feature, report in reference.features.items():
                assert variant.features[feature] == report


class TestExecutorEquivalenceCorpus:
    @pytest.fixture(scope="class")
    def corpus_reference(self):
        apps = seven_apps()
        results = [
            _analyze_app(app, "serial") for app in apps
        ]
        return apps, results

    def test_process_and_auto_match_serial(self, corpus_reference):
        apps, reference = corpus_reference
        reference_payload = _database_payload(reference)
        for executor in ("process", "auto"):
            results = [_analyze_app(app, executor) for app in apps]
            for left, right in zip(reference, results):
                assert _digest(left) == _digest(right), (left.app, executor)
            assert _database_payload(results) == reference_payload, executor


def _analyze_app(app, executor):
    with Analyzer(AnalyzerConfig(
        parallel=1 if executor == "serial" else 4, executor=executor,
    )) as analyzer:
        return analyzer.analyze(
            app.backend(), app.workload("bench"),
            app=app.name, app_version=app.version,
        )


class TestCapabilityFallback:
    def test_unsafe_backend_serializes_under_process_executor(self):
        """No parallel_safe declaration -> strictly serial, even when
        the engine was asked for processes (observable through
        early-exit skipping every sibling after the first failure)."""

        class _Unsafe:
            name = "sim:unsafe"

            def capabilities(self):
                return BackendCapabilities()

            def __init__(self):
                self.calls = 0

            def run(self, workload, policy, *, replica=0):
                self.calls += 1
                from collections import Counter

                from repro.core.runner import RunResult
                return RunResult(success=False, traced=Counter({"read": 1}),
                                 failure_reason="always fails")

        backend = _Unsafe()
        with ProbeEngine(parallel=4, executor="process") as engine:
            outcome = engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 3,
            )
        assert backend.calls == 1
        assert engine.stats.replicas_skipped == 2
        assert not outcome.all_succeeded

    def test_unpicklable_backend_degrades_to_serial(self):
        """process_safe declared but the object cannot cross a process
        boundary -> serial runs, not a pool crash."""
        program = SimProgram(
            name="local", version="1",
            ops=(SyscallOp(syscall="read", on_stub=ignore(),
                           on_fake=harmless()),),
            profiles={"*": WorkloadProfile(metric=10.0)},
        )

        class _Wrapper:
            def __init__(self, inner):
                self._inner = inner
                self.name = inner.name
                self._poison = lambda: None  # unpicklable on purpose

            def capabilities(self):
                return BackendCapabilities(
                    deterministic=True, parallel_safe=True,
                    process_safe=True,
                )

            def run(self, workload, policy, *, replica=0):
                return self._inner.run(workload, policy, replica=replica)

        backend = _Wrapper(SimBackend(program))
        assert not process_shardable(backend)
        with Analyzer(AnalyzerConfig(parallel=3, executor="process")) \
                as analyzer:
            assert analyzer.engine.mode_for(backend) == "serial"
            result = analyzer.analyze(backend, health_check("health"))
        reference = _analyze(program, health_check("health"), "serial", 3)
        assert _digest(result) == _digest(reference)

    def test_process_shardable_requires_declaration(self):
        class _Unsharded(SimBackend):
            def capabilities(self):
                return dataclasses.replace(
                    super().capabilities(), process_safe=False
                )

        program = SimProgram(
            name="declared", version="1",
            ops=(SyscallOp(syscall="read", on_stub=ignore(),
                           on_fake=harmless()),),
        )
        assert process_shardable(SimBackend(program))
        assert not process_shardable(_Unsharded(program))


class _RealExecution:
    """A picklable stand-in that declares what ``auto`` asks of a
    backend before it shards: real execution, parallel- and
    process-safe."""

    name = "real:double"

    def capabilities(self):
        return BackendCapabilities(
            parallel_safe=True, process_safe=True, real_execution=True,
        )

    def run(self, workload, policy, *, replica=0):
        raise AssertionError("auto decides before any run")


def _observed(app, executor):
    """One analysis of *app*: its report digest, its event stream as
    ``--events jsonl`` lines (the engine_stats event and wall-clock
    durations left out) and its engine_stats event."""
    events = []
    backend = app.backend()
    with Analyzer(AnalyzerConfig(
        parallel=1 if executor == "serial" else 2, executor=executor,
    )) as analyzer:
        result = analyzer.analyze(
            backend, app.workload("bench"),
            app=app.name, app_version=app.version, on_event=events.append,
        )
    lines = [
        json.dumps({
            key: value for key, value in event.to_dict().items()
            if key != "duration_s"
        })
        for event in events if not isinstance(event, EngineStatsEvent)
    ]
    (stats,) = [e for e in events if isinstance(e, EngineStatsEvent)]
    return _digest(result), lines, stats


class TestAutoExecutor:
    def test_auto_rule_is_known_before_any_run(self):
        """At parallel=2, ``auto`` reads the verdict off the capability
        contract: processes for a real-execution backend that can
        shard, serial for the appsim simulation — no run needed."""
        engine = ProbeEngine(parallel=2)
        assert engine.mode_for(_RealExecution()) == "process"
        assert engine.mode_for(build("sqlite").backend()) == "serial"
        assert engine.stats.runs_requested == 0
        assert ProbeEngine(parallel=1).mode_for(_RealExecution()) \
            == "serial"

    def test_auto_on_appsim_matches_serial(self):
        """``auto`` changes nothing on appsim: the report, the event
        stream and the run accounting match a serial analysis."""
        app = build("sqlite")
        digest, lines, stats = _observed(app, "serial")
        auto_digest, auto_lines, auto_stats = _observed(app, "auto")
        assert auto_stats.executor == "serial"
        assert auto_digest == digest
        assert auto_lines == lines
        assert auto_stats == stats

    def test_auto_stays_serial_under_app_concurrency(self):
        """App-level concurrency (``analyze_many(jobs=2)``) leaves the
        verdict alone: every appsim analysis stays serial and executes
        the runs a serial campaign executes."""

        def campaign(jobs, config):
            stats = {}

            def record(event):
                if isinstance(event, EngineStatsEvent):
                    stats[event.app] = event

            session = LoupeSession(config=config, on_event=record)
            session.analyze_many(
                [AnalysisRequest.for_app(app) for app in seven_apps()],
                jobs=jobs,
            )
            return stats

        serial = campaign(1, AnalyzerConfig())
        auto = campaign(2, AnalyzerConfig(parallel=2))
        assert {event.executor for event in auto.values()} == {"serial"}
        assert {app: event.runs_executed for app, event in auto.items()} \
            == {app: event.runs_executed for app, event in serial.items()}
