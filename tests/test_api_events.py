"""Tests for the typed analysis event stream."""

import dataclasses
import json

import pytest

from repro.api.events import (
    SCHEMA_VERSION,
    AnalysisCancelled,
    AnalysisEvent,
    AnalysisFinished,
    AnalysisStarted,
    BaselineStarted,
    CombinedRunFinished,
    ConflictBisected,
    CrossValidationReady,
    EngineStatsEvent,
    FaultsSummary,
    FeatureProbed,
    FeaturesEnumerated,
    PoolRecovered,
    ProbeFaulted,
    ProbeRetry,
    StoreStatsEvent,
    TargetFinished,
    TargetStarted,
    combine_callbacks,
    envelope,
)
from repro.appsim.backend import SimBackend
from repro.appsim.behavior import (
    abort,
    breaks_core,
    fallback,
    harmless,
    ignore,
)
from repro.appsim.program import SimProgram, SyscallOp, WorkloadProfile
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.engine import EngineStats
from repro.core.workload import health_check


def _program(ops, name="crafted"):
    return SimProgram(
        name=name,
        version="1",
        ops=tuple(ops),
        profiles={"*": WorkloadProfile(metric=1000.0)},
    )


def _op(syscall, **kwargs):
    kwargs.setdefault("on_stub", ignore())
    kwargs.setdefault("on_fake", harmless())
    return SyscallOp(syscall=syscall, **kwargs)


def _analyze_collecting(program, **config_kwargs):
    events = []
    result = Analyzer(AnalyzerConfig(**config_kwargs) if config_kwargs else None).analyze(
        SimBackend(program), health_check("health"),
        on_event=events.append,
    )
    return result, events


class TestEventStream:
    def test_event_ordering(self):
        _, events = _analyze_collecting(
            _program([_op("read"), _op("close")])
        )
        kinds = [event.kind for event in events]
        assert kinds[0] == "analysis_started"
        assert kinds[1] == "baseline_started"
        assert kinds[2] == "features_enumerated"
        assert kinds.count("feature_probed") == 2
        assert kinds[-3] == "combined_run_finished"
        assert kinds[-2] == "engine_stats"
        assert kinds[-1] == "analysis_finished"
        # probes strictly between enumeration and the combined run
        assert kinds[3:5] == ["feature_probed", "feature_probed"]

    def test_events_carry_structured_payloads(self):
        result, events = _analyze_collecting(
            _program([_op("read"), _op("close")])
        )
        started = events[0]
        assert isinstance(started, AnalysisStarted)
        assert started.app == result.app
        assert started.workload == "health"
        assert started.backend == result.backend
        enumerated = events[2]
        assert isinstance(enumerated, FeaturesEnumerated)
        assert enumerated.count == len(enumerated.features)
        assert set(enumerated.features) == set(result.features)
        probed = {e.feature: e for e in events if isinstance(e, FeatureProbed)}
        for name, report in result.features.items():
            assert probed[name].can_stub == report.decision.can_stub
            assert probed[name].can_fake == report.decision.can_fake

    def test_every_event_carries_the_app_identity(self):
        # Attribution under analyze_many(jobs>1): concurrent analyses
        # interleave on one callback, so each event must name its app.
        result, events = _analyze_collecting(
            _program([_op("read"), _op("close")])
        )
        assert all(event.app == result.app for event in events)

    def test_conflict_bisected_event(self):
        # mremap falls back to mmap: each alone is avoidable, together
        # they conflict — the bisection event must name the culprits.
        inner = SyscallOp(syscall="mmap", on_stub=abort(), on_fake=breaks_core())
        program = _program(
            [
                SyscallOp(syscall="mremap", on_stub=fallback(inner),
                          on_fake=harmless()),
                SyscallOp(
                    syscall="mmap",
                    on_stub=fallback(
                        SyscallOp(syscall="mremap", on_stub=abort(),
                                  on_fake=breaks_core())
                    ),
                    on_fake=breaks_core(),
                ),
                _op("close"),
            ],
            name="conflicting",
        )
        result, events = _analyze_collecting(program)
        bisections = [e for e in events if isinstance(e, ConflictBisected)]
        assert bisections, "expected at least one bisection event"
        assert all(e.conflict for e in bisections)
        assert {f for e in bisections for f in e.conflict} <= set(result.features)
        failed = [
            e for e in events
            if isinstance(e, CombinedRunFinished) and not e.ok
        ]
        assert failed and failed[0].round == 1

    def test_json_round_trip(self):
        _, events = _analyze_collecting(_program([_op("read")]))
        for event in events:
            payload = json.loads(json.dumps(event.to_dict()))
            assert payload["event"] == event.kind
            assert "kind" not in payload  # ClassVar must not leak

    def test_untagged_backend_omitted_from_json(self):
        """Single-target campaigns never stamp a backend tag, and the
        empty tag must not leak into their JSON stream (which stays
        byte-identical to the pre-fan-out format)."""
        _, events = _analyze_collecting(_program([_op("read")]))
        for event in events:
            payload = event.to_dict()
            if isinstance(event, AnalysisStarted):
                # AnalysisStarted's backend is the execution identity,
                # present since the event stream was born.
                assert payload["backend"].startswith("sim:")
            else:
                assert "backend" not in payload

    def test_tag_backend_stamps_every_leg_event(self):
        """Within a fan-out leg the registry name wins everywhere —
        including AnalysisStarted, whose execution identity could
        collide across registry variants and leave concurrent legs
        unattributable."""
        from repro.api.events import tag_backend

        seen = []
        emit = tag_backend(seen.append, "appsim-b")
        emit(BaselineStarted(replicas=2))
        emit(AnalysisStarted(app="a", workload="w", backend="sim:a-1",
                             replicas=3))
        assert seen[0].backend == "appsim-b"
        assert seen[0].to_dict()["backend"] == "appsim-b"
        assert seen[1].backend == "appsim-b"


class TestLegacyAdapter:
    def test_engine_stats_event_carries_executor_and_persistence(self):
        stats = EngineStats(
            runs_requested=4, runs_executed=1, cache_hits=3,
            replicas_skipped=0, persistent_hits=2,
        )
        event = EngineStatsEvent.from_stats(stats, executor="process")
        assert event.stats() == stats
        document = event.to_dict()
        assert document["executor"] == "process"
        assert document["persistent_hits"] == 2

    def test_serial_probing_streams_feature_events(self):
        """At parallel=1 each FeatureProbed must fire before the next
        feature's probes run — the historical streaming behavior, not
        one burst after the whole probe phase."""
        program = _program([_op("close"), _op("uname"), _op("prctl")])
        backend = SimBackend(program)
        timeline = []
        original_run = backend.run

        def tracing_run(workload, policy, *, replica=0):
            altered = sorted(policy.altered_features())
            timeline.append(("run", altered[0] if altered else "baseline"))
            return original_run(workload, policy, replica=replica)

        backend.run = tracing_run
        Analyzer().analyze(
            backend, health_check("health"),
            on_event=lambda event: timeline.append(("event", event)),
        )
        probed_positions = {
            event.feature: index
            for index, (kind, event) in enumerate(timeline)
            if kind == "event" and isinstance(event, FeatureProbed)
        }
        def first_run(feature):
            return min(
                index for index, (kind, what) in enumerate(timeline)
                if kind == "run" and what == feature
            )

        # Features probe in sorted order (close, prctl, uname): each
        # verdict was announced before the next feature's probes
        # started executing.
        assert probed_positions["close"] < first_run("prctl")
        assert probed_positions["prctl"] < first_run("uname")

    def test_analysis_reports_resolved_executor(self):
        _, events = _analyze_collecting(
            _program([_op("close")]), parallel=2, executor="process"
        )
        stats_events = [
            e for e in events if isinstance(e, EngineStatsEvent)
        ]
        assert len(stats_events) == 1
        assert stats_events[0].executor == "process"


class TestCombineCallbacks:
    def test_none_when_empty(self):
        assert combine_callbacks() is None
        assert combine_callbacks(None, None) is None

    def test_single_callback_passthrough(self):
        marker = lambda event: None
        assert combine_callbacks(None, marker, None) is marker

    def test_fan_out(self):
        first, second = [], []
        emit = combine_callbacks(first.append, None, second.append)
        event = BaselineStarted(replicas=1)
        emit(event)
        assert first == [event]
        assert second == [event]


class TestEnvelope:
    """The campaign server's versioned event envelope."""

    def test_envelope_prefixes_schema_version(self):
        from repro.api.events import SCHEMA_VERSION, envelope

        event = AnalysisStarted(app="a", workload="w", backend="b", replicas=3)
        document = envelope(event)
        assert document["schema_version"] == SCHEMA_VERSION == 1
        assert list(document)[0] == "schema_version"

    def test_stripping_the_envelope_restores_the_legacy_bytes(self):
        from repro.api.events import envelope

        event = FeatureProbed(
            feature="close", can_stub=False, can_fake=False,
            traced_count=2, app="a",
        )
        bare_line = json.dumps(event.to_dict())
        wrapped = json.loads(json.dumps(envelope(event)))
        wrapped.pop("schema_version")
        assert json.dumps(wrapped) == bare_line

    def test_schema_version_override(self):
        from repro.api.events import envelope

        document = envelope(BaselineStarted(replicas=1), schema_version=7)
        assert document["schema_version"] == 7

    def test_legacy_stream_has_no_schema_version(self):
        """--events jsonl consumers must keep seeing the exact
        pre-envelope event documents."""
        _, events = _analyze_collecting(_program([_op("close")]))
        for event in events:
            assert "schema_version" not in event.to_dict()

    def test_cancelled_event_shape(self):
        from repro.api.events import AnalysisCancelled

        event = AnalysisCancelled(duration_s=1.5, reason="signal", app="x")
        document = event.to_dict()
        assert document["event"] == "analysis_cancelled"
        assert document["reason"] == "signal"


def _every_event_class(base=AnalysisEvent):
    for cls in base.__subclasses__():
        yield cls
        yield from _every_event_class(cls)


def _asdict_form(event):
    """The ``dataclasses.asdict``-based JSON form ``to_dict`` replaced:
    a deep copy, with the empty-``backend`` and zero-``faulted``
    omissions."""
    data = dataclasses.asdict(event)
    if data.get("backend", None) == "":
        del data["backend"]
    if isinstance(event, EngineStatsEvent) and data.get("faulted", 0) == 0:
        data.pop("faulted", None)
    return {"event": event.kind, **data}


_FAULT = {"kind": "timeout", "probe": "getpid=stub", "replica": 0,
          "attempts": 2, "detail": "timed out after 0.2s"}

#: At least one instance of every concrete event, each field set to a
#: value of its kind: scalars, tuples, plain dicts, and both sides of
#: the ``backend``/``faulted`` omissions.
_SAMPLES = (
    AnalysisStarted(app="redis", workload="bench", backend="", replicas=3),
    AnalysisStarted(app="redis", workload="bench", backend="appsim",
                    replicas=3),
    BaselineStarted(replicas=3, app="redis"),
    FeaturesEnumerated(count=2, features=("read", "write"), app="redis",
                       backend="ptrace"),
    FeatureProbed(feature="getpid", can_stub=True, can_fake=False,
                  traced_count=7, app="redis"),
    CombinedRunFinished(ok=False, avoided=4, round=2, app="redis"),
    ConflictBisected(round=1, conflict=("mremap", "mmap"), app="redis"),
    ProbeRetry(workload="bench", probe="getpid=stub", replica=1, attempt=1,
               fault="timeout", detail="slow", app="redis"),
    ProbeFaulted(workload="bench", probe="getpid=stub", replica=1,
                 fault="timeout", attempts=2, app="redis", backend="appsim"),
    PoolRecovered(lost_runs=3, rebuilds=2, app="redis"),
    FaultsSummary(total=1, kinds={"timeout": 1}, faults=(_FAULT,),
                  app="redis"),
    EngineStatsEvent(runs_requested=10, runs_executed=8, cache_hits=2,
                     replicas_skipped=0, app="redis"),
    EngineStatsEvent(runs_requested=10, runs_executed=7, cache_hits=2,
                     replicas_skipped=0, app="redis", persistent_hits=1,
                     executor="process", backend="appsim", faulted=1),
    StoreStatsEvent(store="sqlite", path="runs.sqlite", entries=5,
                    loaded_records=5, file_bytes=4096, max_entries=None,
                    app="redis"),
    StoreStatsEvent(store="jsonl", path="runs.jsonl", entries=5,
                    stale_records=2, max_entries=100, evictions=1,
                    app="redis", backend="appsim"),
    AnalysisFinished(duration_s=1.25, app="redis"),
    AnalysisCancelled(duration_s=0.5, reason="signal", app="redis"),
    TargetStarted(backend="appsim", index=0, total=2, app="redis"),
    TargetFinished(backend="static", ok=True, duration_s=0.01, app="redis"),
    CrossValidationReady(
        report={"targets": ["appsim", "static"],
                "divergences": [{"syscall": "read", "kinds": {"a": 1}}]},
        app="redis",
    ),
)


class TestShallowToDict:
    def test_samples_cover_every_concrete_event(self):
        assert {type(event) for event in _SAMPLES} == set(
            _every_event_class()
        )

    @pytest.mark.parametrize(
        "event", _SAMPLES, ids=lambda event: type(event).__name__
    )
    def test_json_bytes_match_the_asdict_form(self, event):
        assert json.dumps(event.to_dict()) == json.dumps(_asdict_form(event))
        assert json.dumps(envelope(event)) == json.dumps(
            {"schema_version": SCHEMA_VERSION, **_asdict_form(event)}
        )

    def test_omissions_hold(self):
        untagged = EngineStatsEvent(
            runs_requested=1, runs_executed=1, cache_hits=0,
            replicas_skipped=0, app="redis",
        ).to_dict()
        assert "backend" not in untagged and "faulted" not in untagged
        tagged = dataclasses.replace(
            _SAMPLES[0], backend="appsim"
        ).to_dict()
        assert tagged["backend"] == "appsim"
        assert list(tagged)[0] == "event"
