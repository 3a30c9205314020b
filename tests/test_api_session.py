"""Tests for the LoupeSession campaign API (and the study wrappers on it)."""

import threading

import pytest

from repro.api.events import AnalysisEvent, FeatureProbed
from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.backend import SimBackend
from repro.appsim.corpus import build
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.db import Database, RecordKey
from repro.errors import PlanError


class _CountingBackend:
    """Counts runs; declares the sim contract so caching works."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.runs = 0
        self._lock = threading.Lock()

    def capabilities(self):
        from repro.core.runner import BackendCapabilities

        return BackendCapabilities(deterministic=True, parallel_safe=True)

    def run(self, workload, policy, *, replica=0):
        with self._lock:
            self.runs += 1
        return self._inner.run(workload, policy, replica=replica)


def _counting_request(app_name="weborf", workload="health"):
    app = build(app_name)
    backend = _CountingBackend(SimBackend(app.program))
    request = AnalysisRequest.for_target(
        backend, app.workload(workload),
        app=app.name, app_version=app.version,
    )
    return request, backend


class TestAnalyze:
    def test_analyze_by_app_name(self):
        session = LoupeSession()
        result = session.analyze("redis")
        assert result.app == "redis"
        assert result.workload == "bench"
        assert len(session.database) == 1
        assert session.last_engine_stats is not None
        assert session.last_engine_stats.runs_executed > 0

    def test_analyze_by_request_and_workload_override(self):
        session = LoupeSession()
        result = session.analyze(
            AnalysisRequest(app="weborf"), workload="health"
        )
        assert result.workload == "health"

    def test_workload_override_on_resolved_request_rejected(self):
        request = AnalysisRequest.for_app(build("weborf"), "bench")
        with pytest.raises(ValueError, match="already resolved"):
            LoupeSession().analyze(request, workload="health")
        # a matching override is harmless
        result = LoupeSession().analyze(request, workload="bench")
        assert result.workload == "bench"

    def test_analyze_app_model(self):
        session = LoupeSession()
        result = session.analyze(build("weborf"), workload="health")
        assert result.app == "weborf"
        assert result.app_version

    def test_unintelligible_request_rejected(self):
        with pytest.raises(TypeError, match="analysis request"):
            LoupeSession().analyze(42)

    def test_memoization_returns_canonical_record(self):
        session = LoupeSession()
        request, backend = _counting_request()
        first = session.analyze(request)
        runs_after_first = backend.runs
        second = session.analyze(request)
        assert second is first
        assert backend.runs == runs_after_first  # cache hit: no new runs

    def test_use_cache_false_reruns_and_replaces(self):
        session = LoupeSession()
        request, backend = _counting_request()
        session.analyze(request)
        runs_after_first = backend.runs
        session.analyze(request, use_cache=False)
        assert backend.runs == 2 * runs_after_first
        assert len(session.database) == 1

    def test_config_override_per_call(self):
        session = LoupeSession()
        result = session.analyze(
            "weborf", workload="health",
            config=AnalyzerConfig(replicas=1), use_cache=False,
        )
        assert result.replicas == 1

    def test_semantic_config_change_bypasses_cache(self):
        # replicas changes what an analysis records; a cached 3-replica
        # record must not answer a 5-replica request.
        session = LoupeSession()
        request, backend = _counting_request()
        session.analyze(request)
        runs_after_first = backend.runs
        result = session.analyze(request, config=AnalyzerConfig(replicas=5))
        assert result.replicas == 5
        assert backend.runs > runs_after_first
        assert len(session.database) == 1  # newest record replaced the old

    def test_engine_knob_change_still_hits_cache(self):
        session = LoupeSession()
        request, backend = _counting_request()
        first = session.analyze(request)
        runs_after_first = backend.runs
        second = session.analyze(
            request, config=AnalyzerConfig(parallel=4, cache=False)
        )
        assert second is first
        assert backend.runs == runs_after_first

    def test_cache_hit_leaves_last_stats_untouched(self):
        session = LoupeSession()
        request, _ = _counting_request()
        session.analyze(request)
        stats = session.last_engine_stats
        session.analyze(request)
        assert session.last_engine_stats is stats

    def test_matches_direct_analyzer(self):
        """The session adds memoization, never different conclusions."""
        app = build("weborf")
        direct = Analyzer().analyze(
            app.backend(), app.workload("health"),
            app=app.name, app_version=app.version,
        )
        via_session = LoupeSession().analyze(app, workload="health")
        assert via_session == direct


class TestAnalyzeMany:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            LoupeSession().analyze_many([], jobs=0)

    def test_parallel_matches_serial_in_request_order(self):
        names = ["weborf", "iperf3", "memcached"]
        serial = LoupeSession().analyze_many(
            [AnalysisRequest(app=name, workload="health") for name in names]
        )
        parallel = LoupeSession().analyze_many(
            [AnalysisRequest(app=name, workload="health") for name in names],
            jobs=4,
        )
        assert [r.app for r in serial] == names
        assert parallel == serial

    def test_concurrent_duplicates_keep_one_canonical_record(self):
        session = LoupeSession()
        requests = [
            AnalysisRequest(app="weborf", workload="health")
            for _ in range(6)
        ]
        results = session.analyze_many(requests, jobs=4)
        assert len(session.database) == 1
        canonical = session.query("weborf")[0]
        assert all(result == canonical for result in results)


class TestMultiTargetFanOut:
    """One campaign addressed at several execution targets."""

    def test_multi_backend_request_returns_report(self):
        from repro.report import CrossValidationReport

        session = LoupeSession()
        report = session.analyze(AnalysisRequest(
            app="weborf", workload="health", backend="appsim,appsim"
        ))
        assert isinstance(report, CrossValidationReport)
        assert report.app == "weborf"
        assert report.workload == "health"
        assert report.divergences == ()
        # Duplicates deduplicate: one target, one loupedb record.
        assert report.targets == ("appsim",)
        assert len(session.database) == 1

    def test_single_backend_request_still_returns_result(self):
        from repro.core.result import AnalysisResult

        result = LoupeSession().analyze(AnalysisRequest(
            app="weborf", workload="health", backend="appsim"
        ))
        assert isinstance(result, AnalysisResult)

    def test_backends_tuple_with_one_entry_is_single_target(self):
        from repro.core.result import AnalysisResult

        result = LoupeSession().analyze(AnalysisRequest(
            app="weborf", workload="health", backends=("appsim",)
        ))
        assert isinstance(result, AnalysisResult)

    def test_backends_as_plain_string_not_iterated_charwise(self):
        """Regression: backends='appsim' (a natural misuse) must mean
        one backend named appsim, not six one-character backends."""
        from repro.core.result import AnalysisResult

        request = AnalysisRequest(
            app="weborf", workload="health", backends="appsim"
        )
        assert request.backend_names() == ("appsim",)
        assert not request.is_multi_target()
        result = LoupeSession().analyze(request)
        assert isinstance(result, AnalysisResult)
        multi = AnalysisRequest(
            app="weborf", workload="health", backends="appsim,appsim"
        )
        assert multi.is_multi_target()

    def test_fan_out_matches_single_backend_results(self):
        """Fanning out never changes what each target concludes."""
        import repro.appsim as appsim
        from repro.api.registry import register_backend, unregister_backend

        register_backend(
            "appsim-twin", appsim._appsim_backend_factory, replace=True
        )
        try:
            single = LoupeSession().analyze(AnalysisRequest(
                app="weborf", workload="health"
            ))
            session = LoupeSession()
            report = session.analyze(AnalysisRequest(
                app="weborf", workload="health",
                backends=("appsim", "appsim-twin"),
            ))
            assert report.targets == ("appsim", "appsim-twin")
            assert report.agrees
            [record] = session.query("weborf")
            assert record == single
        finally:
            unregister_backend("appsim-twin")

    def test_colliding_identity_legs_run_independently(self):
        """Regression: a comparison must compare runs, not memoized
        copies. A variant backend sharing another target's loupedb
        identity (same backend.name) used to be memo-served from the
        first leg's record and trivially 'agree'; now every colliding
        leg executes fresh, so a behaviorally-divergent variant is
        exposed."""
        import dataclasses as dc

        import repro.appsim as appsim
        from repro.api.registry import (
            ResolvedTarget,
            register_backend,
            unregister_backend,
        )
        from repro.report import MISSING_IN_SIM

        runs = {"variant": 0}

        def variant_factory(request):
            target = appsim._appsim_backend_factory(request)
            inner = target.backend

            class Hiding:
                name = inner.name  # deliberately colliding identity

                def capabilities(self):
                    return inner.capabilities()

                def run(self, workload, policy, *, replica=0):
                    runs["variant"] += 1
                    result = inner.run(workload, policy, replica=replica)
                    traced = result.traced.copy()
                    traced.pop("close", None)
                    return dc.replace(result, traced=traced)

            return ResolvedTarget(
                backend=Hiding(), workload=target.workload,
                app=target.app, app_version=target.app_version,
            )

        register_backend("appsim-hiding", variant_factory, replace=True)
        try:
            session = LoupeSession()
            report = session.analyze(AnalysisRequest(
                app="weborf", workload="health",
                backends=("appsim", "appsim-hiding"),
            ))
        finally:
            unregister_backend("appsim-hiding")
        assert runs["variant"] > 0  # the variant leg actually executed
        assert not report.agrees
        assert any(
            d.kind == MISSING_IN_SIM and d.feature == "close"
            and d.target == "appsim-hiding"
            for d in report.divergences
        )

    def test_colliding_legs_ignore_persistent_run_cache(self, tmp_path):
        """Regression: the persistent run cache is keyed by backend
        *name*, so a store warmed by the honest backend could answer a
        colliding divergent variant's runs and mask every divergence.
        Independent legs must run without any persistent store."""
        import dataclasses as dc

        import repro.appsim as appsim
        from repro.api.registry import (
            ResolvedTarget,
            register_backend,
            unregister_backend,
        )

        def variant_factory(request):
            target = appsim._appsim_backend_factory(request)
            inner = target.backend

            class Hiding:
                name = inner.name  # colliding identity

                def capabilities(self):
                    return inner.capabilities()

                def run(self, workload, policy, *, replica=0):
                    result = inner.run(workload, policy, replica=replica)
                    traced = result.traced.copy()
                    traced.pop("close", None)
                    return dc.replace(result, traced=traced)

            return ResolvedTarget(
                backend=Hiding(), workload=target.workload,
                app=target.app, app_version=target.app_version,
            )

        cache = str(tmp_path / "runs.sqlite")
        register_backend("appsim-hiding", variant_factory, replace=True)
        try:
            with LoupeSession(cache_path=cache) as session:
                # Warm the store with the honest backend's runs.
                session.analyze(AnalysisRequest(
                    app="weborf", workload="health"
                ))
                report = session.analyze(AnalysisRequest(
                    app="weborf", workload="health",
                    backends=("appsim", "appsim-hiding"),
                ))
        finally:
            unregister_backend("appsim-hiding")
        assert not report.agrees
        assert any(
            d.feature == "close" and d.target == "appsim-hiding"
            for d in report.divergences
        )

    def test_fan_out_emits_target_events_and_report_event(self):
        import json as json_module

        from repro.api.events import (
            CrossValidationReady,
            TargetFinished,
            TargetStarted,
        )
        from repro.report import CrossValidationReport

        events = []
        session = LoupeSession(on_event=events.append)
        report = session.analyze(AnalysisRequest(
            app="weborf", workload="health", backend="appsim,appsim"
        ))
        started = [e for e in events if isinstance(e, TargetStarted)]
        finished = [e for e in events if isinstance(e, TargetFinished)]
        assert [(e.backend, e.index, e.total) for e in started] == [
            ("appsim", 0, 1)
        ]
        assert [(e.backend, e.ok) for e in finished] == [("appsim", True)]
        [ready] = [e for e in events if isinstance(e, CrossValidationReady)]
        # The report round-trips through its JSON event form — this is
        # the contract tests/test_e2e_compare.py leans on.
        payload = json_module.loads(json_module.dumps(ready.to_dict()))
        assert payload["event"] == "cross_validation_report"
        rebuilt = CrossValidationReport.from_dict(payload["report"])
        assert rebuilt == report

    def test_fan_out_tags_analysis_events_with_registry_name(self):
        from repro.api.events import FeatureProbed

        events = []
        session = LoupeSession(on_event=events.append)
        session.analyze(AnalysisRequest(
            app="weborf", workload="health", backend="appsim,appsim"
        ))
        probed = [e for e in events if isinstance(e, FeatureProbed)]
        assert probed
        assert all(e.backend == "appsim" for e in probed)

    def test_unknown_name_in_comma_list_fails_before_any_run(self):
        from repro.api.registry import UnknownBackendError

        session = LoupeSession()
        with pytest.raises(UnknownBackendError, match="available"):
            session.analyze(AnalysisRequest(
                app="weborf", workload="health", backend="appsim,bogus"
            ))
        assert len(session.database) == 0

    def test_compare_always_returns_report(self):
        from repro.report import CrossValidationReport

        report = LoupeSession().compare(
            "weborf", workload="health", backends="appsim"
        )
        assert isinstance(report, CrossValidationReport)
        assert report.targets == ("appsim",)
        assert report.agrees

    def test_compare_backends_override_drops_preresolved_target(self):
        """compare(app_model, backends=...) must honor the override
        (the docstring promises it), re-resolving the request's app
        through the named factories."""
        from repro.report import CrossValidationReport

        request = AnalysisRequest.for_app(build("weborf"), "health")
        report = LoupeSession().compare(request, backends="appsim,appsim")
        assert isinstance(report, CrossValidationReport)
        assert report.app == "weborf"
        assert report.targets == ("appsim",)
        # App models coerce the same way.
        report = LoupeSession().compare(
            build("weborf"), workload="health", backends="appsim"
        )
        assert report.agrees

    def test_compare_rejects_preresolved_target_without_override(self):
        request = AnalysisRequest.for_app(build("weborf"), "health")
        with pytest.raises(ValueError, match="pre-resolved"):
            LoupeSession().compare(request)

    def test_analyze_many_mixes_single_and_multi(self):
        from repro.core.result import AnalysisResult
        from repro.report import CrossValidationReport

        session = LoupeSession()
        outcomes = session.analyze_many([
            AnalysisRequest(app="weborf", workload="health"),
            AnalysisRequest(
                app="iperf3", workload="health", backend="appsim,appsim"
            ),
        ], jobs=2)
        assert isinstance(outcomes[0], AnalysisResult)
        assert isinstance(outcomes[1], CrossValidationReport)
        assert len(session.database) == 2


class TestEventsAndProgress:
    def test_per_call_on_event_composes_with_session_callback(self):
        session_events, call_events = [], []
        session = LoupeSession(on_event=session_events.append)
        session.analyze(
            "weborf", workload="health", on_event=call_events.append
        )
        assert call_events == session_events
        assert all(isinstance(e, AnalysisEvent) for e in call_events)

    def test_cache_hit_emits_no_events(self):
        events = []
        session = LoupeSession(on_event=events.append)
        session.analyze("weborf", workload="health")
        events.clear()
        session.analyze("weborf", workload="health")
        assert events == []


class TestDatabaseOwnership:
    def test_external_database_is_used(self):
        database = Database(metadata={"submitter": "test"})
        session = LoupeSession(database=database)
        session.analyze("weborf", workload="health")
        assert session.database is database
        assert len(database) == 1

    def test_clear_swaps_in_fresh_database(self):
        session = LoupeSession()
        session.analyze("weborf", workload="health")
        session.clear()
        assert len(session.database) == 0

    def test_query_filters(self):
        session = LoupeSession()
        session.analyze("weborf", workload="health")
        session.analyze("iperf3", workload="health")
        assert len(session.query()) == 2
        assert [r.app for r in session.query("weborf")] == ["weborf"]
        assert session.query("weborf", "health")
        assert session.query("weborf", "bench") == []
        assert session.query(backend="nope") == []

    def test_record_key_matches_stored_result(self):
        session = LoupeSession()
        result = session.analyze("weborf", workload="health")
        assert RecordKey.of(result) in session.database


class TestPlan:
    def test_plan_named_os(self):
        plan = LoupeSession().plan(os_name="unikraft")
        assert plan.steps
        assert {step.app for step in plan.steps}

    def test_plan_unknown_os(self):
        with pytest.raises(PlanError, match="unknown OS 'templeos'"):
            LoupeSession().plan(os_name="templeos")

    def test_plan_explicit_app_models(self):
        apps = [build("redis"), build("nginx")]
        plan = LoupeSession().plan(os_name="unikraft", apps=apps)
        assert {step.app for step in plan.steps} <= {"redis", "nginx"}

    @pytest.fixture
    def counted_runs(self, monkeypatch):
        """Every SimBackend run from here on, counted, with the
        planner's process-wide memo emptied before and after."""
        from repro.plans import clear_cache

        runs = []
        real = SimBackend.run

        def counting(backend, workload, policy, *, replica=0):
            runs.append(backend.name)
            return real(backend, workload, policy, replica=replica)

        clear_cache()
        monkeypatch.setattr(SimBackend, "run", counting)
        yield runs
        clear_cache()

    def test_plan_reuses_the_session_records(self, counted_runs):
        """Apps the session analyzed under the planner's semantics are
        planned from the loupedb: no backend run, the same plan."""
        from repro.appsim.corpus import cloud_apps
        from repro.plans import clear_cache, render_plan

        session = LoupeSession()
        session.analyze_many(cloud_apps())
        analyzed = len(counted_runs)
        plan = session.plan(apps="cloud")
        assert len(counted_runs) == analyzed
        clear_cache()
        fresh = LoupeSession().plan(apps="cloud")
        assert len(counted_runs) > analyzed  # the fresh plan analyzed
        assert render_plan(plan) == render_plan(fresh)

    def test_corpus_plan_builds_no_app_model(self, counted_runs, monkeypatch):
        """After the corpus is analyzed, its plan builds no app model
        and runs nothing: the models are built once per process."""
        import importlib

        corpus_module = importlib.import_module("repro.appsim.corpus")
        session = LoupeSession()
        session.analyze_many(corpus_module.corpus())
        analyzed = len(counted_runs)
        built = []
        synthetic_app = corpus_module._synthetic_app
        monkeypatch.setattr(
            corpus_module, "_synthetic_app",
            lambda index: built.append(index) or synthetic_app(index),
        )
        plan = session.plan(apps="corpus")
        assert built == []
        assert len(counted_runs) == analyzed
        assert plan.steps

    def test_plan_keeps_records_of_other_semantics(self, counted_runs):
        """A replicas=5 session's records answer nothing for the
        replicas=3 planner, and survive its analyses untouched."""
        from repro.plans import clear_cache, render_plan

        apps = [build("redis"), build("nginx")]
        session = LoupeSession(config=AnalyzerConfig(replicas=5))
        own = [session.analyze(app) for app in apps]
        analyzed = len(counted_runs)
        plan = session.plan(apps=apps)
        assert len(counted_runs) > analyzed
        assert len(session.database) == len(own)
        for result in own:
            assert session.database.get(RecordKey.of(result)) is result
            assert result.replicas == 5
        clear_cache()
        fresh = LoupeSession().plan(apps=apps)
        assert render_plan(plan) == render_plan(fresh)


class TestStudyWrappers:
    """study.base delegates to a module-default session."""

    def test_analyze_app_populates_shared_database(self):
        from repro.study.base import (
            analyze_app,
            clear_cache,
            default_session,
            shared_database,
        )

        clear_cache()
        result = analyze_app(build("weborf"), "health")
        assert len(shared_database()) == 1
        assert shared_database() is default_session().database
        # memoized: same object back
        assert analyze_app(build("weborf"), "health") is result
        clear_cache()
        assert len(shared_database()) == 0

    def test_analyze_app_equals_direct_analyzer(self):
        from repro.study.base import analyze_app, clear_cache

        app = build("weborf")
        direct = Analyzer().analyze(
            app.backend(), app.workload("health"),
            app=app.name, app_version=app.version,
        )
        clear_cache()
        try:
            assert analyze_app(app, "health") == direct
        finally:
            clear_cache()
