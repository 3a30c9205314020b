"""The campaign session: Loupe's programmatic front door.

The paper's Figure-1 pipeline is one coherent loop — analyze an
application, record the result into the shared loupedb, plan support
from the accumulated records. :class:`LoupeSession` is that loop as an
object: it owns a :class:`~repro.db.Database` of results, a default
:class:`~repro.core.analyzer.AnalyzerConfig`, and the concurrency
policy for whole campaigns, and exposes

* :meth:`LoupeSession.analyze` — one (app, workload, backend) request,
  memoized in the session database (the loupedb pattern);
* :meth:`LoupeSession.analyze_many` — a batch of requests fanned out
  over ``jobs`` worker threads, first write wins on duplicates;
* :meth:`LoupeSession.plan` — an incremental support plan computed
  from the Section 4 machinery;
* :meth:`LoupeSession.query` — lookups over the accumulated records.

Progress surfaces as the typed event stream of
:mod:`repro.api.events`. Backends are chosen by
registry name (:mod:`repro.api.registry`) or supplied pre-built via
:meth:`AnalysisRequest.for_app` / :meth:`AnalysisRequest.for_target`.

The CLI, the Section 5 studies (:mod:`repro.study.base` keeps a
module-default session), and the benchmarks all sit on top of this
class; nothing else needs to wire ``Analyzer``/backends/``Database``
together by hand.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.api.events import (
    CrossValidationReady,
    EventCallback,
    StoreStatsEvent,
    TargetFinished,
    TargetStarted,
    combine_callbacks,
    tag_backend,
)
from repro.api.registry import (
    ResolvedTarget,
    create_target,
    create_targets,
    parse_backend_names,
)
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.cachestore import RunCacheBackend, open_store, store_identity
from repro.core.engine import EngineStats
from repro.core.result import AnalysisResult
from repro.core.runner import backend_name, capabilities_of
from repro.db import Database, RecordKey
from repro.errors import PlanError
from repro.report import CrossValidationReport, cross_validate

#: AnalyzerConfig fields that change what an analysis *concludes* (as
#: opposed to the engine knobs — parallel, cache, early_exit — which only
#: change how fast it concludes it). A memoized record only answers a
#: request whose semantic fields match the ones that produced it.
_SEMANTIC_CONFIG_FIELDS = (
    "replicas",
    "subfeature_level",
    "pseudo_files",
    "guard_metrics",
    "strict_metrics",
    "metric_margin",
    "bisect_conflicts",
    "max_demotion_rounds",
    "priors",
    # Fault handling changes conclusions, not just speed: a degraded
    # campaign can report features UNDECIDED that a fail-fast one would
    # have aborted on, and a timeout decides which runs ever finish.
    "probe_timeout_s",
    "retries",
    "on_fault",
)


def _config_semantics(config: AnalyzerConfig) -> tuple:
    return tuple(
        getattr(config, field) for field in _SEMANTIC_CONFIG_FIELDS
    )


def _target_record_key(target: "ResolvedTarget") -> RecordKey:
    """The loupedb identity of one resolved target — the single
    definition shared by session memoization and the fan-out's
    identity-collision detection (which must agree, or colliding legs
    could again be answered from each other's memoized records)."""
    return RecordKey(
        app=target.app,
        app_version=target.app_version,
        workload=target.workload.name,
        backend=backend_name(target.backend),
    )


@dataclasses.dataclass(frozen=True)
class AnalysisRequest:
    """One unit of campaign work: *what* to analyze, declaratively.

    ``backend`` names a registry entry; the named factory interprets
    the remaining fields (``appsim`` reads ``app``/``workload``,
    ``ptrace`` reads ``argv``/``timeout_s``). A pre-resolved ``target``
    bypasses the registry entirely — that is how callers holding a
    live :class:`~repro.appsim.apps.App` model or a custom backend
    object enter the session.

    A request may address several execution targets at once: either
    ``backends=("appsim", "ptrace")`` or a comma list in ``backend``
    (``backend="appsim,ptrace"`` — the CLI spelling). Such a request
    fans one (workload, policy) campaign across every named backend
    and yields a :class:`~repro.report.CrossValidationReport` instead
    of a single result; see :meth:`LoupeSession.analyze`. ``backends``
    wins over ``backend`` when both are set.
    """

    app: str = ""
    workload: str = "bench"
    backend: str = "appsim"
    argv: tuple[str, ...] = ()
    timeout_s: float = 60.0
    #: Pre-resolved target; excluded from equality/hashing because it
    #: carries live backend objects.
    target: "ResolvedTarget | None" = dataclasses.field(
        default=None, compare=False
    )
    #: Multi-target spelling: registry names to fan the campaign over.
    #: Empty means "use ``backend``" (which may itself be a comma
    #: list).
    backends: tuple[str, ...] = ()

    def _backend_spec(self) -> tuple[str, ...]:
        """Raw spec entries, commas expanded, duplicates preserved."""
        entries = self.backends or (self.backend,)
        if isinstance(entries, str):
            # backends="appsim" (a natural misuse — parse_backend_names
            # and compare(backends=...) both take plain strings) must
            # not be iterated character by character.
            entries = (entries,)
        return tuple(
            part for entry in entries for part in str(entry).split(",")
        )

    def backend_names(self) -> tuple[str, ...]:
        """The unique registry names this request addresses, in order."""
        return parse_backend_names(self.backends or self.backend)

    def is_multi_target(self) -> bool:
        """Whether this request asks for the multi-target fan-out.

        Decided on the *raw* spec, before deduplication: ``"appsim"``
        is a plain single-backend request, while ``"appsim,appsim"``
        deliberately enters the fan-out — deduplicating to one leg and
        yielding a degenerate single-target report with zero
        divergences (register the factory under a second name for a
        real self-comparison, as ``tests/test_e2e_compare.py`` does). A
        pre-resolved ``target`` always bypasses the registry, and
        therefore the fan-out.
        """
        return self.target is None and len(self._backend_spec()) > 1

    @staticmethod
    def for_app(app, workload: str = "bench") -> "AnalysisRequest":
        """Wrap a corpus :class:`~repro.appsim.apps.App` model (or any
        object with ``name``/``version``/``backend()``/``workload(name)``)."""
        return AnalysisRequest(
            app=app.name,
            workload=workload,
            target=ResolvedTarget(
                backend=app.backend(),
                workload=app.workload(workload),
                app=app.name,
                app_version=app.version,
            ),
        )

    @staticmethod
    def for_target(
        backend, workload, *, app: str = "", app_version: str = ""
    ) -> "AnalysisRequest":
        """Wrap a pre-built (backend, workload) pair directly."""
        name = app or workload.name
        return AnalysisRequest(
            app=name,
            workload=workload.name,
            target=ResolvedTarget(
                backend=backend,
                workload=workload,
                app=name,
                app_version=app_version,
            ),
        )

    def resolve(self) -> ResolvedTarget:
        """The concrete (single) target, via the registry unless
        pre-resolved. Multi-target requests resolve through
        :func:`~repro.api.registry.create_targets` in the session's
        fan-out instead."""
        if self.target is not None:
            return self.target
        return create_target(self.backend_names(), self)


class LoupeSession:
    """One analysis campaign: shared database, config, concurrency.

    Sessions are thread-safe: :meth:`analyze` may be called from many
    threads (that is exactly what :meth:`analyze_many` does) and the
    database is guarded by a lock with first-write-wins semantics, so
    concurrent duplicate requests still yield one canonical record.

    ``cache_path`` opens a persistent cross-campaign run cache
    (:func:`repro.core.cachestore.open_store` picks the backend from
    the path: JSONL by default, SQLite for ``*.sqlite``/``sqlite:``
    paths): every analysis of the session reads and feeds it, and a
    later campaign — another process, another day — pointed at the
    same path starts warm. After each analysis that used a store the
    session emits a :class:`~repro.api.events.StoreStatsEvent` with
    the store's live state. Sessions are context managers (``with
    LoupeSession(...) as s:``) so the cache's file handle is released
    deterministically.
    """

    def __init__(
        self,
        *,
        config: "AnalyzerConfig | None" = None,
        database: "Database | None" = None,
        on_event: "EventCallback | None" = None,
        cache_path: "str | None" = None,
    ) -> None:
        self.config = config or AnalyzerConfig()
        self._lock = threading.Lock()
        #: Open stores by *store identity* — the backend kind plus
        #: the resolved absolute path, so two spellings of one file
        #: (``cache.jsonl`` vs its absolute path) share one store
        #: (one open handle, one index) instead of racing two append
        #: handles on the same inode. Every analysis of the session
        #: sharing an identity shares the store — including per-call
        #: config overrides naming their own ``run_cache`` — instead
        #: of re-parsing the file per analyzer. All of them close
        #: with the session.
        self._stores: dict[tuple[str, str], RunCacheBackend] = {}
        #: The session-default persistent run cache: ``cache_path``
        #: wins, else ``config.run_cache``. A second campaign built
        #: over the same path starts warm. The default config is
        #: rewritten to match so every resolution path — including
        #: per-call configs, which override the default like any other
        #: knob — agrees on where the session persists by default.
        path = cache_path or self.config.run_cache
        if path and self.config.run_cache != path:
            self.config = dataclasses.replace(self.config, run_cache=path)
        self.run_cache: "RunCacheBackend | None" = (
            self._store_for(
                path,
                self.config.run_cache_max_entries,
                self.config.run_cache_ttl_s,
            )
            if path
            else None
        )
        self._database = database if database is not None else Database()
        #: Semantic-config fingerprint of the run that produced each
        #: record. Records this session didn't produce (a preloaded
        #: database) have no entry and are trusted as-is — the loupedb
        #: contract is that stored records are final.
        self._semantics: dict[RecordKey, tuple] = {}
        self._on_event = on_event
        #: Probe-engine accounting of the most recent :meth:`analyze`
        #: that actually ran (cache hits leave it untouched).
        self.last_engine_stats: "EngineStats | None" = None
        #: Transfer accounting of the most recent run (None unless the
        #: config carries priors).
        self.last_transfer_stats: "object | None" = None

    # -- observability -------------------------------------------------------

    @property
    def database(self) -> Database:
        """The session's loupedb: every memoized analysis record."""
        with self._lock:
            return self._database

    def clear(self) -> None:
        """Drop every memoized record (a fresh, empty database).

        The persistent run cache, when configured, is left alone: it
        holds raw run results, not analysis records, and surviving
        campaign resets is its entire point.
        """
        with self._lock:
            self._database = Database()
            self._semantics = {}

    def _store_for(
        self,
        path: str,
        max_entries: "int | None" = None,
        ttl_s: "float | None" = None,
    ) -> RunCacheBackend:
        """The session's shared store for *path* (opened on first use).

        Keyed by resolved identity, not the raw string, so relative
        and absolute spellings of one file share one store. The first
        open of an identity wins its configuration (*max_entries*,
        *ttl_s*).
        """
        identity = store_identity(path)
        with self._lock:
            store = self._stores.get(identity)
            if store is None:
                store = self._stores[identity] = open_store(
                    path, max_entries=max_entries, ttl_s=ttl_s
                )
            return store

    def close(self) -> None:
        """Release session-held resources (run-cache file handles).

        Idempotent, and the session stays usable — stores reopen
        their files on the next write.
        """
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            store.close()

    def __enter__(self) -> "LoupeSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the campaign API ----------------------------------------------------

    @staticmethod
    def _coerce(request, workload: "str | None") -> AnalysisRequest:
        if isinstance(request, AnalysisRequest):
            if workload is None:
                return request
            if request.target is not None:
                if request.target.workload.name == workload:
                    return request
                raise ValueError(
                    f"request is already resolved to workload "
                    f"{request.target.workload.name!r}; it cannot be "
                    f"overridden with workload={workload!r} — build the "
                    f"request with the desired workload instead"
                )
            return dataclasses.replace(request, workload=workload)
        if isinstance(request, str):
            return AnalysisRequest(app=request, workload=workload or "bench")
        if hasattr(request, "backend") and hasattr(request, "workload"):
            return AnalysisRequest.for_app(request, workload or "bench")
        raise TypeError(
            f"cannot interpret {request!r} as an analysis request; pass an "
            f"AnalysisRequest, a corpus app name, or an App model"
        )

    def analyze(
        self,
        request,
        *,
        workload: "str | None" = None,
        config: "AnalyzerConfig | None" = None,
        on_event: "EventCallback | None" = None,
        use_cache: bool = True,
        cancel_check: "Callable[[], bool] | None" = None,
    ) -> "AnalysisResult | CrossValidationReport":
        """Analyze one request, memoized in the session database.

        *request* may be an :class:`AnalysisRequest`, a corpus app name
        (``session.analyze("redis")``), or an ``App`` model. *config*
        overrides the session default for this call only. A cached
        record only answers a request whose semantic config fields
        (replicas, guarding, bisection, priors, ...) match the run
        that produced it — engine knobs (parallel, cache, early_exit)
        change how fast an analysis runs, never what it concludes, and
        so never force a re-run. ``use_cache=False`` forces a fresh
        run (the new record still replaces the stored one).

        *cancel_check* installs a cooperative cancellation hook for
        this call (``AnalyzerConfig.cancel_check`` on the effective
        config): polled between probe waves, a truthy answer stops the
        campaign within one wave by raising
        :class:`repro.errors.AnalysisCancelledError` after a terminal
        ``analysis_cancelled`` event. The campaign-server job runner
        (and any other long-lived driver) cancels live analyses
        through exactly this hook.

        A request addressing several targets (``backends=...`` or a
        comma list in ``backend``) fans the campaign across all of
        them — each target's record lands in the loupedb under its own
        key — and returns the :class:`~repro.report.CrossValidationReport`
        diffing their observations; a single-target request returns
        its :class:`~repro.core.result.AnalysisResult` exactly as
        before.
        """
        coerced = self._coerce(request, workload)
        emit = combine_callbacks(on_event, self._on_event)
        if cancel_check is not None:
            config = dataclasses.replace(
                config or self.config, cancel_check=cancel_check
            )
        if coerced.is_multi_target():
            return self._fan_out(
                coerced, config=config, emit=emit, use_cache=use_cache
            )
        return self._analyze_resolved(
            coerced.resolve(), config=config, emit=emit, use_cache=use_cache
        )

    def _analyze_resolved(
        self,
        target: ResolvedTarget,
        *,
        config: "AnalyzerConfig | None",
        emit: "EventCallback | None",
        use_cache: bool,
        independent: bool = False,
    ) -> AnalysisResult:
        """One target's analysis, memoized in the session database
        (the single-target path, and one leg of a fan-out).

        ``independent`` legs (fan-out identity collisions) must
        produce evidence of their own: besides skipping the session
        memo, they run without *any* persistent run cache — the store
        is keyed by ``(backend name, workload, policy, replica)``, so
        a shared (or campaign-warmed) store would answer one leg with
        the other's runs and mask every divergence.
        """
        effective = config or self.config
        if independent and effective.run_cache:
            effective = dataclasses.replace(
                effective,
                run_cache=None,
                run_cache_max_entries=None,
                run_cache_ttl_s=None,
            )
        semantics = _config_semantics(effective)
        key = _target_record_key(target)

        def cache_answers() -> bool:
            # Records this session produced answer only matching
            # semantics; preloaded records (no entry) are trusted.
            return key in self._database and self._semantics.get(
                key, semantics
            ) == semantics

        if use_cache:
            with self._lock:
                if cache_answers():
                    return self._database.get(key)
        # A config naming its own run_cache path wins (like every other
        # per-call override); otherwise the session default applies.
        # Either way one store per identity is shared across the
        # campaign (relative and absolute spellings of one file
        # resolve to the same store).
        store = (
            self._store_for(
                effective.run_cache,
                effective.run_cache_max_entries,
                effective.run_cache_ttl_s,
            )
            if effective.run_cache
            else (None if independent else self.run_cache)
        )
        with Analyzer(effective, store=store) as analyzer:
            result = analyzer.analyze(
                target.backend,
                target.workload,
                app=target.app,
                app_version=target.app_version,
                on_event=emit,
            )
        if store is not None and emit is not None:
            emit(dataclasses.replace(
                StoreStatsEvent.from_stats(store.stats()), app=target.app
            ))
        with self._lock:
            if use_cache and cache_answers():
                # A concurrent worker finished the same request first;
                # analyses are deterministic, so first write wins and
                # every caller sees one canonical record (this run's
                # result and stats are discarded together).
                return self._database.get(key)
            self._database.add(result)
            self._semantics[key] = semantics
            self.last_engine_stats = analyzer.engine.stats
            self.last_transfer_stats = analyzer.last_transfer_stats
        return result

    def _fan_out(
        self,
        coerced: AnalysisRequest,
        *,
        config: "AnalyzerConfig | None",
        emit: "EventCallback | None",
        use_cache: bool,
    ) -> CrossValidationReport:
        """Fan one (workload, policy) campaign across every requested
        backend and cross-validate the per-target results.

        All targets resolve up front (an unknown name anywhere in the
        spec fails before any run), then analyze concurrently when
        every backend's capability contract declares ``parallel_safe``
        — otherwise strictly in spec order (a live ptrace target in
        the mix keeps the whole fan-out serial rather than risking
        port/state contention). Each target's events are stamped with
        its registry name; each record lands in the loupedb under its
        own key.

        A comparison must compare *runs*, not copies of one record: a
        registry variant whose execution backend shares another
        target's loupedb identity (same ``backend.name`` — every
        re-registration of the appsim factory does this) would
        otherwise be answered from the first leg's memoized record and
        trivially "agree". So legs whose record key collides with an
        earlier leg of the same fan-out always execute fresh; their
        targets share one loupedb key (identity is the backend's own
        contract), but the report is built from what each leg actually
        observed.
        """
        names = coerced.backend_names()
        targets = create_targets(names, coerced)
        capabilities = [
            capabilities_of(target.backend) for target in targets
        ]
        keys = [_target_record_key(target) for target in targets]
        # Every member of a colliding group runs independently — not
        # just the later legs: a memoized first leg could otherwise
        # adopt a colliding leg's concurrently-written record in the
        # post-run "first write wins" check and discard its own run.
        independent = [keys.count(key) > 1 for key in keys]

        def run_target(index: int) -> AnalysisResult:
            name, target = names[index], targets[index]
            target_emit = (
                tag_backend(emit, name) if emit is not None else None
            )
            started = time.monotonic()
            if target_emit is not None:
                target_emit(TargetStarted(
                    backend=name, index=index, total=len(targets),
                    app=target.app,
                ))
            result = self._analyze_resolved(
                target, config=config, emit=target_emit,
                use_cache=use_cache and not independent[index],
                independent=independent[index],
            )
            if target_emit is not None:
                target_emit(TargetFinished(
                    backend=name, ok=result.final_run_ok,
                    duration_s=time.monotonic() - started,
                    app=target.app,
                ))
            return result

        if len(targets) > 1 and all(c.parallel_safe for c in capabilities):
            with ThreadPoolExecutor(
                max_workers=len(targets), thread_name_prefix="loupe-target"
            ) as pool:
                futures = [
                    pool.submit(run_target, index)
                    for index in range(len(targets))
                ]
                results = [future.result() for future in futures]
        else:
            results = [run_target(index) for index in range(len(targets))]

        report = cross_validate(
            [
                (name, result, caps.real_execution, caps.static_analysis)
                for name, result, caps
                in zip(names, results, capabilities)
            ],
            app=targets[0].app,
            workload=targets[0].workload.name,
        )
        if emit is not None:
            emit(CrossValidationReady(
                report=report.to_dict(), app=report.app
            ))
        return report

    def compare(
        self,
        request,
        *,
        backends: "str | Sequence[str] | None" = None,
        workload: "str | None" = None,
        config: "AnalyzerConfig | None" = None,
        on_event: "EventCallback | None" = None,
        use_cache: bool = True,
    ) -> CrossValidationReport:
        """Cross-validate one request across execution backends.

        Like :meth:`analyze`, but always through the multi-target
        fan-out and always returning the
        :class:`~repro.report.CrossValidationReport` — even for a
        single backend (a degenerate report with no divergences).
        *backends* overrides the request's own backend spec
        (``backends="appsim,ptrace"`` or an iterable of names) —
        including a pre-resolved request's (an ``App`` model, or one
        built via :meth:`AnalysisRequest.for_app`), whose target is
        dropped in favor of registry resolution of its ``app``.
        """
        coerced = self._coerce(request, workload)
        if backends is not None:
            # The override wins completely: drop any pre-resolved
            # target so the named factories re-resolve the request
            # (its app/workload identity fields are already set).
            coerced = dataclasses.replace(
                coerced,
                backends=parse_backend_names(backends),
                target=None,
            )
        if coerced.target is not None:
            raise ValueError(
                "compare() fans out over registry backend names; a "
                "pre-resolved target request cannot be compared — pass "
                "backends=... with registry names instead"
            )
        return self._fan_out(
            coerced,
            config=config,
            emit=combine_callbacks(on_event, self._on_event),
            use_cache=use_cache,
        )

    def analyze_many(
        self,
        requests: Iterable,
        *,
        jobs: int = 1,
        config: "AnalyzerConfig | None" = None,
        use_cache: bool = True,
    ) -> "list[AnalysisResult | CrossValidationReport]":
        """Analyze a batch of requests, ``jobs`` at a time.

        Requests share nothing but the lock-guarded session database;
        results come back in request order regardless of completion
        order. A multi-target request in the batch fans out exactly as
        in :meth:`analyze` and contributes its
        :class:`~repro.report.CrossValidationReport` at its position.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        coerced = [self._coerce(request, None) for request in requests]
        if jobs == 1:
            return [
                self.analyze(request, config=config, use_cache=use_cache)
                for request in coerced
            ]
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="loupe-app"
        ) as pool:
            futures = [
                pool.submit(
                    self.analyze, request, config=config, use_cache=use_cache
                )
                for request in coerced
            ]
            return [future.result() for future in futures]

    def plan(
        self,
        *,
        os_name: str = "unikraft",
        apps: "str | Sequence" = "cloud",
        workload: str = "bench",
        support_csv: "str | None" = None,
    ):
        """An incremental support plan for *os_name* over *apps*.

        *apps* is ``"cloud"``, ``"corpus"``, or an explicit sequence of
        app models. The OS baseline comes from the named Table-1
        profile unless *support_csv* points at a syscall-support CSV.
        """
        from repro.appsim.corpus import CLOUD_APPS, cloud_apps, corpus
        from repro.plans import SupportState, generate_plan, table1_states

        if apps == "cloud":
            app_models = cloud_apps()
        elif apps == "corpus":
            app_models = corpus()
        else:
            app_models = list(apps)
        requirements = self._plan_requirements(app_models, workload)
        if support_csv:
            state = SupportState.load(support_csv, os_name=os_name)
        else:
            # The Table-1 baselines are always computed over the cloud
            # set; reuse the requirements just gathered when they lead
            # with it (``corpus()[:15]`` is the cloud set by contract).
            cloud_requirements = (
                dict(list(requirements.items())[:len(CLOUD_APPS)])
                if apps in ("cloud", "corpus")
                else self._plan_requirements(cloud_apps(), workload)
            )
            states = table1_states(cloud_requirements)
            if os_name not in states:
                raise PlanError(
                    f"unknown OS {os_name!r}; choose from: "
                    f"{', '.join(sorted(states))} or pass a support CSV"
                )
            state = states[os_name]
        return generate_plan(state, requirements)

    def _plan_requirements(
        self, app_models: Sequence, workload: str
    ) -> dict:
        """The planner's requirement records for *app_models*, by name.

        An app this session already analyzed under the planner's
        semantics (:data:`~repro.plans.requirements.PLANNER_REPLICAS`
        replicas, every other semantic field at its default) is read
        from the loupedb; only the rest are analyzed, by
        :func:`~repro.plans.requirements.requirements_for_all`, whose
        records never enter the session database.
        """
        from repro.plans import AppRequirements, requirements_for_all
        from repro.plans.requirements import PLANNER_REPLICAS

        semantics = _config_semantics(
            AnalyzerConfig(replicas=PLANNER_REPLICAS)
        )
        known: dict[str, AppRequirements] = {}
        missing = []
        for app in app_models:
            key = _target_record_key(
                AnalysisRequest.for_app(app, workload).target
            )
            with self._lock:
                result = (
                    self._database.get(key)
                    if key in self._database
                    and self._semantics.get(key) == semantics
                    else None
                )
            if result is None:
                missing.append(app)
            else:
                known[app.name] = AppRequirements.from_result(result)
        known.update(requirements_for_all(missing, workload))
        return {app.name: known[app.name] for app in app_models}

    def query(
        self,
        app: "str | None" = None,
        workload: "str | None" = None,
        *,
        backend: "str | None" = None,
    ) -> list[AnalysisResult]:
        """Records accumulated so far, optionally narrowed by
        app/workload/backend (``query()`` returns everything)."""
        database = self.database
        if app is None:
            return [
                result
                for name in database.apps()
                for result in database.find(
                    name, workload, backend=backend
                )
            ]
        return database.find(app, workload, backend=backend)
