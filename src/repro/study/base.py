"""Shared plumbing for the Section 5 studies: the default campaign session.

Studies and benchmarks all read the same measurements, mirroring how
the paper's studies share one loupedb. That shared state is a
module-default :class:`~repro.api.session.LoupeSession`:
``analyze_app``/``analyze_apps`` are thin wrappers that submit
requests to it, the old process-global ``_CACHE`` is simply the
session's database, and app-level concurrency (``jobs``) plus
per-analysis probe parallelism (``parallel``) ride on the session's
scheduling. First write wins on concurrent duplicates, so every
caller sees one canonical record per (app, version, workload, backend).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.apps import App
from repro.core.analyzer import AnalyzerConfig
from repro.core.result import AnalysisResult
from repro.db import Database

#: Process-wide default session: studies and benchmarks share analyses,
#: mirroring how the paper's studies all read the same loupedb.
_SESSION = LoupeSession()


def default_session() -> LoupeSession:
    """The module-default session every study submits work to."""
    return _SESSION


def analyze_app(
    app: App,
    workload_name: str,
    *,
    replicas: int = 3,
    parallel: int = 1,
    cache: bool = True,
    executor: str = "auto",
) -> AnalysisResult:
    """Analyze one app+workload, memoized in the shared session database.

    ``parallel``/``cache``/``executor`` configure the per-analysis
    probe engine; they change how fast an analysis runs, never what it
    concludes, so memoized records are valid across every knob
    combination.
    """
    config = AnalyzerConfig(
        replicas=replicas, parallel=parallel, cache=cache, executor=executor
    )
    return _SESSION.analyze(
        AnalysisRequest.for_app(app, workload_name), config=config
    )


def analyze_apps(
    apps: Sequence[App],
    workload_name: str,
    *,
    replicas: int = 3,
    jobs: int = 1,
    parallel: int = 1,
    executor: str = "auto",
) -> list[AnalysisResult]:
    """Analyze many apps under the same workload name (cached).

    ``jobs`` schedules whole applications concurrently (they share
    nothing but the session's lock-guarded database); ``parallel`` and
    ``executor`` are handed to each per-app probe engine (``"process"``
    shards the simulated runs over worker processes). Results come
    back in corpus order regardless of completion order.
    """
    config = AnalyzerConfig(
        replicas=replicas, parallel=parallel, executor=executor
    )
    return _SESSION.analyze_many(
        [AnalysisRequest.for_app(app, workload_name) for app in apps],
        jobs=jobs,
        config=config,
    )


def static_result(
    app: App, workload_name: str, level: str = "binary"
) -> AnalysisResult:
    """Static footprint analysis of one app, memoized like any record.

    Goes through the ``static:<level>`` registry backend, so static
    counts come from the same session/fan-out machinery as dynamic
    ones (one record per (app, version, workload, backend) key). Apps
    the registry cannot vouch for — synthetic corpus members, version
    variants — run the same :class:`~repro.staticx.StaticBackend`
    over the in-hand model instead.
    """
    from repro.api.registry import BackendResolutionError

    request = AnalysisRequest(
        app=app.name, workload=workload_name, backend=f"static:{level}"
    )
    try:
        resolved = request.resolve()
    except BackendResolutionError:
        resolved = None
    if resolved is None or resolved.app_version != app.version:
        from repro.staticx import StaticBackend

        request = AnalysisRequest.for_target(
            StaticBackend(app.program, level=level),
            app.workload(workload_name),
            app=app.name,
            app_version=app.version,
        )
    return _SESSION.analyze(request)


def shared_database() -> Database:
    """The default session's analysis cache as a queryable database."""
    return _SESSION.database


def clear_cache() -> None:
    """Drop all memoized analyses (tests that mutate models need this)."""
    _SESSION.clear()
