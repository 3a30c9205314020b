"""Per-application requirement records consumed by the planner.

A support plan only needs three facts per application (Section 4.1):
which syscalls must be **implemented**, which can be **stubbed**, and
which can only be **faked**. These come straight out of an
:class:`~repro.core.result.AnalysisResult`; this module extracts and
caches them for whole app sets.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

from repro.appsim.apps import App
from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.result import AnalysisResult


@dataclasses.dataclass(frozen=True)
class AppRequirements:
    """The planner's view of one analyzed application."""

    app: str
    workload: str
    required: frozenset[str]      # must implement
    stubbable: frozenset[str]     # -ENOSYS suffices
    fake_only: frozenset[str]     # success code needed, no implementation
    traced: frozenset[str]        # everything invoked (naive view)

    @staticmethod
    def from_result(result: AnalysisResult) -> "AppRequirements":
        required = result.required_syscalls()
        stubbable = result.stubbable_syscalls()
        fake_only = result.fakeable_syscalls() - stubbable
        return AppRequirements(
            app=result.app,
            workload=result.workload,
            required=required,
            stubbable=stubbable,
            fake_only=fake_only,
            traced=result.traced_syscalls(),
        )

    @property
    def avoidable(self) -> frozenset[str]:
        return self.stubbable | self.fake_only

    def supported_by(self, implemented: frozenset[str]) -> bool:
        """True when an OS implementing *implemented* can run the app."""
        return self.required <= implemented

    def missing(self, implemented: frozenset[str]) -> frozenset[str]:
        """Syscalls still to implement before the app runs."""
        return self.required - implemented


_REQUIREMENTS_CACHE: dict[tuple[str, str, str], AppRequirements] = {}

#: Replicas per probe of the planner's own analyses.
PLANNER_REPLICAS = 3


def requirements_for(
    app: App,
    workload_name: str = "bench",
    *,
    replicas: int = PLANNER_REPLICAS,
) -> AppRequirements:
    """Analyze one app (memoized) and return its requirement record."""
    key = (app.name, app.version, workload_name)
    cached = _REQUIREMENTS_CACHE.get(key)
    if cached is not None:
        return cached
    analyzer = Analyzer(AnalyzerConfig(replicas=replicas))
    result = analyzer.analyze(
        app.backend(),
        app.workload(workload_name),
        app=app.name,
        app_version=app.version,
    )
    record = AppRequirements.from_result(result)
    _REQUIREMENTS_CACHE[key] = record
    return record


def requirements_for_all(
    apps: Iterable[App], workload_name: str = "bench"
) -> Mapping[str, AppRequirements]:
    """Requirement records for an app collection, keyed by app name."""
    return {app.name: requirements_for(app, workload_name) for app in apps}


def clear_cache() -> None:
    """Drop memoized analyses (used by tests that mutate app models)."""
    _REQUIREMENTS_CACHE.clear()
