"""``repro.api`` — the single programmatic front door to Loupe.

* :mod:`repro.api.session` — :class:`LoupeSession` /
  :class:`AnalysisRequest`: campaign state (database, config,
  concurrency) and the analyze/plan/query entry points.
* :mod:`repro.api.events` — the typed progress-event stream.
* :mod:`repro.api.registry` — the pluggable execution-backend
  registry (``appsim`` and ``ptrace`` self-register).

Exports resolve lazily (PEP 562) so leaf modules — notably
:mod:`repro.core.analyzer`, which imports :mod:`repro.api.events` —
can load without dragging in the whole session machinery.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

_EXPORTS = {
    # session
    "AnalysisRequest": "repro.api.session",
    "LoupeSession": "repro.api.session",
    # events
    "AnalysisEvent": "repro.api.events",
    "AnalysisFinished": "repro.api.events",
    "AnalysisStarted": "repro.api.events",
    "BaselineStarted": "repro.api.events",
    "CombinedRunFinished": "repro.api.events",
    "ConflictBisected": "repro.api.events",
    "CrossValidationReady": "repro.api.events",
    "EngineStatsEvent": "repro.api.events",
    "FeatureProbed": "repro.api.events",
    "FeaturesEnumerated": "repro.api.events",
    "TargetFinished": "repro.api.events",
    "TargetStarted": "repro.api.events",
    "combine_callbacks": "repro.api.events",
    # registry
    "BackendRegistryError": "repro.api.registry",
    "BackendResolutionError": "repro.api.registry",
    "ResolvedTarget": "repro.api.registry",
    "UnknownBackendError": "repro.api.registry",
    "available_backends": "repro.api.registry",
    "create_target": "repro.api.registry",
    "create_targets": "repro.api.registry",
    "parse_backend_names": "repro.api.registry",
    "register_backend": "repro.api.registry",
    "resolve_backend": "repro.api.registry",
    "unregister_backend": "repro.api.registry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api.events import (
        AnalysisEvent,
        AnalysisFinished,
        AnalysisStarted,
        BaselineStarted,
        CombinedRunFinished,
        ConflictBisected,
        CrossValidationReady,
        EngineStatsEvent,
        FeatureProbed,
        FeaturesEnumerated,
        TargetFinished,
        TargetStarted,
        combine_callbacks,
    )
    from repro.api.registry import (
        BackendRegistryError,
        BackendResolutionError,
        ResolvedTarget,
        UnknownBackendError,
        available_backends,
        create_target,
        create_targets,
        parse_backend_names,
        register_backend,
        resolve_backend,
        unregister_backend,
    )
    from repro.api.session import AnalysisRequest, LoupeSession
