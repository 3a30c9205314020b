"""Pluggable execution-backend registry.

Loupe's portability comes from the :class:`~repro.core.runner.ExecutionBackend`
protocol, but until now *choosing* a backend was hard-wired into each
caller (the CLI special-cased ``--exec``, the studies constructed
``SimBackend`` by hand). This registry makes the choice a name:

* backend packages **self-register** a factory at import time —
  :mod:`repro.appsim` registers ``appsim``, :mod:`repro.ptracer`
  registers ``ptrace``, :mod:`repro.staticx` registers the ``static``
  footprint pseudo-backend — and third-party backends can do the same
  with :func:`register_backend`;
* :func:`resolve_backend` maps a name to its factory, importing the
  built-in packages on first use so the registry is always populated;
* a factory turns one :class:`~repro.api.session.AnalysisRequest` into
  a :class:`ResolvedTarget` — the concrete backend/workload pair plus
  the identity facts the database records.

This is what the CLI's ``loupe analyze --backend NAME`` flag resolves
through, and — via :func:`parse_backend_names` /
:func:`create_targets` — what the multi-backend fan-out addresses:
one request, a comma list of registered backends (``--backend
appsim,ptrace``), one resolved target per unique name.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.core.runner import ExecutionBackend
from repro.core.workload import Workload
from repro.errors import LoupeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import AnalysisRequest


class BackendRegistryError(LoupeError):
    """A backend registration is invalid (duplicate or malformed name)."""


class UnknownBackendError(BackendRegistryError):
    """No backend is registered under the requested name."""

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available) or 'none'}"
        )
        self.name = name
        self.available = available


class BackendResolutionError(BackendRegistryError):
    """A registered factory could not build a target from the request
    (unknown app, missing argv, unavailable substrate, ...)."""


@dataclasses.dataclass(frozen=True)
class ResolvedTarget:
    """A concrete analysis target a factory produced from a request."""

    backend: ExecutionBackend
    workload: Workload
    app: str
    app_version: str = ""


#: A factory maps one request to a concrete target. Factories must be
#: cheap to *register*; all heavy lifting (building app models,
#: probing ptrace availability) belongs inside the call.
BackendFactory = Callable[["AnalysisRequest"], ResolvedTarget]

_LOCK = threading.Lock()
_FACTORIES: dict[str, BackendFactory] = {}

#: Packages that self-register a backend when imported.
_BUILTIN_BACKEND_MODULES = ("repro.appsim", "repro.ptracer", "repro.staticx")
_bootstrapped = False
_bootstrapping = False
_BOOTSTRAP_LOCK = threading.RLock()


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> BackendFactory:
    """Register *factory* under *name*.

    Re-registering an existing name raises unless ``replace=True`` (or
    the factory object is identical, which makes module re-imports
    harmless). Returns the factory so the call composes as a one-liner.

    Names must be addressable by the spec grammar
    (:func:`parse_backend_names` splits on commas and strips
    surrounding whitespace), so a comma or leading/trailing whitespace
    in a name — which no spec could ever resolve back to it — is
    rejected at registration time rather than discovered as an
    unaddressable registry entry later.
    """
    if not name or not name.strip():
        raise BackendRegistryError("backend name must be non-empty")
    if "," in name or name != name.strip():
        raise BackendRegistryError(
            f"backend name {name!r} is not addressable: names may not "
            f"contain commas or leading/trailing whitespace (the "
            f"backend-spec grammar splits on commas and strips names)"
        )
    with _LOCK:
        current = _FACTORIES.get(name)
        if current is not None and current is not factory and not replace:
            raise BackendRegistryError(
                f"backend {name!r} is already registered "
                f"(pass replace=True to override)"
            )
        _FACTORIES[name] = factory
    return factory


def unregister_backend(name: str) -> None:
    """Remove *name* from the registry (no-op when absent)."""
    with _LOCK:
        _FACTORIES.pop(name, None)


def register_chaos(
    inner: str,
    spec: "object | None" = None,
    *,
    name: "str | None" = None,
    replace: bool = False,
) -> str:
    """Register a chaos-wrapped variant of backend *inner*.

    The new entry (``chaos:<inner>`` by default, or *name*) resolves
    exactly like *inner* and then wraps the resulting execution
    backend in a :class:`~repro.core.faults.ChaosBackend` carrying
    *spec* (a :class:`~repro.core.faults.ChaosSpec`; ``None`` means
    the spec's inert defaults). Injection is seeded and deterministic
    per run identity, so a chaos campaign is exactly reproducible —
    this is the harness the fault-tolerance tests drive
    (``tests/test_e2e_faults.py`` through the real CLI). Returns the
    registered name.

    Resolution of *inner* is deferred to analysis time (the wrapper
    factory resolves it per request), so registration order between
    the two names never matters.
    """
    from repro.core.faults import ChaosBackend, ChaosSpec

    chaos_spec = spec if spec is not None else ChaosSpec()
    if not isinstance(chaos_spec, ChaosSpec):
        raise BackendRegistryError(
            f"register_chaos expects a ChaosSpec, got {type(spec).__name__}"
        )
    registered = name if name is not None else f"chaos:{inner}"

    def factory(request: "AnalysisRequest") -> ResolvedTarget:
        target = resolve_backend(inner)(request)
        return dataclasses.replace(
            target, backend=ChaosBackend(target.backend, chaos_spec)
        )

    register_backend(registered, factory, replace=replace)
    return registered


def _bootstrap() -> None:
    """Import the built-in backend packages once so they self-register.

    Thread-safe: a campaign's very first backend resolution may happen
    on several session workers at once (``analyze_many(jobs=N)`` on a
    fresh process), and every one of them must block until the
    built-ins are registered — a completion flag set *before* the
    imports would let the losers resolve against an empty registry.
    The importing thread itself may re-enter (the packages' own
    imports touch this module); the in-progress flag lets it fall
    through instead of deadlocking on the reentrant lock.
    """
    global _bootstrapped, _bootstrapping
    if _bootstrapped:
        return
    with _BOOTSTRAP_LOCK:
        if _bootstrapped or _bootstrapping:
            return
        _bootstrapping = True
        try:
            for module in _BUILTIN_BACKEND_MODULES:
                importlib.import_module(module)
            _bootstrapped = True
        finally:
            _bootstrapping = False


def available_backends() -> tuple[str, ...]:
    """Sorted names every registered backend answers to."""
    _bootstrap()
    with _LOCK:
        return tuple(sorted(_FACTORIES))


def resolve_backend(name: str) -> BackendFactory:
    """The factory registered under *name*.

    Raises :class:`UnknownBackendError` (listing what *is* available)
    when nothing answers to the name.
    """
    _bootstrap()
    with _LOCK:
        factory = _FACTORIES.get(name)
    if factory is None:
        raise UnknownBackendError(name, available_backends())
    return factory


def parse_backend_names(spec: "str | Iterable[str]") -> tuple[str, ...]:
    """Normalize a backend spec into unique, order-preserving names.

    *spec* is either one comma-separated string (``"appsim,ptrace"``)
    or an iterable of names (each of which may itself carry commas —
    the CLI and :class:`~repro.api.session.AnalysisRequest` both feed
    this). Whitespace around names is stripped; duplicates collapse
    deterministically to their first occurrence, so
    ``"appsim,ptrace,appsim"`` resolves to ``("appsim", "ptrace")``
    on every call. Empty names (``"appsim,"``, ``""``) raise
    :class:`BackendRegistryError` — a silent drop would hide a typo'd
    comma list.
    """
    if isinstance(spec, str):
        entries = spec.split(",")
    else:
        entries = [
            part for entry in spec for part in str(entry).split(",")
        ]
    names: list[str] = []
    for entry in entries:
        name = entry.strip()
        if not name:
            raise BackendRegistryError(
                f"backend name must be non-empty (spec: {spec!r})"
            )
        if name not in names:
            names.append(name)
    if not names:
        raise BackendRegistryError("at least one backend name is required")
    return tuple(names)


def create_targets(
    spec: "str | Iterable[str]", request: Any
) -> tuple[ResolvedTarget, ...]:
    """Resolve a backend spec and build one target per unique name.

    The multi-backend entry point: ``create_targets("appsim,ptrace",
    request)`` hands the same request to each named factory and
    returns the targets in spec order (duplicates deduplicated by
    :func:`parse_backend_names`). An unknown name anywhere in the
    spec raises :class:`UnknownBackendError` before *any* factory
    runs, so a typo cannot leave a campaign half-resolved.
    """
    names = parse_backend_names(spec)
    factories = [resolve_backend(name) for name in names]
    return tuple(
        factory(request) for factory in factories
    )


def create_target(name: "str | Iterable[str]", request: Any) -> ResolvedTarget:
    """Resolve *name* and build the target for *request* in one step.

    Accepts any spec :func:`parse_backend_names` does, as long as it
    resolves to exactly one backend (``"appsim"`` and
    ``"appsim,appsim"`` both do); a spec naming several distinct
    backends belongs to :func:`create_targets` and is refused here.
    """
    names = parse_backend_names(name)
    if len(names) != 1:
        raise BackendRegistryError(
            f"create_target resolves exactly one backend, got "
            f"{len(names)} from {name!r}; use create_targets for a "
            f"multi-backend spec"
        )
    return resolve_backend(names[0])(request)
