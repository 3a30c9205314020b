"""The execution-backend protocol: the only door into an application.

The analyzer never inspects an application directly. It submits a
``(workload, policy)`` pair to a backend and gets back a
:class:`RunResult`: did the test script pass, which features were
invoked, what did performance and resource usage look like. Both the
real ptrace backend (:mod:`repro.ptracer.backend`) and the simulation
backend (:mod:`repro.appsim.backend`) implement this protocol, which is
what keeps the analysis honest on simulated applications — it can only
learn what a real Loupe could observe.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter
from typing import Protocol, runtime_checkable

from repro.core.policy import InterpositionPolicy
from repro.core.workload import Workload


@dataclasses.dataclass(frozen=True)
class ResourceUsage:
    """Peak resource usage sampled during a run (via /proc in the paper)."""

    fd_peak: int = 0
    mem_peak_kb: int = 0

    def scaled_delta(self, baseline: "ResourceUsage") -> tuple[float, float]:
        """Relative (fd, mem) change vs *baseline*; 0.0 when baseline is 0."""
        fd_delta = _relative(self.fd_peak, baseline.fd_peak)
        mem_delta = _relative(self.mem_peak_kb, baseline.mem_peak_kb)
        return fd_delta, mem_delta

    def to_dict(self) -> dict:
        return {"fd_peak": self.fd_peak, "mem_peak_kb": self.mem_peak_kb}

    @staticmethod
    def from_dict(document: dict) -> "ResourceUsage":
        return ResourceUsage(
            fd_peak=int(document.get("fd_peak", 0)),
            mem_peak_kb=int(document.get("mem_peak_kb", 0)),
        )


def _relative(value: float, baseline: float) -> float:
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Everything one run reveals about the application.

    ``traced`` maps qualified feature names to invocation counts. Plain
    syscall names always appear; when sub-feature tracking is on, the
    vectored syscalls additionally contribute ``syscall:OP`` entries
    (both granularities coexist so reports can aggregate either way).
    ``pseudo_files`` maps accessed special-file paths to access counts.
    """

    success: bool
    traced: Counter
    pseudo_files: Counter = dataclasses.field(default_factory=Counter)
    metric: float | None = None
    resources: ResourceUsage = ResourceUsage()
    exit_code: int = 0
    failure_reason: str | None = None
    duration_s: float = 0.0

    def syscalls(self) -> frozenset[str]:
        """Plain syscall names invoked during the run."""
        return frozenset(name for name in self.traced if ":" not in name and not name.startswith("/"))

    def subfeatures(self) -> frozenset[str]:
        """Qualified ``syscall:OP`` entries invoked during the run."""
        return frozenset(name for name in self.traced if ":" in name)

    def features(self, *, subfeature_level: bool = False) -> frozenset[str]:
        """The probe-able feature set of this run.

        At sub-feature level, vectored syscalls are replaced by their
        observed operations (a partial-implementation study); otherwise
        only whole syscalls are reported.
        """
        if not subfeature_level:
            return self.syscalls() | frozenset(self.pseudo_files)
        vectored_parents = {name.partition(":")[0] for name in self.subfeatures()}
        plain = self.syscalls() - vectored_parents
        return plain | self.subfeatures() | frozenset(self.pseudo_files)

    def to_dict(self) -> dict:
        """JSON-serializable form (the persistent run cache's on-disk
        record); :meth:`from_dict` round-trips it exactly."""
        return {
            "success": self.success,
            "traced": dict(self.traced),
            "pseudo_files": dict(self.pseudo_files),
            "metric": self.metric,
            "resources": self.resources.to_dict(),
            "exit_code": self.exit_code,
            "failure_reason": self.failure_reason,
            "duration_s": self.duration_s,
        }

    @staticmethod
    def from_dict(document: dict) -> "RunResult":
        return RunResult(
            success=bool(document["success"]),
            traced=Counter(document.get("traced", {})),
            pseudo_files=Counter(document.get("pseudo_files", {})),
            metric=document.get("metric"),
            resources=ResourceUsage.from_dict(document.get("resources", {})),
            exit_code=int(document.get("exit_code", 0)),
            failure_reason=document.get("failure_reason"),
            duration_s=float(document.get("duration_s", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What one execution backend promises its schedulers and consumers.

    The capability contract of the backend protocol: a frozen,
    all-defaults-false descriptor every backend returns from its
    ``capabilities()`` method. Schedulers (the probe engine, the
    session's multi-target fan-out) consult the descriptor instead of
    sniffing attributes, and cross-validation reports use it to pick
    the reference target. Absence of a capability always means "no" —
    the conservative reading keeps a silent backend safe to schedule.

    * ``deterministic`` — a fixed ``(workload, policy, replica)``
      triple always yields the same result, so run caches may answer
      repeats;
    * ``parallel_safe`` — concurrent runs share no mutable state, so
      runs may overlap in time (replicas of one probe, or whole
      analyses of a multi-target fan-out);
    * ``process_safe`` — the backend (and its results) survive
      pickling, so runs may be sharded out to worker *processes*
      (:func:`process_shardable` additionally verifies the pickle
      round-trip);
    * ``supports_pseudo_files`` — runs observe accesses to special
      files (``/dev/...``, ``/proc/...``), so pseudo-file analysis is
      meaningful;
    * ``supports_subfeatures`` — runs qualify vectored syscalls with
      the operation invoked (``fcntl:F_SETFD``), so sub-feature
      analysis is meaningful;
    * ``real_execution`` — runs execute the real application on the
      real kernel (the ptrace backend) rather than a model of it;
      cross-validation prefers such a target as its reference.
    * ``static_analysis`` — runs never execute anything: they report a
      statically extracted syscall footprint (the ``static``
      pseudo-backend). Cross-validation compares such a target's
      footprint against dynamic observations instead of diffing run
      behavior, classifying the expected static ⊇ dynamic direction as
      over-approximation and the reverse as a soundness violation.
    """

    deterministic: bool = False
    parallel_safe: bool = False
    process_safe: bool = False
    supports_pseudo_files: bool = False
    supports_subfeatures: bool = False
    real_execution: bool = False
    static_analysis: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(document: dict) -> "BackendCapabilities":
        fields = {f.name for f in dataclasses.fields(BackendCapabilities)}
        return BackendCapabilities(**{
            name: bool(value)
            for name, value in document.items()
            if name in fields
        })


def capabilities_of(backend: object) -> BackendCapabilities:
    """The backend's capability contract, via ``capabilities()``.

    This is the single sanctioned way to read capabilities — nothing
    outside this function may sniff capability attributes. A backend
    with no ``capabilities()`` is scheduled with no capabilities at
    all (serial, uncached), whatever bare attributes it carries.
    """
    method = getattr(backend, "capabilities", None)
    if isinstance(method, BackendCapabilities):
        # A descriptor stored as a plain attribute is an honest (and
        # natural dataclass-style) declaration; accept it rather than
        # silently scheduling the backend with no capabilities.
        return method
    if method is not None and not callable(method):
        raise TypeError(
            f"{type(backend).__name__}.capabilities must be a method "
            f"returning BackendCapabilities (or a BackendCapabilities "
            f"instance), got {type(method).__name__}"
        )
    if callable(method):
        capabilities = method()
        if not isinstance(capabilities, BackendCapabilities):
            raise TypeError(
                f"{type(backend).__name__}.capabilities() must return a "
                f"BackendCapabilities descriptor, got "
                f"{type(capabilities).__name__}"
            )
        return capabilities
    return BackendCapabilities()


@runtime_checkable
class ExecutionBackend(Protocol):
    """Runs one application workload under an interposition policy.

    Beyond ``run``, backends declare their scheduling contract by
    returning a :class:`BackendCapabilities` descriptor from
    :meth:`capabilities` — deterministic runs may be cached,
    parallel-safe runs may overlap, process-safe backends may be
    sharded over worker processes (see the descriptor for the full
    vocabulary). The ptrace backend declares none of the scheduling
    capabilities: live replicas of one command contend on ports and
    on-disk state, and no workload has yet measured ptrace runs in
    parallel.

    A run under a probe timeout gets a ``deadline``, a
    ``time.monotonic()`` instant. A backend that can block past it
    must stop by it and raise the builtin ``TimeoutError``; a backend
    whose run is a bounded computation may ignore it. The caller
    passes ``deadline=`` only when the attempt has a timeout, so a
    backend never run under one may omit the parameter.
    """

    name: str

    def capabilities(self) -> BackendCapabilities:
        """The backend's scheduling/feature contract."""
        ...

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
        deadline: float | None = None,
    ) -> RunResult:
        """Execute the workload; *replica* seeds run-to-run variation.

        Stops by *deadline*, when given, with ``TimeoutError``.
        """
        ...


def backend_name(backend: object) -> str:
    """The backend's stable identity for records and cache keys.

    The single definition every layer (engine cache keys, result
    records, session memoization keys) must share: the declared
    ``name`` attribute, falling back to the class name.
    """
    return getattr(backend, "name", type(backend).__name__)


def process_shardable(
    backend: object,
    *,
    capabilities: "BackendCapabilities | None" = None,
) -> bool:
    """Whether *backend*'s runs may be sharded over worker processes.

    Two conditions, both necessary: the backend's capability contract
    must declare ``process_safe`` (the author's promise that runs
    share no parent-process state), and the backend must actually
    survive a pickle round-trip (the mechanical requirement of handing
    it to a ``ProcessPoolExecutor``). A declared-but-unpicklable
    backend — say, one wrapping a lambda or an open socket — quietly
    fails the check instead of blowing up inside the pool, so
    schedulers can fall back to serial runs. Callers that already
    resolved the descriptor pass it as *capabilities* to skip the
    re-resolution.
    """
    if capabilities is None:
        capabilities = capabilities_of(backend)
    if not capabilities.process_safe:
        return False
    try:
        pickle.dumps(backend)
    except Exception:
        return False
    return True
