"""Fault-tolerant probe execution: taxonomy, policy, chaos injection.

Loupe's methodology replicates thousands of probe runs against systems
that are *expected* to misbehave — crashing applications, hung
syscalls, dying tracers. This module is the robustness layer that
turns those mishaps into data points instead of campaign aborts:

* a four-class **fault taxonomy** (``timeout`` / ``worker-crash`` /
  ``backend-error`` / ``torn-result``) and the :class:`ProbeFault`
  quarantine record;
* a :class:`FaultPolicy` giving every probe a wall-clock timeout and
  bounded retries with exponential backoff (jitter is deterministic
  when seeded, so replayed campaigns sleep identically);
* :func:`guarded_run`, the module-level attempt loop that executes one
  ``(workload, policy, replica)`` run under the policy — module-level
  and picklable on purpose, so process-pool workers apply exactly the
  same timeout/retry semantics as the scheduling process;
* :class:`ChaosBackend`, a deterministic fault-injection wrapper used
  both as the test harness for all of the above and as the first
  adversarial persona of the ROADMAP's campaign hardening item.

Determinism is the load-bearing design rule: every chaos decision is a
pure function of ``(seed, workload, policy fingerprint, replica)`` —
never of call order, thread identity, or wall-clock — so the serial
and process executors observe the *same* injected faults and produce
byte-identical reports under ``--on-fault=degrade``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import time

from repro.core.policy import InterpositionPolicy
from repro.core.runner import (
    BackendCapabilities,
    RunResult,
    backend_name,
    capabilities_of,
)
from repro.core.workload import Workload
from repro.errors import LoupeError

# -- taxonomy ------------------------------------------------------------

#: The probe exceeded its wall-clock budget; the run stopped at its deadline.
FAULT_TIMEOUT = "timeout"
#: The worker process executing the probe died (BrokenProcessPool).
FAULT_WORKER_CRASH = "worker-crash"
#: The backend raised instead of returning a result.
FAULT_BACKEND_ERROR = "backend-error"
#: The backend returned something that is not a :class:`RunResult`.
FAULT_TORN_RESULT = "torn-result"

FAULT_KINDS = (
    FAULT_TIMEOUT,
    FAULT_WORKER_CRASH,
    FAULT_BACKEND_ERROR,
    FAULT_TORN_RESULT,
)

#: ``fail`` aborts the campaign on an exhausted probe (the historical
#: behavior); ``degrade`` quarantines it as an ``undecided`` outcome.
ON_FAULT_MODES = ("fail", "degrade")


@dataclasses.dataclass(frozen=True)
class FaultPolicy:
    """How the engine treats a probe run that refuses to complete.

    ``probe_timeout_s`` bounds each attempt's wall clock (``None``
    disables the guard); ``retries`` re-runs a faulted attempt up to
    that many extra times with exponential backoff starting at
    ``retry_backoff_s``; ``on_fault`` decides what happens once the
    budget is exhausted. ``jitter_seed`` makes the backoff jitter a
    pure function of the probe key so replays sleep identically.
    """

    probe_timeout_s: float | None = None
    retries: int = 0
    retry_backoff_s: float = 0.05
    on_fault: str = "fail"
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN is refused too.
        timeout = self.probe_timeout_s
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError("probe_timeout_s must be positive and finite (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not 0 <= self.retry_backoff_s < math.inf:
            raise ValueError("retry_backoff_s must be finite and >= 0")
        if self.on_fault not in ON_FAULT_MODES:
            raise ValueError(
                f"on_fault must be one of {ON_FAULT_MODES}, "
                f"got {self.on_fault!r}"
            )

    @property
    def active(self) -> bool:
        """Whether any guard is configured at all.

        An inactive policy keeps the engine on its historical fast
        path: raw exception propagation, zero overhead per run. No
        path starts a wrapper thread: a timed attempt runs on the
        caller's thread and stops at its deadline.
        """
        return (
            self.probe_timeout_s is not None
            or self.retries > 0
            or self.on_fault != "fail"
        )

    @property
    def degrade(self) -> bool:
        return self.on_fault == "degrade"

    @property
    def attempts(self) -> int:
        """Total attempts each probe run gets (first try + retries)."""
        return self.retries + 1

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Sleep before retry *attempt* (1-based): exponential + jitter.

        With ``jitter_seed`` set, the jitter fraction is derived from a
        hash of ``(seed, key, attempt)`` — deterministic per probe, so
        a replayed campaign backs off identically; unseeded, plain
        ``random`` jitter decorrelates concurrent retries.
        """
        base = self.retry_backoff_s * (2 ** max(0, attempt - 1))
        if base <= 0:
            return 0.0
        if self.jitter_seed is None:
            fraction = random.random()
        else:
            digest = hashlib.sha256(
                f"{self.jitter_seed}|{key}|{attempt}".encode()
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + 0.5 * fraction)


@dataclasses.dataclass(frozen=True)
class ProbeFault:
    """One quarantined probe run: the key, class, and attempt history."""

    workload: str
    probe: str          # the policy's human-readable describe()
    replica: int
    kind: str
    attempts: int
    durations_s: tuple[float, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        text = (
            f"[{self.kind}] {self.probe} replica {self.replica} "
            f"on {self.workload!r} after {self.attempts} attempt(s)"
        )
        if self.detail:
            text += f": {self.detail}"
        return text

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "probe": self.probe,
            "replica": self.replica,
            "kind": self.kind,
            "attempts": self.attempts,
            "durations_s": list(self.durations_s),
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(document: dict) -> "ProbeFault":
        return ProbeFault(
            workload=str(document.get("workload", "")),
            probe=str(document.get("probe", "")),
            replica=int(document.get("replica", 0)),
            kind=str(document.get("kind", FAULT_BACKEND_ERROR)),
            attempts=int(document.get("attempts", 1)),
            durations_s=tuple(
                float(d) for d in document.get("durations_s", ())
            ),
            detail=str(document.get("detail", "")),
        )


class ProbeFaultError(LoupeError):
    """A probe exhausted its fault budget under ``on_fault=fail``.

    Carries the :class:`ProbeFault` record and pickles across process
    boundaries (workers raise it; the scheduler re-raises it intact).
    """

    def __init__(self, fault: ProbeFault) -> None:
        super().__init__(fault.describe())
        self.fault = fault

    def __reduce__(self):
        return (ProbeFaultError, (self.fault,))


class ProbeRunError(LoupeError):
    """A backend exception annotated with the probe key that caused it.

    Raised from process-sharded chunks in place of the raw backend
    exception, whose pickled traceback would otherwise surface with no
    indication of which ``(feature, action, replica)`` probe failed.
    Constructed from a single message string so it survives the
    pool's exception pickling untouched.
    """


def describe_probe_error(
    workload: Workload,
    policy: InterpositionPolicy,
    replica: int,
    error: BaseException,
) -> str:
    """The probe-key-carrying message for :class:`ProbeRunError`."""
    return (
        f"probe {policy.describe()!r} replica {replica} of workload "
        f"{workload.name!r} failed in a worker: "
        f"{type(error).__name__}: {error}"
    )


# -- guarded execution ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt inside :func:`guarded_run`."""

    kind: str
    detail: str
    duration_s: float


@dataclasses.dataclass(frozen=True)
class GuardedOutcome:
    """What :func:`guarded_run` produced for one probe run.

    ``result`` is ``None`` exactly when every attempt failed;
    ``failures`` lists the failed attempts in order (non-empty even on
    eventual success if earlier attempts were retried).
    """

    result: RunResult | None
    failures: tuple[AttemptFailure, ...] = ()

    @property
    def faulted(self) -> bool:
        return self.result is None

    def fault(
        self, workload: Workload, policy: InterpositionPolicy, replica: int
    ) -> ProbeFault:
        """The quarantine record for an exhausted outcome."""
        last = self.failures[-1] if self.failures else None
        return ProbeFault(
            workload=workload.name,
            probe=policy.describe(),
            replica=replica,
            kind=last.kind if last else FAULT_BACKEND_ERROR,
            attempts=len(self.failures),
            durations_s=tuple(f.duration_s for f in self.failures),
            detail=last.detail if last else "",
        )


def probe_key(
    workload: Workload, policy: InterpositionPolicy, replica: int
) -> str:
    """The stable identity of one probe run (jitter and chaos seed it)."""
    return f"{workload.name}|{policy.fingerprint()}|{replica}"


def _run(backend, workload, policy, replica, deadline):
    """``backend.run``, passing ``deadline=`` only when there is one.

    Backends that never run under a probe timeout keep the plain
    ``run(workload, policy, *, replica=0)`` signature.
    """
    if deadline is None:
        return backend.run(workload, policy, replica=replica)
    return backend.run(workload, policy, replica=replica, deadline=deadline)


def _attempt_once(
    backend,
    workload: Workload,
    policy: InterpositionPolicy,
    replica: int,
    timeout_s: float | None,
) -> tuple[RunResult | None, str | None, str]:
    """One attempt: ``(result, fault_kind, detail)``.

    The run executes on the caller's thread. With a timeout, the
    backend gets the attempt's ``deadline`` and stops by it (see
    :class:`~repro.core.runner.ExecutionBackend`). A ``TimeoutError``,
    or anything at all that arrives after the deadline, is a
    ``timeout`` fault.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    try:
        result = _run(backend, workload, policy, replica, deadline)
    except Exception as error:
        result = error
    if deadline is not None and (
        isinstance(result, TimeoutError) or time.monotonic() > deadline
    ):
        return None, FAULT_TIMEOUT, f"no result within {timeout_s:g}s"
    if isinstance(result, Exception):
        return None, FAULT_BACKEND_ERROR, f"{type(result).__name__}: {result}"
    if not isinstance(result, RunResult):
        return (
            None,
            FAULT_TORN_RESULT,
            f"backend returned {type(result).__name__}, not RunResult",
        )
    return result, None, ""


def guarded_run(
    backend,
    workload: Workload,
    policy: InterpositionPolicy,
    replica: int,
    fault_policy: FaultPolicy,
) -> GuardedOutcome:
    """Execute one probe run under *fault_policy*.

    Module-level so process-pool chunks apply identical semantics:
    a deadline per attempt, bounded retries with backoff, taxonomy
    classification. Never raises for a classified fault — the caller
    decides between ``fail`` and ``degrade``.
    """
    failures: list[AttemptFailure] = []
    key = probe_key(workload, policy, replica)
    for attempt in range(1, fault_policy.attempts + 1):
        start = time.perf_counter()
        result, kind, detail = _attempt_once(
            backend, workload, policy, replica, fault_policy.probe_timeout_s
        )
        duration = time.perf_counter() - start
        if result is not None:
            return GuardedOutcome(result, tuple(failures))
        failures.append(AttemptFailure(kind or FAULT_BACKEND_ERROR, detail, duration))
        if attempt <= fault_policy.retries:
            delay = fault_policy.backoff_delay(attempt, key)
            if delay > 0:
                time.sleep(delay)
    return GuardedOutcome(None, tuple(failures))


# -- engine-to-analyzer notices -----------------------------------------

# Plain records, not api-layer events: core modules cannot import
# repro.api (which imports them back). The analyzer adapts these into
# typed events for the session stream.


@dataclasses.dataclass(frozen=True)
class RetryNotice:
    """A probe attempt failed and will be (or was) retried."""

    workload: str
    probe: str
    replica: int
    attempt: int
    kind: str
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class FaultNotice:
    """A probe exhausted its budget and was quarantined."""

    fault: ProbeFault


@dataclasses.dataclass(frozen=True)
class PoolRecoveredNotice:
    """A broken worker pool was rebuilt and lost chunks re-enqueued."""

    lost_runs: int
    rebuilds: int = 1


# -- chaos injection -----------------------------------------------------


class ChaosError(LoupeError):
    """The error :class:`ChaosBackend` injects for targeted probes."""


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """Which faults to inject, addressed by *feature*.

    A probe is targeted when its policy stubs or fakes any feature in
    the corresponding set, so the passthrough baseline is never
    injected (a faulted baseline aborts any analysis). ``error_rate``
    additionally faults a seeded pseudo-random fraction of *all*
    probes — useful for property tests, hazardous for campaigns.

    * ``hang_features`` — sleep ``hang_s`` then raise (a probe
      deadline that comes first stops the sleep there and classifies
      it as ``timeout``; without one the campaign still terminates, as
      ``backend-error``);
    * ``error_features`` — raise :class:`ChaosError` immediately;
    * ``flip_features`` — return the wrong answer (success inverted);
    * ``crash_features`` — kill the *worker process* on the Nth
      targeted run (``crash_after``); a no-op in the scheduling
      process itself, and once-only when ``crash_marker`` names a
      file (created atomically on first crash, checked before the
      next), so recovered re-executions proceed normally.
    """

    seed: int = 0
    hang_features: frozenset = frozenset()
    error_features: frozenset = frozenset()
    flip_features: frozenset = frozenset()
    crash_features: frozenset = frozenset()
    hang_s: float = 30.0
    error_rate: float = 0.0
    crash_after: int = 1
    crash_marker: str | None = None

    def __post_init__(self) -> None:
        for field in (
            "hang_features", "error_features", "flip_features",
            "crash_features",
        ):
            object.__setattr__(self, field, frozenset(getattr(self, field)))
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be within [0, 1]")
        if self.crash_after < 1:
            raise ValueError("crash_after must be >= 1")

    def chance(self, kind: str, key: str) -> float:
        """A deterministic pseudo-random fraction for one decision."""
        digest = hashlib.sha256(f"{self.seed}|{kind}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64


class ChaosBackend:
    """Wraps an execution backend with seeded, deterministic faults.

    Every injection decision is a pure function of the chaos seed and
    the probe key — the executor choice, scheduling order, and retry
    count never change *which* probes fault, which is what lets
    degraded campaigns stay byte-identical across the serial and
    process executors. Picklable whenever the inner backend is, so
    chaos reaches process-pool workers too.
    """

    def __init__(self, inner, spec: ChaosSpec, *, name: str | None = None):
        self.inner = inner
        self.spec = spec
        self.name = name or f"chaos:{backend_name(inner)}"
        self._parent_pid = os.getpid()
        self._crash_calls = 0

    def capabilities(self) -> BackendCapabilities:
        return capabilities_of(self.inner)

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
        deadline: float | None = None,
    ) -> RunResult:
        spec = self.spec
        altered = policy.altered_features()
        key = probe_key(workload, policy, replica)
        if spec.crash_features & altered:
            self._maybe_crash()
        if spec.hang_features & altered:
            left = math.inf if deadline is None else deadline - time.monotonic()
            if left < spec.hang_s:
                time.sleep(max(0.0, left))
                raise TimeoutError(f"chaos: hang stopped at the deadline for {key}")
            time.sleep(spec.hang_s)
            raise ChaosError(f"chaos: hang released after {spec.hang_s:g}s for {key}")
        if spec.error_features & altered or (
            spec.error_rate > 0.0
            and spec.chance("error", key) < spec.error_rate
        ):
            raise ChaosError(f"chaos: injected backend error for {key}")
        result = _run(self.inner, workload, policy, replica, deadline)
        if spec.flip_features & altered:
            flipped = not result.success
            result = dataclasses.replace(
                result,
                success=flipped,
                failure_reason=None if flipped else "chaos: wrong-answer flip",
            )
        return result

    def _maybe_crash(self) -> None:
        """Kill this process — but only if it is a pool worker.

        The scheduling process is never killed (the serial executor
        runs chaos inline), and a ``crash_marker`` file makes
        the crash once-only across the whole campaign so recovery can
        re-execute the lost chunk successfully.
        """
        if os.getpid() == self._parent_pid:
            return
        self._crash_calls += 1
        if self._crash_calls < self.spec.crash_after:
            return
        marker = self.spec.crash_marker
        if marker is not None:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
        os._exit(139)
