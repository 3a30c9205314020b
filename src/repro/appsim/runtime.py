"""Execution engine for simulated applications.

:class:`SimProcess` runs a :class:`~repro.appsim.program.SimProgram`
under an interposition policy and produces the same
:class:`~repro.core.runner.RunResult` a real traced process would:
which syscalls were invoked, whether the workload's test script passed,
the performance metric, and peak resource usage.

Semantics:

* every executed op is **traced**, even when stubbed or faked (the
  interposition layer sees the invocation either way);
* ``STUB`` routes the op through its :class:`StubReaction` — possibly
  invoking a fallback syscall *through the same policy* (so stubbing
  both ``brk`` and ``mmap`` aborts even though stubbing either alone
  may work);
* ``FAKE`` routes through the :class:`FakeReaction`; ``AS_FAILURE``
  reactions degrade to the stub path, modeling callers that validate
  result values rather than trusting return codes;
* ops gated by a ``when`` feature set only run when the workload
  exercises one of those features (test suites execute more of the
  application than benchmarks — the paper's Figure 4 gap);
* a run succeeds when no op aborted and every feature the workload
  exercises is still healthy.

Metric noise is deterministic: a hash of (app, workload, policy,
replica) drives a small relative perturbation, so replicated runs have
realistic but perfectly reproducible variance.

Compiled plans. A probe policy alters one or a few features, so almost
every op of a run behaves as it does under passthrough. On first use,
each ``(program, features exercised)`` pair compiles into a
:class:`_Plan`: the ops that workload runs, an index from feature key
(syscall, ``syscall:OP``, pseudo-file path) to op positions, and a
lazily filled memo of the passthrough trace each op range leaves. A
run reacts only at the ops ``policy.altered_features()`` reaches and
adds the memoized trace of the ranges between them, so results equal
the op-by-op walk, floats bit for bit. Invariants:

* ``traced`` and ``pseudo_files`` keep the walk's insertion order
  (``RunResult.to_dict()`` writes it into the JSONL run cache): a
  range is cut wherever a fallback may insert keys, and at an abort;
* the memo holds immutable tuples only, and every run gets fresh
  counters, so concurrent runs filling the same memo (idempotent
  writes) never share state;
* the memo is not pickled: a backend shipped to a worker process is
  the same size cold or warm, and the worker rebuilds plans lazily.

One walk per probe. Only the metric noise depends on the replica, so
the engine's back-to-back replicas of one probe repeat one walk. A
one-entry memo keeps the last walk's outcome (its trace, success,
failure reason and shifts) keyed by ``(features exercised, policy
fingerprint)``: the fingerprint means "acts identically", as it does
for the run caches. Each replica adds only its noise, its resources
and a fresh :class:`RunResult` with fresh counters, copied from the
memo's read-only views in the walk's key order. The memo is one tuple
of immutable values, read and replaced whole, so threads need no lock;
like the plans, it is not pickled.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from types import MappingProxyType

from repro.appsim.behavior import FakeKind, StubKind
from repro.appsim.program import SimProgram, SyscallOp
from repro.core.policy import Action, InterpositionPolicy
from repro.core.pseudofiles import is_pseudo_path
from repro.core.runner import ResourceUsage, RunResult
from repro.core.workload import SimWorkload, Workload
from repro.errors import BackendError, WorkloadError

#: Recursion guard for fallback chains (a fallback's fallback...).
_MAX_FALLBACK_DEPTH = 8


def _deterministic_noise(*parts: str, scale: float) -> float:
    """A reproducible perturbation in [-scale, +scale]."""
    if scale == 0.0:
        return 0.0
    digest = hashlib.blake2b("|".join(parts).encode(), digest_size=8).digest()
    unit = int.from_bytes(digest, "big") / float(2**64)  # [0, 1)
    return (2.0 * unit - 1.0) * scale


@dataclasses.dataclass
class _RunState:
    """Mutable state accumulated while executing the program."""

    traced: Counter = dataclasses.field(default_factory=Counter)
    pseudo_files: Counter = dataclasses.field(default_factory=Counter)
    health: dict[str, bool] = dataclasses.field(default_factory=dict)
    aborted: bool = False
    abort_reason: str | None = None
    perf_factor: float = 1.0
    fd_frac: float = 0.0
    mem_frac: float = 0.0


class _Plan:
    """The ops one workload runs, indexed by the features that alter them.

    ``ops`` is the program with the ``when`` filter applied. Every
    feature key (a syscall, a ``syscall:OP``, a pseudo-file path) maps
    to the positions of the ops it may alter, and the passthrough trace
    of any op range is memoized as two insertion-ordered counters that
    are never mutated.
    """

    def __init__(self, ops: tuple[SyscallOp, ...], exercised: frozenset[str]) -> None:
        self.ops = tuple(op for op in ops if op.when is None or op.when & exercised)
        by_feature: dict[str, list[int]] = {}
        by_path: dict[str, list[int]] = {}
        for position, op in enumerate(self.ops):
            by_feature.setdefault(op.syscall, []).append(position)
            if op.subfeature is not None:
                by_feature.setdefault(op.qualified, []).append(position)
            if op.path is not None and is_pseudo_path(op.path):
                by_path.setdefault(op.path, []).append(position)
        self._by_feature = {key: tuple(at) for key, at in by_feature.items()}
        self._by_path = tuple((path, tuple(at)) for path, at in by_path.items())
        self._deltas: dict[tuple[int, int], tuple[Counter, Counter]] = {}

    def affected(self, altered: frozenset[str]) -> list[int]:
        """Ascending positions of the ops a policy altering *altered*
        may act on. A superset is harmless: such an op's action
        resolves to ``PASSTHROUGH`` in :meth:`SimProcess._react`."""
        positions: set[int] = set()
        for feature in altered:
            if feature.startswith("/"):
                nested = feature.rstrip("/") + "/"
                for path, at in self._by_path:
                    if path == feature or path.startswith(nested):
                        positions.update(at)
            else:
                positions.update(self._by_feature.get(feature, ()))
        return sorted(positions)

    def trace(self, start: int, end: int, state: _RunState) -> None:
        """Add the trace ``ops[start:end]`` leave in *state*, memoized
        per range as ``(traced, pseudo_files)`` counters."""
        key = (start, end)
        delta = self._deltas.get(key)
        if delta is None:
            scratch = _RunState()
            for op in self.ops[start:end]:
                SimProcess._trace(op, scratch)
            delta = self._deltas[key] = (scratch.traced, scratch.pseudo_files)
        traced, pseudo_files = delta
        state.traced.update(traced)
        state.pseudo_files.update(pseudo_files)


class SimProcess:
    """Runs one simulated program under one policy."""

    def __init__(self, program: SimProgram) -> None:
        self.program = program
        self._known = program.features | {"core"}
        self._plans: dict[frozenset[str], _Plan] = {}
        #: The last walk: its key, then its replica-independent outcome.
        self._walk: tuple = (None,)

    # The plans and the last walk rebuild lazily, so a pickled process
    # (a backend shipped in a process-pool chunk) is the same size cold
    # or warm.
    def __getstate__(self) -> dict:
        return {"program": self.program}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["program"])

    # -- public ------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
    ) -> RunResult:
        if not isinstance(workload, SimWorkload):
            raise BackendError(
                f"simulation backend needs a SimWorkload, got {type(workload).__name__}"
            )
        exercised = workload.features_exercised
        unknown = exercised - self._known
        if unknown:
            raise WorkloadError(
                f"workload {workload.name!r} exercises features "
                f"{sorted(unknown)} unknown to {self.program.name}"
            )

        key = (exercised, policy.fingerprint())
        walk = self._walk
        if walk[0] == key:
            traced, pseudo_files = Counter(walk[1].copy()), Counter(walk[2].copy())
        else:
            plan = self._plans.get(exercised)
            if plan is None:
                plan = self._plans[exercised] = _Plan(self.program.ops, exercised)
            state = self._evaluate(plan, policy)
            success = not state.aborted and all(
                state.health[feature] for feature in exercised
            )
            failure_reason = None
            if state.aborted:
                failure_reason = state.abort_reason
            elif not success:
                broken = sorted(f for f in exercised if not state.health[f])
                failure_reason = f"broken feature(s): {', '.join(broken)}"
            traced, pseudo_files = state.traced, state.pseudo_files
            walk = self._walk = (
                key, MappingProxyType(dict(traced)),
                MappingProxyType(dict(pseudo_files)), success, failure_reason,
                state.perf_factor, state.fd_frac, state.mem_frac,
            )
        _, _, _, success, failure_reason, perf_factor, fd_frac, mem_frac = walk

        profile = self.program.profile(workload.name)
        metric = None
        if workload.measures_performance and profile.metric is not None and success:
            noise = _deterministic_noise(
                self.program.name,
                workload.name,
                policy.describe(),
                str(replica),
                scale=profile.noise,
            )
            metric = profile.metric * perf_factor * (1.0 + noise)

        resources = ResourceUsage(
            fd_peak=max(0, round(profile.fd_peak * (1.0 + fd_frac))),
            mem_peak_kb=max(0, round(profile.mem_peak_kb * (1.0 + mem_frac))),
        )
        return RunResult(
            success=success,
            traced=traced,
            pseudo_files=pseudo_files,
            metric=metric,
            resources=resources,
            exit_code=0 if success else 1,
            failure_reason=failure_reason,
            duration_s=0.0,
        )

    # -- op execution --------------------------------------------------------

    def _evaluate(self, plan: _Plan, policy: InterpositionPolicy) -> _RunState:
        """Run *plan* under *policy*. Only the ops the policy may alter
        react to it; every other op adds its memoized passthrough trace.

        An op's own trace does not depend on the policy, so whole op
        ranges are added at once. A range is cut only where an op may
        trace a fallback (its keys must land at that point of the run)
        and where an abort ends the run.
        """
        state = _RunState(health=dict.fromkeys(self._known, True))
        start = 0  # ops[start:] are not traced yet
        for position in plan.affected(policy.altered_features()):
            op = plan.ops[position]
            if op.on_stub.kind is StubKind.FALLBACK:
                plan.trace(start, position, state)
                self._execute(op, policy, state, depth=0)
                start = position + 1
            else:
                self._react(op, policy, state, depth=0)
            if state.aborted:
                plan.trace(start, position + 1, state)
                return state
        plan.trace(start, len(plan.ops), state)
        return state

    def _execute(
        self,
        op: SyscallOp,
        policy: InterpositionPolicy,
        state: _RunState,
        depth: int,
    ) -> None:
        if depth > _MAX_FALLBACK_DEPTH:
            state.aborted = True
            state.abort_reason = f"fallback chain too deep at {op.qualified}"
            return
        self._trace(op, state)
        self._react(op, policy, state, depth)

    def _react(
        self,
        op: SyscallOp,
        policy: InterpositionPolicy,
        state: _RunState,
        depth: int,
    ) -> None:
        """Apply *policy*'s action to *op*; the caller traces it."""
        action = self._action_for(op, policy)
        if action is Action.PASSTHROUGH:
            return
        if action is Action.STUB:
            self._apply_stub(op, policy, state, depth)
            return
        # FAKE
        reaction = op.on_fake
        if reaction.kind is FakeKind.AS_FAILURE:
            self._apply_stub(op, policy, state, depth)
            return
        self._apply_shift(reaction.shift, state)
        if reaction.kind is FakeKind.BREAKS_FEATURE:
            state.health[reaction.feature] = False  # type: ignore[index]
        elif reaction.kind is FakeKind.BREAKS_CORE:
            state.health["core"] = False

    def _apply_stub(
        self,
        op: SyscallOp,
        policy: InterpositionPolicy,
        state: _RunState,
        depth: int,
    ) -> None:
        reaction = op.on_stub
        self._apply_shift(reaction.shift, state)
        kind = reaction.kind
        if kind is StubKind.IGNORE or kind is StubKind.SAFE_DEFAULT:
            return
        if kind is StubKind.ABORT:
            state.aborted = True
            state.abort_reason = f"fatal: {op.qualified} failed (treated as fatal)"
            return
        if kind is StubKind.DISABLE_FEATURE:
            state.health[reaction.feature] = False  # type: ignore[index]
            return
        if kind is StubKind.FALLBACK:
            fallback_op = reaction.fallback
            assert isinstance(fallback_op, SyscallOp)
            self._execute(fallback_op, policy, state, depth + 1)
            return
        raise BackendError(f"unhandled stub reaction {kind!r}")

    @staticmethod
    def _apply_shift(shift: object, state: _RunState) -> None:
        state.perf_factor *= shift.perf_factor  # type: ignore[attr-defined]
        state.fd_frac += shift.fd_frac  # type: ignore[attr-defined]
        state.mem_frac += shift.mem_frac  # type: ignore[attr-defined]

    @staticmethod
    def _trace(op: SyscallOp, state: _RunState) -> None:
        state.traced[op.syscall] += op.count
        if op.subfeature is not None:
            state.traced[op.qualified] += op.count
        if op.path is not None and is_pseudo_path(op.path):
            state.pseudo_files[op.path] += op.count

    def _action_for(self, op: SyscallOp, policy: InterpositionPolicy) -> Action:
        if op.path is not None and is_pseudo_path(op.path):
            path_action = policy.action_for_path(op.path)
            if path_action is not Action.PASSTHROUGH:
                return path_action
        return policy.action_for(op.syscall, op.subfeature)
