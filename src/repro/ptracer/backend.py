"""Real execution backend: live Linux processes behind the protocol.

Implements :class:`~repro.core.runner.ExecutionBackend` for
:class:`~repro.core.workload.CommandWorkload`: the application runs
under the ptrace interposition tracer, then the workload's test script
(if any) decides success, exactly like the paper's architecture
(Figure 1: B starts the app, C drives it and judges the run).

The test script contract (Section 3.2): exit code 0 means success; a
scalar on the last stdout line, when parseable, is the performance
metric.
"""

from __future__ import annotations

import dataclasses
import subprocess
import time

from repro.core.policy import InterpositionPolicy
from repro.core.runner import BackendCapabilities, ResourceUsage, RunResult
from repro.core.workload import CommandWorkload, Workload
from repro.errors import BackendError
from repro.ptracer.ctypes_bindings import require_ptrace
from repro.ptracer.tracer import SyscallTracer


def _parse_metric(stdout: str) -> float | None:
    """Last stdout line, if it is a bare number, is the metric."""
    for line in reversed(stdout.strip().splitlines()):
        token = line.strip()
        if not token:
            continue
        try:
            return float(token)
        except ValueError:
            return None
    return None


def _bound(timeout_s: float, deadline: "float | None") -> float:
    """*timeout_s*, or the time left until *deadline* if that is less."""
    if deadline is None:
        return timeout_s
    return max(0.0, min(timeout_s, deadline - time.monotonic()))


@dataclasses.dataclass
class PtraceBackend:
    """Runs CommandWorkloads under real syscall interposition."""

    subfeature_level: bool = True
    track_pseudofiles: bool = True

    def __post_init__(self) -> None:
        self.name = "ptrace"
        # The legacy attribute spellings stay for callers that still
        # read them directly; schedulers go through capabilities(),
        # which reads back through these.
        self.deterministic = False
        self.parallel_safe = False
        self.process_safe = False
        require_ptrace()

    def capabilities(self) -> BackendCapabilities:
        """The live tracer's contract: real execution, no scheduling
        liberties.

        Live processes are not reproducible run-to-run (that is why
        the analysis replicates), so runs are never cached. Runs stay
        serial and unsharded: overlapping replicas of the same live
        command would contend on ports and on-disk state, and no
        workload has yet measured ptrace runs in parallel. What this
        backend *does* offer is ``real_execution`` —
        it observes the actual application on the actual kernel, which
        makes it the preferred reference of a cross-validation report —
        plus pseudo-file and sub-feature observation when the
        corresponding tracer options are on.

        Like :meth:`SimBackend.capabilities
        <repro.appsim.backend.SimBackend.capabilities>`, this reads
        through the instance attributes, so an embedder tuning a flag
        on one backend object (before handing it to a scheduler) gets
        a contract that follows.
        """
        return BackendCapabilities(
            deterministic=self.deterministic,
            parallel_safe=self.parallel_safe,
            process_safe=self.process_safe,
            supports_pseudo_files=self.track_pseudofiles,
            supports_subfeatures=self.subfeature_level,
            real_execution=True,
        )

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
        deadline: float | None = None,
    ) -> RunResult:
        """Trace one run, then judge it. The tracee and the test script
        each stop at the workload's ``timeout_s`` (a failed run) or at
        *deadline*, if sooner (``TimeoutError``)."""
        if not isinstance(workload, CommandWorkload):
            raise BackendError(
                "the ptrace backend needs a CommandWorkload, got "
                f"{type(workload).__name__}"
            )
        tracer = SyscallTracer(
            policy,
            binaries=workload.binaries,
            subfeature_level=self.subfeature_level,
            track_pseudofiles=self.track_pseudofiles,
            timeout_s=_bound(workload.timeout_s, deadline),
        )
        env = dict(workload.env) if workload.env is not None else None
        outcome = tracer.run(list(workload.argv), env)
        if outcome.timed_out and tracer.timeout_s < workload.timeout_s:
            raise TimeoutError("the tracee reached the probe deadline")

        success = (
            not outcome.timed_out
            and outcome.exit_code == workload.expect_exit_code
        )
        metric = None
        failure_reason = None
        if outcome.timed_out:
            failure_reason = f"timed out after {workload.timeout_s}s"
        elif not success:
            failure_reason = (
                f"exit code {outcome.exit_code} "
                f"(expected {workload.expect_exit_code})"
            )

        if success and workload.test_argv is not None:
            limit = _bound(workload.timeout_s, deadline)
            try:
                completed = subprocess.run(
                    list(workload.test_argv),
                    capture_output=True,
                    text=True,
                    timeout=limit,
                )
            except subprocess.TimeoutExpired:
                if limit < workload.timeout_s:
                    raise TimeoutError(
                        "the test script reached the probe deadline"
                    ) from None
                raise
            if completed.returncode != 0:
                success = False
                failure_reason = (
                    f"test script failed with code {completed.returncode}"
                )
            else:
                metric = _parse_metric(completed.stdout)

        return RunResult(
            success=success,
            traced=outcome.traced,
            pseudo_files=outcome.pseudo_files,
            metric=metric,
            resources=ResourceUsage(
                fd_peak=outcome.fd_peak, mem_peak_kb=outcome.mem_peak_kb
            ),
            exit_code=outcome.exit_code,
            failure_reason=failure_reason,
            duration_s=outcome.duration_s,
        )
