"""Real Linux tracing substrate: seccomp-filtered ptrace interposition
(a BPF filter stops the tracee only on the syscalls a run traces or
alters), the filter builder, and a minimal ELF reader.

:func:`ptrace_works` probes the whole mechanism, seccomp included; a
host that refuses either has no ``ptrace`` backend."""

from repro.ptracer.backend import PtraceBackend
from repro.ptracer.ctypes_bindings import (
    ptrace_works,
    read_cstring,
    require_ptrace,
)
from repro.ptracer.elf import ElfFile, ElfSection, is_elf, parse
from repro.ptracer.frameworks import (
    ProjectSuite,
    discover_debhelper_suite,
    discover_make_suite,
    suite_workload,
    workload_for_project,
)
from repro.ptracer.seccomp_bpf import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL,
    SECCOMP_RET_TRACE,
    BpfInstruction,
    build_trace_filter,
    pack_program,
    simulate,
)
from repro.ptracer.tracer import SyscallTracer, TraceOutcome
from repro.api.registry import (
    BackendResolutionError,
    ResolvedTarget,
    register_backend,
)


def _ptrace_backend_factory(request) -> ResolvedTarget:
    """Resolve an :class:`~repro.api.session.AnalysisRequest` to a live
    ptrace-traced command (``argv`` is the command line to run)."""
    from repro.core.workload import CommandWorkload, WorkloadKind

    if not request.argv:
        raise BackendResolutionError(
            "the ptrace backend needs a command to trace; "
            "set AnalysisRequest.argv (CLI: --exec CMD [ARG...])"
        )
    workload = CommandWorkload(
        name="cli-exec",
        kind=WorkloadKind.HEALTH_CHECK,
        argv=list(request.argv),
        timeout_s=request.timeout_s,
    )
    # PtraceBackend() probes ptrace availability at construction time,
    # so an unusable substrate fails here — at resolution — rather
    # than mid-campaign. The full command line is the target's build
    # identity: without it, two commands sharing argv[0] would collide
    # on one session-memoization/database key.
    return ResolvedTarget(
        backend=PtraceBackend(),
        workload=workload,
        app=request.argv[0],
        app_version=" ".join(request.argv),
    )


# Self-registration: importing the package makes live tracing
# reachable as ``--backend ptrace`` / ``AnalysisRequest(backend="ptrace")``.
# No replace=True: a conflicting earlier registration under this name
# should fail loudly rather than be silently clobbered (re-importing is
# harmless — identical factories re-register freely).
register_backend("ptrace", _ptrace_backend_factory)

__all__ = [
    "BpfInstruction",
    "ElfFile",
    "ElfSection",
    "ProjectSuite",
    "PtraceBackend",
    "SECCOMP_RET_ALLOW",
    "SECCOMP_RET_KILL",
    "SECCOMP_RET_TRACE",
    "SyscallTracer",
    "TraceOutcome",
    "build_trace_filter",
    "discover_debhelper_suite",
    "discover_make_suite",
    "is_elf",
    "pack_program",
    "parse",
    "ptrace_works",
    "read_cstring",
    "require_ptrace",
    "simulate",
    "suite_workload",
    "workload_for_project",
]
