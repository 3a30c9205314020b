"""Raw ptrace and seccomp bindings for x86-64 Linux via ctypes.

The paper implements its interposition hooks in ~500 LoC of C on top of
seccomp and ptrace; this module is the Python equivalent of that layer.
Everything here is a thin, faithful mapping of ``<sys/ptrace.h>`` and
``<linux/seccomp.h>`` — no policy, no interpretation. The tracee's own
side (``PTRACE_TRACEME``, ``prctl``, ``execve``) is machine code in
:mod:`repro.ptracer.spawn`.
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal

from repro.errors import PtraceUnavailableError
from repro.ptracer.seccomp_bpf import build_trace_filter, pack_program
from repro.ptracer.spawn import spawn
from repro.syscalls import number_of

# -- ptrace requests (x86-64 numbering) --------------------------------------

PTRACE_TRACEME = 0
PTRACE_PEEKDATA = 2
PTRACE_POKEDATA = 5
PTRACE_CONT = 7
PTRACE_KILL = 8
PTRACE_GETREGS = 12
PTRACE_SETREGS = 13
PTRACE_ATTACH = 16
PTRACE_DETACH = 17
PTRACE_SETOPTIONS = 0x4200

# -- ptrace event options ------------------------------------------------------

PTRACE_O_TRACEFORK = 0x00000002
PTRACE_O_TRACEVFORK = 0x00000004
PTRACE_O_TRACECLONE = 0x00000008
PTRACE_O_TRACEEXEC = 0x00000010
PTRACE_O_EXITKILL = 0x00100000
PTRACE_O_TRACESECCOMP = 0x00000080
PTRACE_O_TRACEEXIT = 0x00000040

PTRACE_EVENT_FORK = 1
PTRACE_EVENT_VFORK = 2
PTRACE_EVENT_CLONE = 3
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_EXIT = 6
PTRACE_EVENT_SECCOMP = 7

#: ``waitpid`` flags for a tracer: every tracee, threads included
#: (``__WALL``), but only the calling thread's own (``__WNOTHREAD``),
#: so tracers on two threads never reap each other's tracees.
WAIT_TRACEES = 0x40000000 | 0x20000000

#: Written into ``orig_rax`` at a seccomp stop to make the kernel skip
#: the call; ``rax``, set in the same stop, is then its return value.
SKIP_SYSCALL = ctypes.c_ulonglong(-1).value

#: ``-ENOSYS`` as an unsigned 64-bit register value.
ENOSYS = 38
NEG_ENOSYS = ctypes.c_ulonglong(-ENOSYS).value


class UserRegs(ctypes.Structure):
    """``struct user_regs_struct`` for x86-64 (``<sys/user.h>``)."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in (
            "r15", "r14", "r13", "r12", "rbp", "rbx", "r11", "r10",
            "r9", "r8", "rax", "rcx", "rdx", "rsi", "rdi", "orig_rax",
            "rip", "cs", "eflags", "rsp", "ss", "fs_base", "gs_base",
            "ds", "es", "fs", "gs",
        )
    ]

    #: Argument registers in syscall-ABI order.
    ARG_REGISTERS = ("rdi", "rsi", "rdx", "r10", "r8", "r9")

    def syscall_args(self) -> tuple[int, ...]:
        return tuple(getattr(self, reg) for reg in self.ARG_REGISTERS)


class SockFprog(ctypes.Structure):
    """``struct sock_fprog``: a classic-BPF program for seccomp."""

    _fields_ = [("len", ctypes.c_ushort), ("filter", ctypes.c_void_p)]


_libc = ctypes.CDLL(None, use_errno=True)
_libc.ptrace.restype = ctypes.c_long
_libc.ptrace.argtypes = (
    ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
)


def ptrace(request: int, pid: int, addr: int = 0, data: int = 0) -> int:
    """Invoke ptrace(2); raises OSError on failure (except PEEKDATA -1)."""
    ctypes.set_errno(0)
    result = _libc.ptrace(request, pid, addr, data)
    if result == -1:
        errno = ctypes.get_errno()
        if errno != 0:
            raise OSError(errno, os.strerror(errno), f"ptrace({request}, {pid})")
    return result


@functools.lru_cache(maxsize=64)
def compile_filter(numbers: "frozenset[int] | None") -> SockFprog:
    """The seccomp program that stops the tracee on *numbers* only
    (on every syscall for ``None``).

    Built in the tracer before it spawns, so the child only installs it.
    """
    packed = pack_program(build_trace_filter(numbers))
    buffer = ctypes.create_string_buffer(packed, len(packed))
    # The cast keeps *buffer* alive for as long as the program is.
    return SockFprog(len(packed) // 8, ctypes.cast(buffer, ctypes.c_void_p))


def get_regs(pid: int) -> UserRegs:
    regs = UserRegs()
    ctypes.set_errno(0)
    result = _libc.ptrace(PTRACE_GETREGS, pid, 0, ctypes.byref(regs))
    if result == -1 and ctypes.get_errno() != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno), f"PTRACE_GETREGS({pid})")
    return regs


def set_regs(pid: int, regs: UserRegs) -> None:
    ctypes.set_errno(0)
    result = _libc.ptrace(PTRACE_SETREGS, pid, 0, ctypes.byref(regs))
    if result == -1 and ctypes.get_errno() != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno), f"PTRACE_SETREGS({pid})")


def read_cstring(pid: int, address: int, limit: int = 4096) -> str:
    """Read a NUL-terminated string from the tracee's memory."""
    if address == 0:
        return ""
    chunks = []
    offset = 0
    while offset < limit:
        try:
            word = ptrace(PTRACE_PEEKDATA, pid, address + offset)
        except OSError:
            break
        raw = (word & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        if b"\x00" in raw:
            chunks.append(raw.split(b"\x00", 1)[0])
            break
        chunks.append(raw)
        offset += 8
    return b"".join(chunks).decode("utf-8", errors="replace")


#: The probe child's stops, as ``status >> 8``: its own ``SIGSTOP``,
#: then the seccomp event of its trapped ``execve``.
_PROBE_STOPS = [signal.SIGSTOP, signal.SIGTRAP | PTRACE_EVENT_SECCOMP << 8]


@functools.cache
def ptrace_works() -> bool:
    """Probe, once per process, whether this host permits the tracer's
    spawn and seccomp-filtered ptrace.

    Some sandboxes deny ptrace, or seccomp, via their own seccomp
    policy or Yama, and some refuse an executable page; tests skip the
    real backend there instead of failing. The probe child is started
    by the tracer's own :func:`~repro.ptracer.spawn.spawn`, under a
    filter trapping ``execve``, to exec ``/``, a directory: it must stop
    once on its ``SIGSTOP``, once on the trapped ``execve``, then exit
    127 when the exec fails.
    """
    program = compile_filter(frozenset({number_of("execve")}))
    try:
        child = spawn(["/"], {}, ctypes.addressof(program))
    except OSError:
        return False
    pid = child.pid
    stops = []
    try:
        while True:
            _, status = os.waitpid(pid, WAIT_TRACEES)
            if not os.WIFSTOPPED(status):
                return (
                    os.WIFEXITED(status) and os.WEXITSTATUS(status) == 127
                    and stops == _PROBE_STOPS
                )
            if not stops:
                ptrace(
                    PTRACE_SETOPTIONS, pid, 0,
                    PTRACE_O_TRACESECCOMP | PTRACE_O_EXITKILL,
                )
            stops.append(status >> 8)
            ptrace(PTRACE_CONT, pid, 0, 0)
    except OSError:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, WAIT_TRACEES)
        except OSError:
            pass
        return False


def require_ptrace() -> None:
    """Raise :class:`PtraceUnavailableError` unless ptrace is usable."""
    if not ptrace_works():
        raise PtraceUnavailableError(
            "this environment denies ptrace(2), seccomp filters or the "
            "tracer's spawn; the real tracing backend is unavailable "
            "(simulation backend remains fully functional)"
        )
