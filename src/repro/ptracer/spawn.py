"""Start a tracee without forking the tracer.

A fork of the tracer copies the page tables of a 30 MB interpreter, runs
CPython in the child up to its exec, and leaves the parent taking
copy-on-write faults; on a short probe run that is most of the run. So
the tracee is started the way ``posix_spawn`` starts a program: libc
``clone(fn, stack, CLONE_VM | SIGCHLD, args)``, a child that shares the
tracer's memory until its exec. Python cannot run in such a child, and
``posix_spawn`` can neither trace nor filter, so ``fn`` is a few hundred
bytes of x86-64 machine code, assembled from ``spawn_child.S`` beside
this file, that makes raw system calls only:

1. every caught signal back to ``SIG_DFL`` (``SIG_IGN`` stays);
2. ``PTRACE_TRACEME``, then ``SIGSTOP`` to itself, so the tracer can set
   its options before the filter is in place;
3. ``PR_SET_NO_NEW_PRIVS``;
4. the caller's signal mask restored;
5. the seccomp filter installed;
6. ``execve`` of each candidate path in turn, then ``exit_group(127)``.

The caller blocks every signal around the clone, so no handler of the
tracer's can run on the child's stack before step 1. The exec path
search happens here in the parent, the way ``os.execvpe`` does it.
Without an explicit environment the child execs with the tracer's own
``environ``, as ``execv`` would, and as ``subprocess`` does from its
``vfork`` child.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading

#: ``spawn_child.S``, assembled (``gcc -c``, then ``objcopy -O binary -j .text``).
CHILD_CODE = bytes.fromhex(
    "4889fb4883ec2041bc01000000b80d0000004489e731f64889e241ba08000000"
    "0f054885c0753f48833c2401763848c704240000000048c74424080000000048"
    "c74424100000000048c744241800000000b80d0000004489e74889e631d241ba"
    "080000000f0541ffc44183fc40769eb86500000031ff31f631d24531d20f0548"
    "85c00f8592000000b8270000000f054889c7be13000000b83e0000000f05b89d"
    "000000bf26000000be0100000031d24531d24531c00f054885c0755eb80e0000"
    "00bf02000000488d730831d241ba080000000f054885c07541b89d000000bf16"
    "000000be02000000488b134531d24531c00f054885c075224c8b6320498b3c24"
    "4885ff7415488b7310488b5318b83b0000000f054983c408ebe2bf7f000000b8"
    "e70000000f050f0b"
)

_PAGE = 4096
_PROT_READ, _PROT_WRITE, _PROT_EXEC = 1, 2, 4
_MAP_PRIVATE, _MAP_ANONYMOUS = 0x02, 0x20
_MAP_FAILED = ctypes.c_void_p(-1).value
_CLONE_VM = 0x100

#: libc through ``PyDLL``, whose calls keep the GIL held.
_libc = ctypes.PyDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (
    ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
    ctypes.c_int, ctypes.c_long,
)
_libc.mprotect.restype = ctypes.c_int
_libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
_libc.clone.restype = ctypes.c_int
_libc.clone.argtypes = (
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p,
)
_libc.pthread_sigmask.restype = ctypes.c_int
_libc.pthread_sigmask.argtypes = (ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p)
_environ = ctypes.c_void_p.in_dll(_libc, "environ")

#: glibc's ``sigset_t``; the kernel's mask is its first word. Through
#: libc rather than ``signal.pthread_sigmask``, which turns a full mask
#: into ~64 ``Signals`` members each way.
_SigSet = ctypes.c_uint64 * 16
#: Every signal (glibc leaves out the two it keeps for itself).
_ALL_SIGNALS = _SigSet(*[(1 << 64) - 1] * 16)


class _Args(ctypes.Structure):
    """``struct spawn_args`` of ``spawn_child.S``."""

    _fields_ = [
        ("filter", ctypes.c_void_p),
        ("mask", ctypes.c_uint64),
        ("argv", ctypes.c_void_p),
        ("envp", ctypes.c_void_p),
        ("paths", ctypes.c_void_p),
    ]


def _os_error(call: str, errno: "int | None" = None) -> OSError:
    if errno is None:
        errno = ctypes.get_errno()
    return OSError(errno, os.strerror(errno), call)


def _set_mask(how: int, mask: ctypes.Array, old: "ctypes.Array | None") -> None:
    errno = _libc.pthread_sigmask(how, mask, old)
    if errno:
        raise _os_error("pthread_sigmask", errno)


_code_lock = threading.Lock()
_code: "int | None" = None


def _code_address() -> int:
    """The child's code, on a page mapped read-write, filled, then made
    read+exec; mapped on the first spawn and kept for the process."""
    global _code
    with _code_lock:
        if _code is None:
            machine = os.uname().machine
            if machine != "x86_64":
                raise OSError(f"the spawn's code is x86-64, not {machine}")
            address = _libc.mmap(
                None, _PAGE, _PROT_READ | _PROT_WRITE,
                _MAP_PRIVATE | _MAP_ANONYMOUS, -1, 0,
            )
            if address in (None, _MAP_FAILED):
                raise _os_error("mmap")
            ctypes.memmove(address, CHILD_CODE, len(CHILD_CODE))
            if _libc.mprotect(address, _PAGE, _PROT_READ | _PROT_EXEC) != 0:
                raise _os_error("mprotect")
            _code = address
        return _code


def _strings(items: "list[bytes]") -> ctypes.Array:
    """A NULL-terminated ``char *[]``; it keeps *items* alive."""
    return (ctypes.c_char_p * (len(items) + 1))(*items, None)


def exec_candidates(argv: "list[str]", env: "dict[str, str] | None") -> "list[bytes]":
    """The paths ``os.execvpe(argv[0], argv, env)`` would try, in order:
    ``argv[0]`` alone if it has a directory part, else ``argv[0]`` in each
    directory of *env*'s ``PATH`` (``os.environ``'s for ``None``)."""
    if not argv:
        return []
    file = os.fsencode(argv[0])
    if os.path.dirname(file):
        return [file]
    return [
        os.path.join(os.fsencode(directory), file)
        for directory in os.get_exec_path(env)
    ]


class Spawned:
    """A started tracee. The child runs on this object's args block and
    stack until it execs or exits, so the object must outlive that."""

    def __init__(self, pid: int, memory: tuple) -> None:
        self.pid = pid
        self._memory = memory


def spawn(
    argv: "list[str]", env: "dict[str, str] | None", filter_address: int
) -> Spawned:
    """Start *argv* (resolved through ``PATH``) as a tracee of the
    calling thread, with the seccomp program at *filter_address*; it
    stops on its own ``SIGSTOP`` before it installs the program."""
    argv_array = _strings([os.fsencode(arg) for arg in argv])
    paths = _strings(exec_candidates(argv, env))
    if env is None:
        envp_array, envp = None, _environ.value
    else:
        envp_array = _strings([
            os.fsencode(f"{key}={value}") for key, value in env.items()
        ])
        envp = ctypes.addressof(envp_array)
    args = _Args(
        filter_address, 0, ctypes.addressof(argv_array), envp,
        ctypes.addressof(paths),
    )
    stack = ctypes.create_string_buffer(_PAGE)
    code = _code_address()
    mask = _SigSet()
    _set_mask(signal.SIG_BLOCK, _ALL_SIGNALS, mask)
    try:
        args.mask = mask[0]
        pid = _libc.clone(
            code, ctypes.addressof(stack) + _PAGE,
            _CLONE_VM | signal.SIGCHLD, ctypes.addressof(args),
        )
        if pid == -1:
            raise _os_error("clone")
    finally:
        _set_mask(signal.SIG_SETMASK, mask, None)
    return Spawned(pid, (args, stack, argv_array, paths, envp_array))
