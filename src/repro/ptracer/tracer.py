"""The syscall-interposition tracer (paper Section 3.1, points A/B/D).

Runs a command under ``PTRACE_SYSCALL`` supervision and applies an
:class:`~repro.core.policy.InterpositionPolicy` to every system call
the process (and, with follow-children, its descendants) makes:

* **trace** — record (syscall, sub-feature, path argument) occurrences;
* **stub**  — rewrite ``orig_rax`` to an invalid number at syscall
  entry so the kernel executes nothing, then write ``-ENOSYS`` into
  ``rax`` at the exit stop;
* **fake**  — same skip, but forge a syscall-specific success value
  (0, the requested length, the requested break address...).

Binary whitelisting (Section 3.3) is honored at ``execve`` boundaries:
children running non-whitelisted binaries are still supervised (their
stubs/fakes are not applied, to avoid corrupting helper tools) and
their syscalls are excluded from the trace, exactly like Loupe
ignoring ``git`` invocations inside the Ruby test suite.

Resource usage (peak RSS via ``/proc/<pid>/status`` VmHWM, peak open
descriptors via ``/proc/<pid>/fd``) is sampled at syscall stops,
mirroring the paper's /proc-based measurements (point D in Figure 1).
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno as errno_module
import math
import os
import signal
import threading
import time
from collections import Counter

from repro.core.policy import Action, FakeStrategy, InterpositionPolicy, fake_strategy
from repro.core.pseudofiles import OPEN_FAMILY, is_pseudo_path
from repro.errors import TraceeError
from repro.ptracer.ctypes_bindings import (
    NEG_ENOSYS,
    PTRACE_CONT,
    PTRACE_EVENT_CLONE,
    PTRACE_EVENT_EXEC,
    PTRACE_EVENT_FORK,
    PTRACE_EVENT_VFORK,
    PTRACE_KILL,
    PTRACE_O_EXITKILL,
    PTRACE_O_TRACECLONE,
    PTRACE_O_TRACEEXEC,
    PTRACE_O_TRACEFORK,
    PTRACE_O_TRACESYSGOOD,
    PTRACE_O_TRACEVFORK,
    PTRACE_SETOPTIONS,
    PTRACE_SYSCALL,
    SKIP_SYSCALL,
    UserRegs,
    get_regs,
    ptrace,
    read_cstring,
    set_regs,
    traceme,
)
from repro.syscalls import TABLE_X86_64, decode

_TRACE_OPTIONS = (
    PTRACE_O_TRACESYSGOOD
    | PTRACE_O_TRACEFORK
    | PTRACE_O_TRACEVFORK
    | PTRACE_O_TRACECLONE
    | PTRACE_O_TRACEEXEC
    | PTRACE_O_EXITKILL
)

_SYSCALL_STOP = signal.SIGTRAP | 0x80

#: The path-argument register index for open-family syscalls.
_PATH_ARG_INDEX = {
    "open": 0, "creat": 0, "stat": 0, "lstat": 0, "access": 0,
    "readlink": 0, "statx": 1, "openat": 1, "openat2": 1,
    "faccessat": 1, "faccessat2": 1, "readlinkat": 1,
}


@dataclasses.dataclass
class TraceOutcome:
    """Raw result of one traced execution."""

    exit_code: int
    traced: Counter                  # qualified feature -> count
    pseudo_files: Counter            # path -> count
    fd_peak: int
    mem_peak_kb: int
    duration_s: float
    timed_out: bool = False
    term_signal: int | None = None


@dataclasses.dataclass
class _PidState:
    in_syscall: bool = False
    skipped_number: int | None = None
    skipped_args: tuple[int, ...] = ()
    pending_action: Action = Action.STUB
    whitelisted: bool = True


class _Watchdog:
    """SIGKILLs root tracees whose run outlives its deadline.

    The supervise loop checks its deadline only between blocking
    ``waitpid`` calls, so a tracee asleep inside one syscall would never
    reach it. Killing the root tracee wakes the loop, which then sees
    the deadline and kills the rest of the tree. Signals go through a
    pidfd, so a recycled pid is never hit. One daemon thread serves
    every run: a thread started per run cost about a tenth of a traced
    ``/bin/echo``'s CPU time. Without pidfd support (pre-5.3 kernels,
    strict seccomp filters) nothing is armed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: pidfd -> monotonic deadline, for every run being watched.
        self._deadlines: dict[int, float] = {}
        #: When the thread next wakes on its own; earlier deadlines
        #: notify it, later ones (the usual case) cost no wakeup.
        self._wake_at = math.inf
        self._thread: "threading.Thread | None" = None

    def arm(self, pid: int, timeout_s: float) -> "int | None":
        """Watch *pid*; returns the handle :meth:`disarm` takes."""
        try:
            pidfd = os.pidfd_open(pid)
        except OSError:
            return None
        deadline = time.monotonic() + timeout_s
        with self._cond:
            self._deadlines[pidfd] = deadline
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, daemon=True,
                    name="loupe-ptrace-watchdog",
                )
                self._thread.start()
            elif deadline < self._wake_at:
                self._cond.notify()
        return pidfd

    def disarm(self, pidfd: "int | None") -> None:
        if pidfd is not None:
            with self._cond:
                self._deadlines.pop(pidfd, None)
            os.close(pidfd)  # after the lock: no signal is in flight on it

    def _serve(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                for pidfd, deadline in list(self._deadlines.items()):
                    if deadline <= now:
                        del self._deadlines[pidfd]
                        with contextlib.suppress(ProcessLookupError):
                            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                self._wake_at = min(self._deadlines.values(), default=math.inf)
                self._cond.wait(
                    None if self._wake_at == math.inf else self._wake_at - now
                )


_WATCHDOG = _Watchdog()
# A forked child has no watchdog thread, and may hold its lock mid-use.
os.register_at_fork(after_in_child=_WATCHDOG.__init__)


class SyscallTracer:
    """Trace one command tree under an interposition policy."""

    def __init__(
        self,
        policy: InterpositionPolicy,
        *,
        binaries: frozenset[str] = frozenset(),
        subfeature_level: bool = True,
        track_pseudofiles: bool = True,
        timeout_s: float = 120.0,
        sample_every: int = 16,
    ) -> None:
        self.policy = policy
        self.binaries = binaries
        self.subfeature_level = subfeature_level
        self.track_pseudofiles = track_pseudofiles
        self.timeout_s = timeout_s
        self.sample_every = sample_every

    # -- public -----------------------------------------------------------

    def run(self, argv: "list[str]", env: "dict[str, str] | None" = None) -> TraceOutcome:
        """Execute *argv* under trace and return the raw outcome."""
        started = time.monotonic()
        child = os.fork()
        if child == 0:
            self._child(argv, env)
            os._exit(127)  # not reached

        outcome = TraceOutcome(
            exit_code=-1,
            traced=Counter(),
            pseudo_files=Counter(),
            fd_peak=0,
            mem_peak_kb=0,
            duration_s=0.0,
        )
        watch = _WATCHDOG.arm(child, self.timeout_s)
        try:
            self._supervise(child, outcome, started)
        finally:
            _WATCHDOG.disarm(watch)
            outcome.duration_s = time.monotonic() - started
        # A lone root the watchdog killed empties the tree before the
        # loop can look at its deadline.
        if outcome.term_signal == signal.SIGKILL \
                and outcome.duration_s >= self.timeout_s:
            outcome.timed_out = True
        return outcome

    # -- child side ----------------------------------------------------------

    @staticmethod
    def _child(argv: "list[str]", env: "dict[str, str] | None") -> None:
        try:
            traceme()
            # The exec below delivers the first trace stop to the parent.
            if env is None:
                os.execvp(argv[0], argv)
            else:
                os.execvpe(argv[0], argv, env)
        except OSError:
            os._exit(127)

    # -- parent side -----------------------------------------------------------

    def _supervise(self, root: int, outcome: TraceOutcome, started: float) -> None:
        states: dict[int, _PidState] = {}
        stops = 0

        # First stop: exec of the root child. The execve itself happened
        # before syscall tracing could observe its entry, so account for
        # it here — the process exists only because execve succeeded.
        pid, status = os.waitpid(root, 0)
        if not os.WIFSTOPPED(status):
            raise TraceeError("tracee vanished before its first stop")
        ptrace(PTRACE_SETOPTIONS, root, 0, _TRACE_OPTIONS)
        states[root] = _PidState(whitelisted=self._is_whitelisted(root))
        if states[root].whitelisted:
            outcome.traced["execve"] += 1
        ptrace(PTRACE_SYSCALL, root, 0, 0)

        while states:
            if time.monotonic() - started > self.timeout_s:
                outcome.timed_out = True
                self._kill_all(states)
                break
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:
                break
            if pid not in states:
                states[pid] = _PidState()

            if os.WIFEXITED(status):
                if pid == root:
                    outcome.exit_code = os.WEXITSTATUS(status)
                del states[pid]
                continue
            if os.WIFSIGNALED(status):
                if pid == root:
                    outcome.exit_code = 128 + os.WTERMSIG(status)
                    outcome.term_signal = os.WTERMSIG(status)
                del states[pid]
                continue
            if not os.WIFSTOPPED(status):
                continue

            stop_signal = os.WSTOPSIG(status)
            event = status >> 16
            deliver = 0
            if stop_signal == _SYSCALL_STOP:
                stops += 1
                if stops % self.sample_every == 0:
                    self._sample_resources(root, outcome)
                self._on_syscall_stop(pid, states[pid], outcome)
            elif event in (
                PTRACE_EVENT_FORK, PTRACE_EVENT_VFORK, PTRACE_EVENT_CLONE
            ):
                # The new child inherits supervision; its own first stop
                # registers it in `states`.
                pass
            elif event == PTRACE_EVENT_EXEC:
                states[pid] = _PidState(
                    whitelisted=self._is_whitelisted(pid)
                )
            elif stop_signal != signal.SIGTRAP:
                deliver = stop_signal
            try:
                ptrace(PTRACE_SYSCALL, pid, 0, deliver)
            except OSError:
                states.pop(pid, None)

    def _kill_all(self, states: "dict[int, _PidState]") -> None:
        for pid in list(states):
            try:
                ptrace(PTRACE_KILL, pid)
            except OSError:
                pass
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 2.0
        while states and time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid:
                states.pop(pid, None)
            else:
                time.sleep(0.01)
        states.clear()

    # -- syscall handling ----------------------------------------------------------

    def _on_syscall_stop(
        self, pid: int, state: _PidState, outcome: TraceOutcome
    ) -> None:
        try:
            regs = get_regs(pid)
        except OSError:
            return
        if not state.in_syscall:
            state.in_syscall = True
            self._on_entry(pid, state, regs, outcome)
        else:
            state.in_syscall = False
            self._on_exit(pid, state, regs)

    def _on_entry(
        self, pid: int, state: _PidState, regs: UserRegs, outcome: TraceOutcome
    ) -> None:
        number = regs.orig_rax
        if number == SKIP_SYSCALL:
            return
        name = TABLE_X86_64.by_number.get(int(number))
        if name is None:
            return
        if not state.whitelisted:
            return

        args = regs.syscall_args()
        subfeature = None
        if self.subfeature_level:
            sub = decode(name, args[self._selector_index(name)]) if self._selector_index(name) is not None else None
            if sub is not None:
                subfeature = sub.name

        outcome.traced[name] += 1
        if subfeature is not None:
            outcome.traced[f"{name}:{subfeature}"] += 1

        path = None
        if self.track_pseudofiles and name in OPEN_FAMILY:
            index = _PATH_ARG_INDEX.get(name)
            if index is not None:
                path = read_cstring(pid, args[index], limit=512)
                if path and is_pseudo_path(path):
                    outcome.pseudo_files[path] += 1

        action = self._action(name, subfeature, path)
        if action is Action.PASSTHROUGH:
            return
        # Make the kernel skip the call; remember what we skipped so
        # the exit stop can forge the right return value.
        state.skipped_number = int(number)
        state.skipped_args = args
        state.pending_action = action
        regs.orig_rax = SKIP_SYSCALL
        set_regs(pid, regs)

    def _on_exit(self, pid: int, state: _PidState, regs: UserRegs) -> None:
        if state.skipped_number is None:
            return
        action = state.pending_action
        name = TABLE_X86_64.by_number.get(state.skipped_number, "")
        if action is Action.STUB:
            regs.rax = NEG_ENOSYS
        else:
            regs.rax = self._fake_value(name, state.skipped_args)
        set_regs(pid, regs)
        state.skipped_number = None
        state.skipped_args = ()

    @staticmethod
    def _selector_index(name: str) -> "int | None":
        from repro.syscalls.subfeatures import VECTORED_SYSCALLS

        vectored = VECTORED_SYSCALLS.get(name)
        if vectored is None:
            return None
        return vectored.selector_arg

    def _action(
        self, name: str, subfeature: "str | None", path: "str | None"
    ) -> Action:
        if path is not None and is_pseudo_path(path):
            path_action = self.policy.action_for_path(path)
            if path_action is not Action.PASSTHROUGH:
                return path_action
        return self.policy.action_for(name, subfeature)

    @staticmethod
    def _fake_value(name: str, args: tuple[int, ...]) -> int:
        strategy = fake_strategy(name)
        if strategy is FakeStrategy.FIRST_ARG and args:
            return args[0]
        if strategy is FakeStrategy.LENGTH_ARG3 and len(args) >= 3:
            return args[2]
        if strategy is FakeStrategy.FAKE_FD:
            return 1022  # plausibly-valid, plausibly-unused descriptor
        if strategy is FakeStrategy.FAKE_PID:
            return 4242
        return 0

    # -- whitelist and resources ------------------------------------------------------

    def _is_whitelisted(self, pid: int) -> bool:
        if not self.binaries:
            return True
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            return True
        return exe in self.binaries or os.path.basename(exe) in {
            os.path.basename(b) for b in self.binaries
        }

    @staticmethod
    def _sample_resources(pid: int, outcome: TraceOutcome) -> None:
        try:
            with open(f"/proc/{pid}/status") as status_file:
                for line in status_file:
                    if line.startswith("VmHWM:"):
                        kb = int(line.split()[1])
                        outcome.mem_peak_kb = max(outcome.mem_peak_kb, kb)
                        break
        except OSError:
            pass
        try:
            fd_count = len(os.listdir(f"/proc/{pid}/fd"))
            outcome.fd_peak = max(outcome.fd_peak, fd_count)
        except OSError:
            pass
