"""The syscall-interposition tracer (paper Section 3.1, points A/B/D).

Runs a command under ptrace with a seccomp-BPF filter, as Loupe does,
and applies an :class:`~repro.core.policy.InterpositionPolicy` to the
system calls the process (and, with follow-children, its descendants)
makes. The filter stops the tracee only on the calls that matter to
the run; every other call runs at full speed:

* a **baseline** run (a policy that alters nothing) traps every
  syscall, once each, and records (syscall, sub-feature, path
  argument) occurrences;
* a **probe** run traps only the numbers its policy alters: its stubbed
  and faked syscalls, the parent syscall of each ``syscall:OP`` entry,
  and the open family when it has pseudo-path rules. At the one seccomp
  stop the tracer decides:

  * **stub** — rewrite ``orig_rax`` to an invalid number so the kernel
    executes nothing, and ``rax`` to ``-ENOSYS``;
  * **fake** — same skip, but with a syscall-specific success value
    (0, the requested length, the requested break address...).

  A probe run therefore counts only the calls it traps; feature
  enumeration reads baseline runs alone.

The root is started by :func:`~repro.ptracer.spawn.spawn`: a child
that shares the tracer's memory and runs no Python, only a few hundred
bytes of machine code. It requests tracing and stops; the tracer sets
its options (``PTRACE_O_TRACESECCOMP`` among them); the child then
installs the filter and execs. The root's execve is counted once, at
its exec event.

Binary whitelisting (Section 3.3) is honored at ``execve`` boundaries:
children running non-whitelisted binaries are still supervised (their
stubs/fakes are not applied, to avoid corrupting helper tools) and
their syscalls are excluded from the trace, exactly like Loupe
ignoring ``git`` invocations inside the Ruby test suite.

Resource usage (peak RSS via ``/proc/<pid>/status`` VmHWM, open
descriptors via ``/proc/<pid>/fd``) is sampled once, at the root's
``PTRACE_EVENT_EXIT`` stop, mirroring the paper's /proc-based
measurements (point D in Figure 1).

How a run is held to its deadline: the tracer waits in a blocking
``waitpid`` and checks the deadline between stops. A tracee asleep
inside one syscall never stops, so the :class:`_Watchdog` thread kills
the root at the deadline, which wakes the wait. A run past its deadline
has its whole tree killed and reaped. A serial campaign therefore runs
on two threads: the main thread and ``loupe-ptrace-watchdog``.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
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
    PTRACE_EVENT_EXEC,
    PTRACE_EVENT_EXIT,
    PTRACE_EVENT_SECCOMP,
    PTRACE_KILL,
    PTRACE_O_EXITKILL,
    PTRACE_O_TRACECLONE,
    PTRACE_O_TRACEEXEC,
    PTRACE_O_TRACEEXIT,
    PTRACE_O_TRACEFORK,
    PTRACE_O_TRACESECCOMP,
    PTRACE_O_TRACEVFORK,
    PTRACE_SETOPTIONS,
    SKIP_SYSCALL,
    WAIT_TRACEES,
    compile_filter,
    get_regs,
    ptrace,
    read_cstring,
    set_regs,
)
from repro.ptracer.spawn import spawn
from repro.syscalls import TABLE_X86_64, decode

_TRACE_OPTIONS = (
    PTRACE_O_TRACESECCOMP
    | PTRACE_O_TRACEEXIT
    | PTRACE_O_TRACEFORK
    | PTRACE_O_TRACEVFORK
    | PTRACE_O_TRACECLONE
    | PTRACE_O_TRACEEXEC
    | PTRACE_O_EXITKILL
)

#: The path-argument register index for open-family syscalls.
_PATH_ARG_INDEX = {
    "open": 0, "creat": 0, "stat": 0, "lstat": 0, "access": 0,
    "readlink": 0, "statx": 1, "openat": 1, "openat2": 1,
    "faccessat": 1, "faccessat2": 1, "readlinkat": 1,
}


@dataclasses.dataclass
class TraceOutcome:
    """Raw result of one traced execution.

    ``traced`` and ``pseudo_files`` count the calls the run's filter
    trapped: every call in a baseline run, but only the altered ones in
    a probe run. Feature enumeration reads baseline runs alone.
    ``mem_peak_kb`` and ``fd_peak`` are the root's peak RSS and its open
    descriptors at exit.
    """

    exit_code: int
    traced: Counter                  # qualified feature -> count
    pseudo_files: Counter            # path -> count
    fd_peak: int
    mem_peak_kb: int
    duration_s: float
    timed_out: bool = False
    term_signal: int | None = None


class _Watchdog:
    """SIGKILLs root tracees whose run outlives its deadline.

    Every run arms it. The supervise loop checks its deadline only
    between ``waitpid`` calls, so a tracee asleep inside one syscall
    would never reach it. Killing the root tracee wakes the loop, which
    then sees the deadline and kills the rest of the tree. Signals go
    through a pidfd, so a recycled pid is never hit. One daemon thread,
    started by the first run, serves every run: a thread started per
    run cost about a tenth of a traced ``/bin/echo``'s CPU time.
    :func:`~repro.ptracer.ctypes_bindings.ptrace_works` refuses a host
    without pidfd support, so a run is always armed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: pidfd -> monotonic deadline, for every run being watched.
        self._deadlines: dict[int, float] = {}
        #: When the thread next wakes on its own; earlier deadlines
        #: notify it, later ones (the usual case) cost no wakeup.
        self._wake_at = math.inf
        self._thread: "threading.Thread | None" = None

    def arm(self, pid: int, timeout_s: float) -> int:
        """Watch *pid*; returns the handle :meth:`disarm` takes."""
        pidfd = os.pidfd_open(pid)
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

    def disarm(self, pidfd: int) -> None:
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
    ) -> None:
        self.policy = policy
        self.binaries = binaries
        self.subfeature_level = subfeature_level
        self.track_pseudofiles = track_pseudofiles
        self.timeout_s = timeout_s

    # -- public -----------------------------------------------------------

    def run(self, argv: "list[str]", env: "dict[str, str] | None" = None) -> TraceOutcome:
        """Execute *argv* under trace and return the raw outcome."""
        program = compile_filter(self.trapped_numbers())
        started = time.monotonic()
        deadline = started + self.timeout_s
        # The child runs on *tracee*'s memory until it execs: it lives
        # in this frame until the run is over.
        tracee = spawn(argv, env, ctypes.addressof(program))
        child = tracee.pid

        outcome = TraceOutcome(
            exit_code=-1,
            traced=Counter(),
            pseudo_files=Counter(),
            fd_peak=0,
            mem_peak_kb=0,
            duration_s=0.0,
        )
        # pid -> whether its syscalls are attributed and interposed.
        # The root's own seccomp stops before its exec (the exec path
        # search) are neither.
        states: dict[int, bool] = {child: False}
        try:
            watch = _WATCHDOG.arm(child, self.timeout_s)
            try:
                self._supervise(child, states, outcome, deadline)
            finally:
                _WATCHDOG.disarm(watch)
        except BaseException:
            # A root that has not exec'd still runs on *tracee*'s memory.
            self._kill_all(states)
            raise
        finally:
            outcome.duration_s = time.monotonic() - started
        # A lone root the watchdog killed empties the tree before the
        # loop can look at its deadline.
        if outcome.term_signal == signal.SIGKILL \
                and outcome.duration_s >= self.timeout_s:
            outcome.timed_out = True
        return outcome

    def trapped_numbers(self) -> "frozenset[int] | None":
        """The syscall numbers whose calls stop the tracee.

        ``None``, meaning every syscall, when the policy alters nothing
        (a baseline run traces everything); otherwise the ones whose
        action can differ from passthrough.
        """
        altered = self.policy.altered_features()
        if not altered:
            return None
        names: set[str] = set()
        for feature in altered:
            if feature.startswith("/"):
                if self.track_pseudofiles:
                    names |= OPEN_FAMILY
                continue
            syscall, _, operation = feature.partition(":")
            if not operation or self.subfeature_level:
                names.add(syscall)
        by_name = TABLE_X86_64.by_name
        return frozenset(by_name[name] for name in names if name in by_name)

    # -- parent side -----------------------------------------------------------

    def _supervise(
        self,
        root: int,
        states: "dict[int, bool]",
        outcome: TraceOutcome,
        deadline: float,
    ) -> None:
        root_execed = False

        if time.monotonic() > deadline:
            outcome.timed_out = True
            self._kill_all(states)
            return
        _, status = os.waitpid(root, WAIT_TRACEES)
        if not os.WIFSTOPPED(status):
            states.clear()
            raise TraceeError("tracee vanished before its first stop")
        ptrace(PTRACE_SETOPTIONS, root, 0, _TRACE_OPTIONS)
        ptrace(PTRACE_CONT, root, 0, 0)

        while states:
            # Checked between stops; the watchdog's SIGKILL ends a wait
            # for a stop that never comes.
            if time.monotonic() > deadline:
                outcome.timed_out = True
                self._kill_all(states)
                break
            try:
                pid, status = os.waitpid(-1, WAIT_TRACEES)
            except ChildProcessError:
                break

            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                states.pop(pid, None)
                if pid == root:
                    if not root_execed:
                        raise TraceeError("tracee exited before its exec")
                    if os.WIFEXITED(status):
                        outcome.exit_code = os.WEXITSTATUS(status)
                    else:
                        outcome.exit_code = 128 + os.WTERMSIG(status)
                        outcome.term_signal = os.WTERMSIG(status)
                continue
            if not os.WIFSTOPPED(status):
                continue

            stop_signal = os.WSTOPSIG(status)
            event = status >> 16
            deliver = 0
            if pid not in states:
                # A new child inherits supervision and the filter. Its
                # first stop is the SIGSTOP that attaches it, which it
                # must not receive.
                states[pid] = True
            elif event == PTRACE_EVENT_SECCOMP:
                if states[pid]:
                    self._on_seccomp_stop(pid, outcome)
            elif event == PTRACE_EVENT_EXEC:
                states[pid] = self._is_whitelisted(pid)
                if pid == root and not root_execed:
                    # The root's execve ran before it was attributed;
                    # it exists only because execve succeeded.
                    root_execed = True
                    if states[pid]:
                        outcome.traced["execve"] += 1
            elif event == PTRACE_EVENT_EXIT:
                if pid == root:
                    self._sample_resources(root, outcome)
            elif stop_signal != signal.SIGTRAP:
                deliver = stop_signal
            try:
                ptrace(PTRACE_CONT, pid, 0, deliver)
            except OSError:
                states.pop(pid, None)

    def _kill_all(self, states: "dict[int, bool]") -> None:
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
                pid, status = os.waitpid(-1, os.WNOHANG | WAIT_TRACEES)
            except ChildProcessError:
                break
            if not pid:
                time.sleep(0.01)
            elif os.WIFSTOPPED(status):
                # A killed tracee still stops at its exit event, and a
                # child forked just before the kill at its attach stop:
                # each must be let go to die.
                if pid not in states:
                    states[pid] = False
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(OSError):
                    ptrace(PTRACE_CONT, pid, 0, 0)
            else:
                states.pop(pid, None)
        states.clear()

    # -- syscall handling ----------------------------------------------------------

    def _on_seccomp_stop(self, pid: int, outcome: TraceOutcome) -> None:
        try:
            regs = get_regs(pid)
        except OSError:
            return
        name = TABLE_X86_64.by_number.get(int(regs.orig_rax))
        if name is None:
            return

        args = regs.syscall_args()
        subfeature = None
        if self.subfeature_level:
            index = self._selector_index(name)
            sub = decode(name, args[index]) if index is not None else None
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
        # Make the kernel skip the call and return our value instead.
        regs.orig_rax = SKIP_SYSCALL
        regs.rax = (
            NEG_ENOSYS if action is Action.STUB
            else self._fake_value(name, args)
        )
        set_regs(pid, regs)

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
        """Read the root's usage at its exit stop, where VmHWM is the
        exact peak and its descriptors are still open."""
        try:
            with open(f"/proc/{pid}/status") as status_file:
                for line in status_file:
                    if line.startswith("VmHWM:"):
                        outcome.mem_peak_kb = int(line.split()[1])
                        break
        except OSError:
            pass
        try:
            outcome.fd_peak = len(os.listdir(f"/proc/{pid}/fd"))
        except OSError:
            pass
