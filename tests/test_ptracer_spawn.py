"""Tests of the tracee spawn: the machine code that runs between clone
and exec, and what the tracee inherits from it."""

import ctypes
import os
import shutil
import signal
import subprocess
import threading
from pathlib import Path

import pytest

from repro.core.policy import passthrough
from repro.errors import TraceeError
from repro.ptracer import spawn as spawn_module
from repro.ptracer.ctypes_bindings import (
    PTRACE_CONT,
    PTRACE_O_EXITKILL,
    PTRACE_O_TRACESECCOMP,
    PTRACE_SETOPTIONS,
    WAIT_TRACEES,
    compile_filter,
    ptrace,
)
from repro.ptracer.spawn import exec_candidates, spawn
from repro.ptracer.tracer import SyscallTracer
from repro.syscalls import number_of


def _status_mask(text: str, field: str) -> int:
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1], 16)
    raise AssertionError(f"no {field} in {text!r}")


def _traced_status(capfd) -> str:
    capfd.readouterr()
    outcome = SyscallTracer(passthrough()).run(["cat", "/proc/self/status"])
    assert outcome.exit_code == 0
    return capfd.readouterr().out


class TestMachineCode:
    def test_bytes_match_their_assembly(self, tmp_path):
        """``CHILD_CODE`` is ``spawn_child.S`` assembled, byte for byte."""
        if not (shutil.which("gcc") and shutil.which("objcopy")):
            pytest.skip("needs gcc and objcopy")
        source = Path(spawn_module.__file__).with_name("spawn_child.S")
        obj, binary = tmp_path / "child.o", tmp_path / "child.bin"
        subprocess.run(["gcc", "-c", str(source), "-o", str(obj)], check=True)
        subprocess.run(
            ["objcopy", "-O", "binary", "-j", ".text", str(obj), str(binary)],
            check=True,
        )
        assert binary.read_bytes() == spawn_module.CHILD_CODE


class TestExecCandidates:
    def test_a_path_is_tried_alone(self):
        assert exec_candidates(["./tool", "x"], {"PATH": "/a"}) == [b"./tool"]

    def test_a_bare_name_is_tried_in_each_path_directory(self):
        assert exec_candidates(["tool"], {"PATH": "/a:/b/"}) == [
            b"/a/tool", b"/b/tool",
        ]

    def test_no_environment_searches_this_process_path(self, monkeypatch):
        monkeypatch.setenv("PATH", "/x:/y")
        assert exec_candidates(["tool"], None) == [b"/x/tool", b"/y/tool"]


@pytest.mark.ptrace
class TestTracee:
    def test_ignored_signals_are_inherited_unchanged(self, capfd):
        """What the tracer ignores the tracee ignores, Python's
        ``SIGPIPE`` included, as across a fork and exec."""
        ours = _status_mask(Path("/proc/self/status").read_text(), "SigIgn")
        assert ours & 1 << (signal.SIGPIPE - 1)
        assert _status_mask(_traced_status(capfd), "SigIgn") == ours

    def test_a_python_caught_signal_arrives_as_default(self):
        """A signal the tracer handles in Python is at its default
        action in the tracee: ``SIGUSR1`` kills it."""
        caught = []
        previous = signal.signal(signal.SIGUSR1, lambda *_: caught.append(1))
        try:
            outcome = SyscallTracer(passthrough(), timeout_s=30.0).run(
                ["/bin/sh", "-c", "kill -USR1 $$; exit 3"]
            )
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert outcome.term_signal == signal.SIGUSR1
        assert outcome.exit_code == 128 + signal.SIGUSR1
        assert caught == []

    def test_a_signal_pending_before_exec_takes_its_default_action(self):
        """A signal sent while the child is still on the tracer's memory
        waits, blocked, until the child restores the mask, and then
        kills it: the tracer's Python handler never runs in the child."""
        caught = []
        previous = signal.signal(signal.SIGUSR1, lambda *_: caught.append(1))
        program = compile_filter(frozenset({number_of("execve")}))
        statuses = []
        try:
            child = spawn(["/bin/true"], None, ctypes.addressof(program))
            deliver = 0
            while not statuses or os.WIFSTOPPED(statuses[-1]):
                _, status = os.waitpid(child.pid, WAIT_TRACEES)
                statuses.append(status)
                if len(statuses) == 1:
                    os.kill(child.pid, signal.SIGUSR1)
                    ptrace(
                        PTRACE_SETOPTIONS, child.pid, 0,
                        PTRACE_O_TRACESECCOMP | PTRACE_O_EXITKILL,
                    )
                elif os.WIFSTOPPED(status):
                    deliver = os.WSTOPSIG(status)
                if os.WIFSTOPPED(status):
                    ptrace(PTRACE_CONT, child.pid, 0, deliver)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert [status >> 8 for status in statuses[:-1]] == [
            signal.SIGSTOP, signal.SIGUSR1,
        ]
        assert os.WIFSIGNALED(statuses[-1])
        assert os.WTERMSIG(statuses[-1]) == signal.SIGUSR1
        assert caught == []

    def test_a_bare_name_is_found_through_the_env_path(self, tmp_path):
        """``argv[0]`` without a slash is looked up in *env*'s ``PATH``,
        not in the tracer's own."""
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "loupe-true").symlink_to(shutil.which("true"))
        env = {"PATH": f"{tmp_path / 'missing'}:{bin_dir}"}
        outcome = SyscallTracer(passthrough()).run(["loupe-true"], env)
        assert outcome.exit_code == 0
        assert outcome.traced["execve"] == 1
        with pytest.raises(TraceeError, match="exited before its exec"):
            SyscallTracer(passthrough()).run(["loupe-true"])

    def test_the_environment_is_the_tracers_or_the_given_one(self, monkeypatch):
        """Without *env* the tracee gets the tracer's environment, with
        it exactly *env*."""
        monkeypatch.setenv("LOUPE_SPAWN_CHECK", "inherited")
        inherited = SyscallTracer(passthrough()).run(
            ["/bin/sh", "-c", '[ "$LOUPE_SPAWN_CHECK" = inherited ]']
        )
        given = SyscallTracer(passthrough()).run(
            ["/bin/sh", "-c", '[ "$LOUPE_SPAWN_CHECK" = given ] && [ -z "$HOME" ]'],
            {"LOUPE_SPAWN_CHECK": "given"},
        )
        assert (inherited.exit_code, given.exit_code) == (0, 0)

    def test_a_missing_binary_is_a_tracee_error(self, tmp_path):
        with pytest.raises(TraceeError, match="exited before its exec"):
            SyscallTracer(passthrough()).run([str(tmp_path / "missing")])

    def test_two_threads_spawning_at_once_trace_their_own_commands(self):
        rounds = 20
        barrier = threading.Barrier(2)
        codes: dict = {3: [], 5: []}

        def trace(code: int) -> None:
            for _ in range(rounds):
                barrier.wait(timeout=30.0)
                outcome = SyscallTracer(passthrough(), timeout_s=30.0).run(
                    ["/bin/sh", "-c", f"exit {code}"]
                )
                codes[code].append(outcome.exit_code)

        threads = [threading.Thread(target=trace, args=(code,)) for code in codes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert codes == {3: [3] * rounds, 5: [5] * rounds}
