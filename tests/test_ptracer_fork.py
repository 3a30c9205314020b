"""Tests of the tracer's one wait, on its one spawn, from a fresh
interpreter.

Every tracee is started by :func:`repro.ptracer.spawn.spawn`, and
every run waits in a blocking ``waitpid`` that the watchdog thread ends
at the deadline. The suite's own process holds pool and server
threads, so the thread counts here, and the reaping of tracees, are
checked in a fresh interpreter. Each one is pinned to one CPU, where a
ptrace stop hands the CPU straight between tracee and tracer; across
CPUs a campaign takes about three times as long.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.ptrace

SRC = Path(repro.__file__).resolve().parent.parent

_PRELUDE = """
import json, os, signal, sys, threading, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
from repro.core.policy import faking, passthrough, stubbing
from repro.ptracer import tracer

def threads():
    return len(os.listdir("/proc/self/task"))

def no_children():
    try:
        os.waitpid(-1, os.WNOHANG | 0x40000000)  # __WALL
    except ChildProcessError:
        return True
    return False

def idle_thread():
    threading.Thread(target=threading.Event().wait, daemon=True).start()
"""

#: Counts the tracer's spawns, in ``spawns``.
_COUNT_SPAWNS = """
spawns = 0
_spawn = tracer.spawn

def _counted_spawn(*args):
    global spawns
    spawns += 1
    return _spawn(*args)

tracer.spawn = _counted_spawn
"""


def _fresh(body: str, *, count_spawns: bool = True, timeout: float = 120.0):
    """Run *body* in a fresh interpreter; returns its stdout lines, the
    last of which is the JSON document *body* printed."""
    script = _PRELUDE + (_COUNT_SPAWNS if count_spawns else "")
    completed = subprocess.run(
        [sys.executable, "-c", script + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


class TestOneThreadPath:
    """A tracer that starts no thread of its own: the process gains the
    watchdog and nothing else."""

    def test_serial_campaign_leaves_one_thread(self):
        """A serial campaign leaves one thread beside the main one: the
        watchdog that every run arms."""
        result, _ = _fresh("""
            from repro import LoupeSession
            from repro.api.session import AnalysisRequest
            with LoupeSession() as session:
                report = session.analyze(AnalysisRequest(
                    backend="ptrace", argv=("/bin/true",), timeout_s=10.0,
                ))
            print(json.dumps({
                "ok": report.final_run_ok,
                "threads": threads(),
                "names": [thread.name for thread in threading.enumerate()],
            }))
        """, count_spawns=False)
        assert result == {
            "ok": True, "threads": 2,
            "names": ["MainThread", "loupe-ptrace-watchdog"],
        }

    def test_timeout_stops_a_sleeping_tracee(self):
        result, _ = _fresh("""
            started = time.monotonic()
            outcome = tracer.SyscallTracer(passthrough(), timeout_s=0.3).run(
                ["/bin/sleep", "5"]
            )
            print(json.dumps({
                "timed_out": outcome.timed_out,
                "elapsed": time.monotonic() - started,
                "spawns": spawns,
                "no_children": no_children(),
                "threads": threads(),
            }))
        """)
        assert result["timed_out"]
        assert result["elapsed"] < 2.0
        assert result["spawns"] == 1
        assert result["no_children"]
        assert result["threads"] == 2

    def test_probe_timeout_is_a_timeout_fault(self):
        result, _ = _fresh("""
            from repro.core.faults import FaultPolicy, guarded_run
            from repro.core.workload import CommandWorkload, WorkloadKind
            from repro.ptracer.backend import PtraceBackend
            workload = CommandWorkload(
                name="sleep", kind=WorkloadKind.HEALTH_CHECK,
                argv=("/bin/sleep", "5"), timeout_s=30.0,
            )
            started = time.monotonic()
            outcome = guarded_run(
                PtraceBackend(), workload, passthrough(), 0,
                FaultPolicy(probe_timeout_s=0.3, on_fault="degrade"),
            )
            print(json.dumps({
                "faults": [failure.kind for failure in outcome.failures],
                "elapsed": time.monotonic() - started,
                "spawns": spawns,
                "no_children": no_children(),
            }))
        """)
        assert result["faults"] == ["timeout"]
        assert result["elapsed"] < 2.0
        assert result["spawns"] == 1
        assert result["no_children"]

    def test_tracee_starts_with_no_signal_blocked(self):
        """The spawn blocks every signal around the clone, but the
        tracee (which keeps its mask across exec) blocks nothing, and
        the tracer's own mask is restored after the run."""
        result, lines = _fresh("""
            outcome = tracer.SyscallTracer(passthrough()).run(
                ["grep", "SigBlk", "/proc/self/status"]
            )
            print(json.dumps({
                "exit_code": outcome.exit_code,
                "spawns": spawns,
                "mask_after": sorted(signal.pthread_sigmask(signal.SIG_BLOCK, [])),
            }))
        """)
        assert result == {"exit_code": 0, "spawns": 1, "mask_after": []}
        assert lines == ["SigBlk:\t0000000000000000"]


class TestDeadline:
    @pytest.mark.parametrize(
        "setup", ["", "idle_thread()"], ids=["alone", "beside_a_thread"]
    )
    def test_tracee_that_keeps_stopping_is_reaped(self, setup):
        """A tracee killed at the deadline between two of its stops still
        stops at its exit event; it is let go to die, not left stopped,
        whether or not the tracer shares its process."""
        result, _ = _fresh(f"""
            {setup}
            spin = "import os\\nwhile True: os.getppid()"
            outcome = tracer.SyscallTracer(passthrough(), timeout_s=0.5).run(
                [sys.executable, "-S", "-c", spin]
            )
            print(json.dumps({{
                "timed_out": outcome.timed_out,
                "spawns": spawns,
                "no_children": no_children(),
            }}))
        """)
        assert result == {"timed_out": True, "spawns": 1, "no_children": True}


class TestGate:
    """Runs beside another thread, or with ``SIGCHLD`` ignored, take
    the same wait and observe the same calls."""

    def test_a_gil_hungry_thread_takes_the_watchdog_wait(self):
        """With another thread asking for the GIL through 300 runs, every
        run uses the same spawn, none hangs, and each observes what the
        same run observed alone."""
        result, _ = _fresh("""
            cases = [
                (stubbing("write"), ["/bin/echo", "x"]),
                (faking("write"), ["/bin/echo", "x"]),
                (stubbing("mremap"), ["/bin/true"]),
            ]

            def observe(policy, argv):
                outcome = tracer.SyscallTracer(policy, timeout_s=30.0).run(argv)
                return [outcome.exit_code, dict(outcome.traced), outcome.timed_out]

            alone = [observe(*case) for case in cases]
            spawns_alone = spawns
            stop = threading.Event()
            spins = [0]

            def spin():
                while not stop.is_set():
                    spins[0] += 1

            sys.setswitchinterval(1e-4)
            spinner = threading.Thread(target=spin, daemon=True)
            spinner.start()
            try:
                runs = [observe(*cases[index % 3]) for index in range(300)]
            finally:
                stop.set()
                spinner.join(10.0)
            print(json.dumps({
                "alone": spawns_alone,
                "with_thread": spawns - spawns_alone,
                "mismatched": sum(
                    run != alone[index % 3] for index, run in enumerate(runs)
                ),
                "spins": spins[0],
                "spinner_alive": spinner.is_alive(),
            }))
        """, timeout=300.0)
        assert result["alone"] == 3
        assert result["with_thread"] == 300
        assert result["mismatched"] == 0
        assert result["spins"] > 0
        assert not result["spinner_alive"]

    def test_an_ignored_sigchld_takes_the_watchdog_wait(self):
        """An ignored ``SIGCHLD`` is never sent for a stop; a blocking
        ``waitpid`` still sees every stop and the exit."""
        result, _ = _fresh("""
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            outcome = tracer.SyscallTracer(passthrough(), timeout_s=30.0).run(
                ["/bin/true"]
            )
            print(json.dumps({
                "exit_code": outcome.exit_code,
                "timed_out": outcome.timed_out,
                "spawns": spawns,
            }))
        """)
        assert result == {"exit_code": 0, "timed_out": False, "spawns": 1}


class TestPidfd:
    def test_no_pidfd_means_no_tracer(self):
        """The watchdog signals through a pidfd, so a host that refuses
        one has no ``ptrace`` backend; the probe's child is reaped."""
        result, _ = _fresh("""
            from repro.ptracer import ctypes_bindings

            def refuse(pid, flags=0):
                raise OSError(38, "Function not implemented")

            os.pidfd_open = refuse
            print(json.dumps({
                "works": ctypes_bindings.ptrace_works(),
                "no_children": no_children(),
            }))
        """, count_spawns=False)
        assert result == {"works": False, "no_children": True}
