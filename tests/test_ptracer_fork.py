"""Tests of the tracer's two wait paths, on its one spawn.

Every tracee is started by :func:`repro.ptracer.spawn.spawn`. A tracer
that is its process's only thread bounds a run with ``sigtimedwait``;
any other tracer waits in a blocking ``waitpid`` that the watchdog
thread ends. The suite's own process holds pool, server and watchdog
threads, so in-process the one-thread path would never run: every test
here drives a fresh interpreter. Each one is pinned to one CPU, where a
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

#: Counts the tracer's spawns, in ``spawns``, and the runs that took the
#: ``sigtimedwait`` wait, in ``signalled``.
_COUNT_SPAWNS = """
spawns = signalled = 0
_spawn, _gate = tracer.spawn, tracer._can_wait_signalled

def _counted_spawn(*args):
    global spawns
    spawns += 1
    return _spawn(*args)

def _counted_gate():
    global signalled
    alone = _gate()
    signalled += alone
    return alone

tracer.spawn, tracer._can_wait_signalled = _counted_spawn, _counted_gate
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
    def test_serial_campaign_leaves_one_thread(self):
        """No watchdog thread is started, so every run of a serial
        campaign can wait in ``sigtimedwait``."""
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
        assert result == {"ok": True, "threads": 1, "names": ["MainThread"]}

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
                "signalled": signalled,
                "no_children": no_children(),
                "threads": threads(),
            }))
        """)
        assert result["timed_out"]
        assert result["elapsed"] < 2.0
        assert result["spawns"] == result["signalled"] == 1
        assert result["no_children"]
        assert result["threads"] == 1

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
                "signalled": signalled,
                "no_children": no_children(),
            }))
        """)
        assert result["faults"] == ["timeout"]
        assert result["elapsed"] < 2.0
        assert result["spawns"] == result["signalled"] == 1
        assert result["no_children"]

    def test_tracee_starts_with_no_signal_blocked(self):
        """The spawn blocks every signal around the clone and the tracer
        blocks ``SIGCHLD`` after it, but the tracee (which keeps its
        mask across exec) blocks nothing, and the tracer's own mask is
        restored after the run."""
        result, lines = _fresh("""
            outcome = tracer.SyscallTracer(passthrough()).run(
                ["grep", "SigBlk", "/proc/self/status"]
            )
            print(json.dumps({
                "exit_code": outcome.exit_code,
                "spawns": spawns,
                "signalled": signalled,
                "mask_after": sorted(signal.pthread_sigmask(signal.SIG_BLOCK, [])),
            }))
        """)
        assert result == {
            "exit_code": 0, "spawns": 1, "signalled": 1, "mask_after": [],
        }
        assert lines == ["SigBlk:\t0000000000000000"]


class TestDeadline:
    @pytest.mark.parametrize("setup, signalled", [("", 1), ("idle_thread()", 0)])
    def test_tracee_that_keeps_stopping_is_reaped(self, setup, signalled):
        """A tracee killed at the deadline between two of its stops still
        stops at its exit event; it is let go to die, not left stopped,
        on either wait."""
        result, _ = _fresh(f"""
            {setup}
            spin = "import os\\nwhile True: os.getppid()"
            outcome = tracer.SyscallTracer(passthrough(), timeout_s=0.5).run(
                [sys.executable, "-S", "-c", spin]
            )
            print(json.dumps({{
                "timed_out": outcome.timed_out,
                "spawns": spawns,
                "signalled": signalled,
                "no_children": no_children(),
            }}))
        """)
        assert result == {
            "timed_out": True, "spawns": 1, "signalled": signalled,
            "no_children": True,
        }


class TestGate:
    def test_a_gil_hungry_thread_takes_the_watchdog_wait(self):
        """With another thread asking for the GIL through 300 runs, every
        run uses the same spawn and takes the watchdog wait, none hangs,
        and each observes what the same run observed alone."""
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
            counts_alone = [spawns, signalled]
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
                "alone": counts_alone,
                "with_thread": [spawns - counts_alone[0], signalled - counts_alone[1]],
                "mismatched": sum(
                    run != alone[index % 3] for index, run in enumerate(runs)
                ),
                "spins": spins[0],
                "spinner_alive": spinner.is_alive(),
            }))
        """, timeout=300.0)
        assert result["alone"] == [3, 3]
        assert result["with_thread"] == [300, 0]
        assert result["mismatched"] == 0
        assert result["spins"] > 0
        assert not result["spinner_alive"]

    def test_an_ignored_sigchld_takes_the_watchdog_wait(self):
        """An ignored ``SIGCHLD`` is never sent for a stop, so
        ``sigtimedwait`` would sleep to the deadline."""
        result, _ = _fresh("""
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            outcome = tracer.SyscallTracer(passthrough(), timeout_s=30.0).run(
                ["/bin/true"]
            )
            print(json.dumps({
                "exit_code": outcome.exit_code,
                "timed_out": outcome.timed_out,
                "spawns": spawns,
                "signalled": signalled,
            }))
        """)
        assert result == {
            "exit_code": 0, "timed_out": False, "spawns": 1, "signalled": 0,
        }


class TestPathEquivalence:
    def test_both_paths_reach_the_same_analysis(self, tmp_path):
        """A serial campaign on the ``sigtimedwait`` wait and on the
        watchdog wait (forced by an idle thread) finds the same sets,
        and a passthrough run traces the same calls."""
        (tmp_path / "input.txt").write_text("one line of fixed input\n")
        body = """
            from repro import LoupeSession
            from repro.api.session import AnalysisRequest
            {setup}
            commands = [
                ["/bin/true"], ["/bin/echo", "loupe"],
                ["/bin/ls", {directory!r}], ["/bin/date", "-u"],
            ]
            found = {{}}
            with LoupeSession() as session:
                for argv in commands:
                    report = session.analyze(AnalysisRequest(
                        backend="ptrace", argv=tuple(argv), timeout_s=10.0,
                    ))
                    traced = tracer.SyscallTracer(passthrough()).run(argv).traced
                    found[argv[0]] = {{
                        "required": sorted(report.required_syscalls()),
                        "avoidable": sorted(report.avoidable_syscalls()),
                        "stubbable": sorted(report.stubbable_syscalls()),
                        "fakeable": sorted(report.fakeable_syscalls()),
                        "final_run_ok": report.final_run_ok,
                        "traced": dict(traced),
                    }}
            print(json.dumps({{
                "found": found, "spawns": spawns, "signalled": signalled,
            }}))
        """
        directory = str(tmp_path)
        signalled, _ = _fresh(body.format(setup="", directory=directory))
        watched, _ = _fresh(body.format(setup="idle_thread()", directory=directory))
        assert signalled["spawns"] == signalled["signalled"] > 0
        assert watched["spawns"] > 0 and watched["signalled"] == 0
        assert signalled["found"] == watched["found"]
        assert all(entry["final_run_ok"] for entry in signalled["found"].values())
