"""Tests for the real ptrace interposition tracer.

All tests are marked ``ptrace`` and skipped automatically when the
environment forbids ptrace(2). They validate the paper's core
mechanism on live processes: tracing, stubbing, faking, whitelisting,
sub-feature decoding, and resource sampling.
"""

import sys
import threading
import time

import pytest

from repro.core.policy import combined, faking, passthrough, stubbing
from repro.errors import TraceeError
from repro.ptracer.tracer import SyscallTracer

pytestmark = pytest.mark.ptrace


def _trace(policy, argv, **kwargs):
    return SyscallTracer(policy, **kwargs).run(list(argv))


class TestTracing:
    def test_echo_traces_libc_init(self):
        outcome = _trace(passthrough(), ["/bin/echo", "hello"])
        assert outcome.exit_code == 0
        traced = {k for k in outcome.traced if ":" not in k}
        # The glibc startup sequence of Table 4, live.
        assert {"execve", "mmap", "openat", "read", "close", "write"} <= traced

    def test_invocation_counts_positive(self):
        outcome = _trace(passthrough(), ["/bin/echo", "hi"])
        assert all(count > 0 for count in outcome.traced.values())

    def test_subfeature_decoding(self):
        """arch_prctl(ARCH_SET_FS) is decoded live (Section 5.4)."""
        outcome = _trace(passthrough(), ["/bin/echo", "hi"])
        assert outcome.traced.get("arch_prctl:ARCH_SET_FS", 0) >= 1

    def test_resource_sampling(self):
        outcome = _trace(
            passthrough(),
            [sys.executable, "-c", "x = bytearray(4_000_000); print(1)"],
        )
        assert outcome.exit_code == 0
        assert outcome.mem_peak_kb > 3_000

    def test_resources_sampled_when_nothing_is_trapped(self):
        """Usage is read at the root's exit, so a run that never stops
        on a syscall still reports it."""
        outcome = _trace(stubbing("mremap"), ["/bin/true"])
        assert outcome.exit_code == 0
        assert set(outcome.traced) == {"execve"}
        assert outcome.mem_peak_kb > 0
        assert outcome.fd_peak >= 3

    def test_pseudofile_detection(self):
        outcome = _trace(
            passthrough(),
            [sys.executable, "-c", "open('/proc/self/status').read()"],
        )
        assert any(
            path.startswith("/proc") for path in outcome.pseudo_files
        )

    def test_follows_children(self):
        script = "import os; pid=os.fork(); os.wait() if pid else os._exit(0)"
        outcome = _trace(passthrough(), [sys.executable, "-c", script])
        assert outcome.exit_code == 0


class TestConcurrentTracers:
    def test_tracer_threads_keep_their_own_tracees(self):
        """Each tracer waits only for its own tracees, so another tracer
        thread never reaps them."""
        outcomes, errors = [], []

        def loop():
            try:
                for _ in range(10):
                    outcomes.append(_trace(
                        passthrough(), ["/bin/echo", "x"], timeout_s=10.0
                    ))
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        # More tracer threads than a two-core runner has cores.
        threads = [threading.Thread(target=loop) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert errors == []
        assert len(outcomes) == 30
        for outcome in outcomes:
            assert outcome.exit_code == 0
            assert outcome.traced["write"] >= 1


class TestRootExec:
    def test_root_exec_is_neither_stubbed_nor_trapped_twice(self):
        """The root's own execve runs before its calls are attributed,
        and counts once, at its exec event."""
        outcome = _trace(stubbing("execve"), ["/bin/echo", "x"])
        assert outcome.exit_code == 0
        assert outcome.traced["execve"] == 1

    def test_command_that_cannot_exec_raises(self):
        with pytest.raises(TraceeError):
            _trace(passthrough(), ["/no/such/binary"])


class TestStubbing:
    def test_stub_write_breaks_echo(self):
        """echo checks write's result: stubbing it fails the run."""
        outcome = _trace(stubbing("write"), ["/bin/echo", "x"])
        assert outcome.exit_code != 0

    def test_stub_getrandom_survivable(self):
        """glibc falls back when getrandom is unavailable."""
        outcome = _trace(stubbing("getrandom"), ["/bin/echo", "x"])
        assert outcome.exit_code == 0

    def test_stubbed_syscall_still_traced(self):
        outcome = _trace(stubbing("getrandom"), ["/bin/echo", "x"])
        assert outcome.traced.get("getrandom", 0) >= 0  # traced when invoked


class TestFaking:
    def test_fake_write_lies_successfully(self):
        """Faked write returns the full length: echo exits 0, silently."""
        outcome = _trace(faking("write"), ["/bin/echo", "INVISIBLE"])
        assert outcome.exit_code == 0

    def test_fake_vs_stub_differ_for_write(self):
        stub = _trace(stubbing("write"), ["/bin/echo", "x"])
        fake = _trace(faking("write"), ["/bin/echo", "x"])
        assert stub.exit_code != 0
        assert fake.exit_code == 0

    def test_combined_policy(self):
        policy = combined(stubs=["getrandom"], fakes=["write"])
        outcome = _trace(policy, ["/bin/echo", "x"])
        assert outcome.exit_code == 0


class TestTimeoutAndWhitelist:
    def test_timeout_kills_hung_process(self):
        """The timeout bounds a tracee blocked inside one syscall."""
        started = time.monotonic()
        outcome = _trace(
            passthrough(),
            [sys.executable, "-c", "import time; time.sleep(60)"],
            timeout_s=1.5,
        )
        assert outcome.timed_out
        assert time.monotonic() - started < 3.0

    def test_whitelist_excludes_other_binaries(self):
        """Syscalls from non-whitelisted binaries are not attributed
        (the Ruby-test-suite-calls-git scenario of Section 3.3)."""
        outcome = SyscallTracer(
            passthrough(),
            binaries=frozenset({"/no/such/binary"}),
        ).run(["/bin/echo", "hi"])
        assert outcome.exit_code == 0
        assert not outcome.traced

    def test_whitelist_includes_named_binary(self):
        import os

        echo = os.path.realpath("/bin/echo")
        outcome = SyscallTracer(
            passthrough(), binaries=frozenset({echo})
        ).run(["/bin/echo", "hi"])
        assert outcome.traced
