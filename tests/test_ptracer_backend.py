"""End-to-end tests: the Loupe analyzer on real Linux binaries."""

import os
import sys
import time

import pytest

from repro.core.analyzer import Analyzer, AnalyzerConfig
from repro.core.faults import FAULT_TIMEOUT, FaultPolicy, guarded_run
from repro.core.policy import passthrough
from repro.core.workload import CommandWorkload, WorkloadKind
from repro.errors import BackendError
from repro.ptracer.backend import PtraceBackend, _parse_metric

pytestmark = pytest.mark.ptrace


def _workload(argv, **kwargs):
    return CommandWorkload(
        name="cmd", kind=WorkloadKind.HEALTH_CHECK, argv=tuple(argv),
        timeout_s=30.0, **kwargs,
    )


class TestBackend:
    def test_run_true(self):
        backend = PtraceBackend()
        result = backend.run(_workload(["/bin/true"]), passthrough())
        assert result.success
        assert result.traced

    def test_run_false_fails(self):
        backend = PtraceBackend()
        result = backend.run(_workload(["/bin/false"]), passthrough())
        assert not result.success
        assert "exit code 1" in result.failure_reason

    def test_expected_exit_code(self):
        backend = PtraceBackend()
        result = backend.run(
            _workload(["/bin/false"], expect_exit_code=1), passthrough()
        )
        assert result.success

    def test_test_script_decides(self):
        backend = PtraceBackend()
        workload = _workload(
            ["/bin/true"], test_argv=("/bin/sh", "-c", "echo 42.5")
        )
        result = backend.run(workload, passthrough())
        assert result.success
        assert result.metric == 42.5

    def test_failing_test_script(self):
        backend = PtraceBackend()
        workload = _workload(["/bin/true"], test_argv=("/bin/false",))
        result = backend.run(workload, passthrough())
        assert not result.success

    def test_rejects_sim_workload(self):
        from repro.core.workload import health_check

        backend = PtraceBackend()
        with pytest.raises(BackendError):
            backend.run(health_check("health"), passthrough())


class TestProbeDeadline:
    """A probe timeout stops the tracee; the workload's own timeout
    still makes a failed run."""

    def _guarded(self, workload):
        started = time.monotonic()
        outcome = guarded_run(
            PtraceBackend(), workload, passthrough(), 0,
            FaultPolicy(probe_timeout_s=0.3, on_fault="degrade"),
        )
        return outcome, time.monotonic() - started

    def _assert_no_child_left(self):
        """No ``sleep`` child of this process, live or unreaped. (The
        shared worker pool's processes are children too, so
        ``waitpid(-1)`` cannot answer this inside the suite.)"""
        me = str(os.getpid())
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:  # exited meanwhile
                continue
            comm, _, rest = stat.partition("(")[2].rpartition(")")
            assert not (comm == "sleep" and rest.split()[1] == me), entry

    def test_probe_deadline_kills_the_tracee(self):
        outcome, elapsed = self._guarded(_workload(["/bin/sleep", "5"]))
        assert elapsed < 2.0
        assert outcome.faulted
        assert outcome.failures[0].kind == FAULT_TIMEOUT
        self._assert_no_child_left()

    def test_probe_deadline_bounds_the_test_script(self):
        outcome, elapsed = self._guarded(_workload(
            ["/bin/true"], test_argv=("/bin/sleep", "5"),
        ))
        assert elapsed < 2.0
        assert outcome.failures[0].kind == FAULT_TIMEOUT
        self._assert_no_child_left()

    def test_workload_timeout_stays_a_failed_run(self):
        workload = CommandWorkload(
            name="cmd", kind=WorkloadKind.HEALTH_CHECK,
            argv=("/bin/sleep", "5"), timeout_s=0.3,
        )
        result = PtraceBackend().run(workload, passthrough())
        assert not result.success
        assert "timed out after" in result.failure_reason
        self._assert_no_child_left()


class TestMetricParsing:
    def test_parse_last_number(self):
        assert _parse_metric("starting\n123.5\n") == 123.5

    def test_parse_non_number(self):
        assert _parse_metric("all done\n") is None

    def test_parse_empty(self):
        assert _parse_metric("") is None


@pytest.mark.slow
class TestFullAnalysisOnRealBinary:
    def test_analyze_echo(self):
        """A complete Loupe analysis of /bin/echo: the mini version of
        the paper's per-app studies, on a live binary."""
        backend = PtraceBackend()
        workload = CommandWorkload(
            name="echo-health",
            kind=WorkloadKind.HEALTH_CHECK,
            argv=("/bin/echo", "hello"),
            timeout_s=30.0,
        )
        config = AnalyzerConfig(replicas=1, subfeature_level=False)
        result = Analyzer(config).analyze(backend, workload, app="echo")
        traced = result.traced_syscalls()
        required = result.required_syscalls()
        assert {"execve", "mmap"} <= traced
        assert required <= traced
        # The paper's core claim, live: a real program runs fine with a
        # good chunk of its syscalls stubbed or faked.
        assert len(result.avoidable_syscalls()) >= len(traced) * 0.2
        # The fundamentally required machinery stays required.
        assert "execve" in required or "mmap" in required
