"""CI keeps the live tracer's coverage.

Tests marked ``ptrace`` skip where :func:`ptrace_works` is False: a host
that refuses ptrace(2) or seccomp filters. On a CI runner (the ``CI``
environment variable set) that would silently drop every live-tracer
test, so there this test fails instead.
"""

import os

from repro.ptracer import ptrace_works


def test_ci_runner_permits_seccomp_filtered_ptrace():
    assert not os.environ.get("CI") or ptrace_works(), (
        "CI is set but this runner refuses ptrace or seccomp: every "
        "ptrace-marked test would skip"
    )
