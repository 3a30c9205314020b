"""Shared fixtures for the test suite.

Expensive artifacts (the corpus, analyses of the hand-built apps) are
session-scoped: the analyses are deterministic, so sharing them across
tests loses nothing and saves minutes.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from repro.appsim.corpus import cloud_apps, corpus, seven_apps
from repro.core.analyzer import Analyzer, AnalyzerConfig


def pytest_configure(config):
    for marker, meaning in (
        ("e2e", "drives the real CLI end to end in subprocesses"),
        ("ptrace", "needs ptrace(2); skipped where it is not permitted"),
        ("slow", "takes seconds rather than milliseconds"),
    ):
        config.addinivalue_line("markers", f"{marker}: {meaning}")


def pytest_collection_modifyitems(config, items):
    from repro.ptracer.ctypes_bindings import ptrace_works

    if ptrace_works():
        return
    skip = pytest.mark.skip(reason="ptrace unavailable in this environment")
    for item in items:
        if "ptrace" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def cloud_app_set():
    """The 15 hand-modeled cloud applications."""
    return cloud_apps()


@pytest.fixture(scope="session")
def seven_app_set():
    """The Figure 4/5 seven-app comparison set."""
    return seven_apps()


@pytest.fixture(scope="session")
def full_corpus():
    """All 116 corpus applications."""
    return corpus()


@pytest.fixture(scope="session")
def analyzer():
    """A default 3-replica analyzer."""
    return Analyzer(AnalyzerConfig(replicas=3))


@pytest.fixture(scope="session")
def bench_results(full_corpus, analyzer):
    """Benchmark-workload analyses of the full corpus (cached)."""
    from repro.study.base import analyze_apps

    return analyze_apps(full_corpus, "bench")


@pytest.fixture(scope="session")
def seven_bench_results(seven_app_set):
    from repro.study.base import analyze_apps

    return analyze_apps(seven_app_set, "bench")


@pytest.fixture(scope="session")
def seven_suite_results(seven_app_set):
    from repro.study.base import analyze_apps

    return analyze_apps(seven_app_set, "suite")


@pytest.fixture(scope="session")
def gcc_available():
    return shutil.which("gcc") is not None


@pytest.fixture(scope="session")
def compiled_syscall_binary(tmp_path_factory, gcc_available):
    """A small -O2 binary with known inline syscalls (or skip)."""
    if not gcc_available:
        pytest.skip("gcc not available")
    source = r"""
    #include <unistd.h>
    #include <sys/syscall.h>
    static inline long my_syscall(long n) {
        long r;
        asm volatile("syscall" : "=a"(r) : "a"(n) : "rcx", "r11", "memory");
        return r;
    }
    int main(void) {
        my_syscall(SYS_getpid);
        my_syscall(SYS_getuid);
        my_syscall(SYS_sync);
        write(1, "ok\n", 3);
        return 0;
    }
    """
    directory = tmp_path_factory.mktemp("bin")
    src = directory / "probe.c"
    out = directory / "probe"
    src.write_text(source)
    subprocess.run(
        ["gcc", "-O2", "-o", str(out), str(src)], check=True, capture_output=True
    )
    return str(out)
