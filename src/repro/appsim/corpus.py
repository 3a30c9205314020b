"""The 116-application corpus.

Fifteen cloud applications are hand-modeled from the paper's text
(:mod:`repro.appsim.apps`); the rest of the corpus is generated
deterministically from seeded templates so that the aggregate
statistics of Section 5.1 hold:

* ~180 distinct syscalls traced across the corpus (naive dynamic view),
* ~148 of them required by at least one application (Loupe view),
* the most commonly *traced* syscalls (libc init + housekeeping)
  appear in nearly every application, while required-ness thins out —
  naive analysis dominates Loupe pointwise on the importance curve
  (Figure 3).

Generation is pure: ``corpus()`` always returns the same applications,
op for op. Each synthetic app is assembled from the same building
blocks as the hand-built ones, with seeded variation in category,
libc, resilience strictness, and a long tail of rare syscalls.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable

from repro.appsim.apps import App
from repro.appsim.apps import haproxy, lighttpd, memcached, nginx, redis, sqlite, weborf
from repro.appsim.apps import databases, misc, webservers
from repro.appsim.apps.blocks import op, with_static_views
from repro.appsim.behavior import (
    abort,
    breaks,
    breaks_core,
    disable,
    harmless,
    ignore,
    safe_default,
)
from repro.appsim.libc import LibcModel
from repro.appsim.program import Phase, SimProgram, WorkloadProfile
from repro.core.workload import benchmark, health_check, test_suite

#: Builders for the hand-modeled applications, keyed by app name.
HANDBUILT: dict[str, Callable[[], App]] = {
    "redis": redis.build,
    "nginx": nginx.build,
    "memcached": memcached.build,
    "sqlite": sqlite.build,
    "haproxy": haproxy.build,
    "lighttpd": lighttpd.build,
    "weborf": weborf.build,
    "h2o": webservers.build_h2o,
    "httpd": webservers.build_httpd,
    "webfsd": webservers.build_webfsd,
    "mongodb": databases.build_mongodb,
    "postgres": databases.build_postgres,
    "mysql": databases.build_mysql,
    "iperf3": misc.build_iperf3,
    "etcd": misc.build_etcd,
}

#: The paper's Figure 4/5 seven-app comparison set.
SEVEN_APPS = ("redis", "nginx", "memcached", "sqlite", "haproxy", "lighttpd", "weborf")

#: The 15 popular cloud applications targeted by Table 1.
CLOUD_APPS = tuple(HANDBUILT)

CORPUS_SIZE = 116

_CATEGORIES = (
    "web-server", "kv-store", "database", "proxy", "tool",
    "runtime", "message-queue",
)

#: Rare syscalls sprinkled across synthetic apps so the corpus-wide
#: traced union reaches the paper's ~180 distinct syscalls. Sized so
#: that core blocks (~110 distinct across the corpus) plus this tail
#: land near 180.
_TAIL_SYSCALLS = tuple(
    "alarm getitimer setitimer pause dup3 chown fchmod fchown "
    "mknod symlink link rmdir utime utimes truncate sync "
    "capget capset setpriority getpriority sched_setscheduler "
    "sched_setparam setreuid setregid setresuid getresuid "
    "getsid getpgid setpgid getpgrp personality getgroups times "
    "signalfd4 inotify_init1 inotify_add_watch inotify_rm_watch "
    "timer_create timer_settime timer_delete waitid "
    "splice sync_file_range preadv pwritev setxattr "
    "getxattr listxattr epoll_pwait "
    "mlock munlock mlockall msync "
    "getcpu ioprio_set unshare "
    "seccomp membarrier "
    "statx rseq semctl "
    "msgget msgsnd mq_open mq_timedsend "
    "renameat2 symlinkat linkat "
    "fchownat faccessat pselect6 ppoll "
    "sendmmsg recvmmsg syslog "
    "_sysctl restart_syscall sendfile readahead fadvise64 "
    "io_setup tkill "
    "rt_sigpending rt_sigtimedwait "
    "get_robust_list perf_event_open getdents".split()
)


def _synthetic_app(index: int) -> App:
    """Build synthetic corpus member *index* (deterministic)."""
    rng = random.Random(0xC0FFEE ^ (index * 2654435761))
    category = _CATEGORIES[index % len(_CATEGORIES)]
    name = f"app-{index:03d}"
    vendor = "musl" if rng.random() < 0.15 else "glibc"
    go_style = rng.random() < 0.08

    ops = []
    features = {"core", "extra"}
    if go_style:
        ops += [
            op("execve", 1, on_stub=abort(), on_fake=breaks_core()),
            op("arch_prctl", 1, subfeature="ARCH_SET_FS",
               on_stub=abort(), on_fake=breaks_core()),
            op("mmap", 8, on_stub=abort(), on_fake=breaks_core()),
            op("rt_sigaction", 40, on_stub=abort(), on_fake=breaks_core()),
            op("rt_sigprocmask", 12, on_stub=abort(), on_fake=breaks_core()),
            op("sigaltstack", 2, on_stub=abort(), on_fake=breaks_core()),
            op("clone", 6, on_stub=abort(), on_fake=breaks_core()),
            op("futex", 64, phase=Phase.WORKLOAD, checks_return=False,
               on_stub=abort(), on_fake=breaks_core()),
            op("gettid", 4, checks_return=False, on_stub=ignore(), on_fake=harmless()),
            op("sched_getaffinity", 1, checks_return=False,
               on_stub=ignore(), on_fake=harmless()),
            op("madvise", 2, subfeature="MADV_NOHUGEPAGE", checks_return=False,
               on_stub=ignore(), on_fake=harmless()),
        ]
    else:
        libc = LibcModel(
            vendor,
            "2.28" if vendor == "glibc" else "1.2.2",
            "dynamic",
            brk_fallback_mem_frac=round(rng.uniform(0.02, 0.12), 2),
        )
        ops += list(libc.init_ops())
        ops += list(libc.runtime_ops(threaded=rng.random() < 0.5))

    # Apps are bimodal (the Figure 2 effect): most need only the common
    # core plus avoidable extras; a hard minority validates aggressively
    # and carries most of the corpus's rare required syscalls. Greedy
    # planning exploits exactly this structure.
    hard = rng.random() < 0.45

    # Housekeeping tail: individually mostly avoidable, occasionally a
    # strict app treats one as fatal (that diversity drives Figure 3).
    strictness = rng.uniform(0.08, 0.3) if hard else 0.0

    def maybe_strict(default_stub, default_fake):
        if rng.random() < strictness:
            # Strict call sites validate results: half of them detect a
            # forged success too, making the syscall outright required.
            if rng.random() < 0.5:
                return abort(), breaks_core()
            return abort(), harmless()
        return default_stub, default_fake

    for housekeeping in (
        ("getpid", 2, False), ("getuid", 1, True), ("geteuid", 1, True),
        ("getgid", 1, False), ("umask", 1, False), ("uname", 1, True),
        ("getcwd", 1, True), ("sysinfo", 1, True), ("getrusage", 1, False),
        ("gettimeofday", 2, False), ("clock_gettime", 4, False),
        ("rt_sigaction", 6, True), ("rt_sigprocmask", 2, True),
    ):
        sysname, count, checks = housekeeping
        if go_style and sysname.startswith("rt_sig"):
            continue
        if rng.random() < 0.25:
            continue
        stub, fake = maybe_strict(ignore(), harmless())
        ops.append(
            op(sysname, count, checks_return=checks, on_stub=stub, on_fake=fake)
        )

    if rng.random() < 0.8:
        ops.append(
            op("prlimit64", 1, subfeature="RLIMIT_NOFILE",
               on_stub=safe_default(), on_fake=harmless())
        )
    if rng.random() < 0.5:
        ops.append(
            op("ioctl", 1, subfeature="TCGETS",
               on_stub=safe_default(), on_fake=harmless())
        )

    # Pseudo-file usage: entropy is common, introspection less so, and
    # a strict minority genuinely depends on what it reads.
    for path, probability in (
        ("/dev/urandom", 0.4),
        ("/proc/self/status", 0.2),
        ("/proc/meminfo", 0.15),
        ("/proc/cpuinfo", 0.1),
        ("/sys/devices/system/cpu/online", 0.1),
    ):
        if rng.random() < probability:
            strict_pseudo = hard and rng.random() < 0.2
            ops.append(
                op("openat", 1, path=path,
                   on_stub=abort() if strict_pseudo else ignore(),
                   on_fake=breaks_core() if strict_pseudo else harmless())
            )

    # Category core.
    networked = category in (
        "web-server", "kv-store", "database", "proxy", "message-queue"
    )
    if networked:
        # Easy apps follow modern conventions; hard apps pull in the
        # classic/diverse variants, widening their required sets.
        if hard:
            accept_call = rng.choice(("accept", "accept4"))
            epoll_call = rng.choice(("epoll_create", "epoll_create1"))
            recv_call = rng.choice(("read", "recvfrom", "recvmsg"))
            send_call = rng.choice(("write", "writev", "sendto", "sendmsg"))
        else:
            accept_call, epoll_call = "accept4", "epoll_create1"
            recv_call, send_call = "read", "write"
        ops += [
            op("socket", 1, on_stub=abort(), on_fake=breaks_core()),
            op("setsockopt", 2, on_stub=abort(), on_fake=breaks_core()),
            op("bind", 1, on_stub=abort(), on_fake=breaks_core()),
            op("listen", 1, on_stub=abort(), on_fake=breaks_core()),
            op(accept_call, 4, phase=Phase.WORKLOAD,
               on_stub=disable("core"), on_fake=breaks_core()),
            op(epoll_call, 1, on_stub=abort(), on_fake=breaks_core()),
            op("epoll_ctl", 4, phase=Phase.WORKLOAD,
               on_stub=abort(), on_fake=breaks_core()),
            op("epoll_wait", 8, phase=Phase.WORKLOAD,
               on_stub=abort(), on_fake=breaks_core()),
            op(recv_call, 16, phase=Phase.WORKLOAD,
               on_stub=disable("core"), on_fake=breaks_core()),
            op(send_call, 16, phase=Phase.WORKLOAD,
               on_stub=disable("core"), on_fake=breaks_core()),
            op("close", 8, phase=Phase.WORKLOAD,
               on_stub=ignore(fd_frac=round(rng.uniform(0.1, 1.5), 2)),
               on_fake=harmless(fd_frac=round(rng.uniform(0.1, 1.5), 2))),
        ]
        if rng.random() < 0.8:
            ops.append(
                op("fcntl", 2, subfeature="F_SETFL",
                   on_stub=disable("core"), on_fake=breaks_core())
            )
            ops.append(
                op("fcntl", 1, subfeature="F_SETFD",
                   on_stub=ignore(), on_fake=harmless())
            )
    else:
        ops += [
            op("openat", 2, on_stub=abort(), on_fake=breaks_core()),
            op("read", 8, phase=Phase.WORKLOAD,
               on_stub=disable("core"), on_fake=breaks_core()),
            op("write", 8, phase=Phase.WORKLOAD,
               on_stub=disable("core"), on_fake=breaks_core()),
            op("lseek", 2, phase=Phase.WORKLOAD,
               on_stub=ignore(), on_fake=harmless()),
            op("close", 4, phase=Phase.WORKLOAD,
               on_stub=ignore(fd_frac=0.3), on_fake=harmless(fd_frac=0.3)),
            op("fstat", 2, on_stub=ignore(), on_fake=harmless()),
        ]

    # Threading for half the non-Go apps.
    if not go_style and rng.random() < 0.5:
        ops += [
            op("clone", 2, on_stub=abort(), on_fake=breaks_core()),
            op("futex", 16, phase=Phase.WORKLOAD, checks_return=False,
               on_stub=abort(), on_fake=breaks_core()),
        ]

    # JIT-style runtimes genuinely need memory protection switching.
    if category == "runtime":
        ops.append(
            op("mprotect", 4, phase=Phase.WORKLOAD,
               on_stub=abort(), on_fake=breaks_core())
        )
        ops.append(
            op("madvise", 2, subfeature="MADV_FREE", checks_return=False,
               on_stub=ignore(), on_fake=harmless())
        )

    # Suite-only feature with required file-handling ops.
    gate = frozenset({"extra"})
    suite_pool = (
        ("openat", disable("extra"), breaks("extra")),
        ("stat", ignore(), harmless()),
        ("unlink", ignore(), harmless()),
        ("rename", disable("extra"), breaks("extra")),
        ("fsync", disable("extra"), harmless()),
        ("getdents64", ignore(), harmless()),
        ("mkdir", ignore(), harmless()),
        ("pipe2", ignore(fd_frac=-0.05), harmless(fd_frac=-0.05)),
        ("fork", disable("extra"), breaks("extra")),
        ("wait4", ignore(), harmless()),
        ("kill", ignore(), harmless()),
        ("nanosleep", ignore(), harmless()),
        ("pread64", disable("extra"), breaks("extra")),
        ("pwrite64", disable("extra"), breaks("extra")),
        ("flock", ignore(), harmless()),
        ("getrandom", ignore(), harmless()),
    )
    for sysname, stub, fake in suite_pool:
        if rng.random() < 0.45:
            # A third of the drawn extras also run under benchmarks
            # (startup code paths), widening the bench-traced union.
            gated = None if rng.random() < 0.33 else gate
            ops.append(
                op(sysname, rng.randint(1, 4), feature="extra", when=gated,
                   phase=Phase.WORKLOAD, on_stub=stub, on_fake=fake)
            )

    # Long-tail syscalls: 3-9 per app, drawn deterministically. Most
    # fail soft; some apps treat a tail call as load-bearing, which is
    # how rare syscalls end up "required by at least one app".
    tail_count = rng.randint(6, 12) if hard else rng.randint(2, 5)
    start = (index * 7) % len(_TAIL_SYSCALLS)
    for offset in range(tail_count):
        sysname = _TAIL_SYSCALLS[(start + offset * 13) % len(_TAIL_SYSCALLS)]
        draw = rng.random()
        # Section 5.2: higher-numbered syscalls map to more recent,
        # generally less critical functionality — strict handling of
        # their failures is rarer than for the old core services.
        from repro.syscalls import number_of
        from repro.syscalls.categories import MODERN_THRESHOLD

        strict_cutoff = 0.30 if number_of(sysname) >= MODERN_THRESHOLD else 0.70
        if hard and draw < strict_cutoff:
            stub, fake = abort(), breaks_core()     # genuinely required here
        elif draw < strict_cutoff + 0.10:
            stub, fake = abort(), harmless()        # fake-only
        else:
            stub, fake = ignore(), harmless()       # fully avoidable
        ops.append(op(sysname, 1, checks_return=rng.random() < 0.7,
                      on_stub=stub, on_fake=fake))

    program = SimProgram(
        name=name,
        version="1.0",
        ops=tuple(ops),
        features=frozenset(features),
        profiles={
            "bench": WorkloadProfile(
                metric=float(rng.randint(5_000, 200_000)),
                fd_peak=rng.randint(8, 128),
                mem_peak_kb=rng.randint(2_048, 131_072),
            ),
            "suite": WorkloadProfile(
                metric=None,
                fd_peak=rng.randint(16, 160),
                mem_peak_kb=rng.randint(4_096, 163_840),
            ),
            "health": WorkloadProfile(metric=None, fd_peak=8, mem_peak_kb=2_048),
        },
        description=f"synthetic corpus member ({category})",
    )
    live = len(program.live_syscalls())
    program = with_static_views(
        program,
        source_total=live + rng.randint(15, 35),
        binary_total=live + rng.randint(35, 60),
    )
    workloads = {
        "health": health_check("health"),
        "bench": benchmark("bench", metric_name="ops/s"),
        "suite": test_suite("suite", features=("core", "extra")),
    }
    # Demanding applications skew old (the organic OSv history tackled
    # the big famous servers first — which is what makes Figure 2's
    # organic curve pay its heaviest costs early).
    year = rng.randint(1996, 2010) if hard else rng.randint(2006, 2020)
    return App(program=program, workloads=workloads, category=category, year=year)


def build(name: str) -> App:
    """Build one hand-modeled application by name."""
    return HANDBUILT[name]()


def cloud_apps() -> list[App]:
    """The 15 popular cloud applications (Table 1's target set)."""
    return [builder() for builder in HANDBUILT.values()]


def seven_apps() -> list[App]:
    """The Figure 4/5 seven-application comparison set."""
    return [HANDBUILT[name]() for name in SEVEN_APPS]


#: Hand-modeled apps beyond the Table 1 cloud set (corpus diversity:
#: a pipe-filter tool, a language runtime, an Erlang-style broker).
def _extra_apps() -> list[App]:
    from repro.appsim.apps import extras

    return [
        extras.build_gzip(),
        extras.build_pyruntime(),
        extras.build_rabbitmq(),
    ]


def corpus(size: int = CORPUS_SIZE) -> list[App]:
    """The full application corpus, as a fresh list of shared apps.

    Hand-built cloud apps first (so ``corpus()[:15]`` is always the
    Table 1 set), then the extra hand-built apps, then deterministic
    synthetics up to *size*, built once per size per process.
    """
    return list(_corpus(size))


@functools.cache
def _corpus(size: int) -> tuple[App, ...]:
    apps = cloud_apps()
    if size > len(apps):
        apps += _extra_apps()
    index = 0
    while len(apps) < size:
        apps.append(_synthetic_app(index))
        index += 1
    return tuple(apps[:size])
