"""One pass of one benchmark iteration, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/iteration.py SPEC.json

``run.py`` starts this script for every pass of every iteration, in a
fresh scratch directory, so module-global memos (the planner's
requirement cache, the study layer's default session, the engine's
process-wide pools) never turn a later iteration into a warm-cache
measurement. SPEC names the workload, the pass, the generated inputs,
the reference digests, the scratch directory and the result file.

The pass times its own phase as a sequence of segments: one per
request (per round of jobs for the service), plus the session set-up
and the corpus plan, split after each app it analyzes. ``setup_s``
runs from the moment the harness started this interpreter
(``PERFBENCH_SPAWNED``, a monotonic clock reading) to the first
segment. Outputs are checked after the timed phase, so checking costs
the measurement nothing.

The host's CPU speed drifts, by up to 1.7x over minutes and in bursts
of seconds, and the program slows with it. So a fixed pure-Python loop
is timed (``calibration_ms``) before the first segment and after each
one, while the program is idle, and each segment's wall and CPU time is
scaled by ``CALIBRATION_MS`` over the mean of the two loop times around
it: times are reported at the speed where the loop takes
``CALIBRATION_MS``. A slower program still reads slower; a slower host
does not. Traced passes are not calibrated.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPAWNED = float(os.environ["PERFBENCH_SPAWNED"])

#: The calibration loop walks CALIBRATION_STEPS steps of one cycle
#: through CALIBRATION_SLOTS list slots (4.5 MiB with their int
#: objects, more than a core's own caches hold), so it waits on the
#: shared cache and memory as the program does, not only on the CPU. A
#: loop of additions alone tracked the program less well
#: (BASELINE.md). CALIBRATION_MS is its time at the reference speed:
#: about its time on an idle 2-vCPU Xeon host with Python 3.11.
CALIBRATION_SLOTS = 1 << 17
CALIBRATION_STEPS = 8_000
CALIBRATION_MS = 2.5


def calibration_cycle() -> list[int]:
    """A fixed single cycle over CALIBRATION_SLOTS slots: ``cycle[i]``
    is the slot after ``i``. A linear congruential step with an odd
    increment and a multiplier of 1 mod 4 visits every slot of a
    power-of-two table before it repeats, in an order far from linear."""
    mask = CALIBRATION_SLOTS - 1
    return [(1103515245 * slot + 12345) & mask for slot in range(mask + 1)]


def calibration_ms(cycle: list[int]) -> float:
    """The mean time of the calibration loop on each CPU this process
    may use. Each vCPU of the host speeds up and slows down on its own
    (the two of a 2-vCPU VM correlated 0.16), and the program's threads
    and processes run on all of them."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            slot = total = 0
            for _ in range(CALIBRATION_STEPS):
                slot = cycle[slot]
                total += slot
            times.append((time.perf_counter() - started) * 1000.0)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def digest(data: "str | bytes") -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU of another process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Measure:
    """The timed phase of one pass and the tally of its checked outcomes."""

    def __init__(self, calibrated: bool) -> None:
        #: Readers of the working process's CPU time and peak RSS, and
        #: whether that process is another one than this.
        self.cpu = own_cpu_s
        self.rss = own_peak_rss_mb
        self.cpu_elsewhere = False
        self.calibrated = calibrated
        self.segments: list[dict] = []
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        # Time spent building the cycle and calibrating: the
        # benchmark's, so neither setup_s nor phase_s counts it.
        started = time.monotonic()
        self._cycle = calibration_cycle() if calibrated else []
        self._calibrating_s = time.monotonic() - started

    def _calibrate(self) -> float:
        if not self.calibrated:
            return CALIBRATION_MS
        started = time.monotonic()
        loop_ms = calibration_ms(self._cycle)
        self._calibrating_s += time.monotonic() - started
        return loop_ms

    def start(self) -> None:
        setup_s = time.monotonic() - SPAWNED - self._calibrating_s
        self._loop_ms = self._calibrate()
        self.setup_s = setup_s * CALIBRATION_MS / self._loop_ms
        self._calibrating_s = 0.0
        self.t0 = time.monotonic()

    def stop(self) -> None:
        self.t1 = time.monotonic()
        self.peak_rss_mb = self.rss()

    @contextlib.contextmanager
    def segment(self, label: str):
        """Time one segment of the timed phase, scaled to the reference
        speed by the calibration loops on either side of it. Yields the
        segment's record, which holds its ``scale`` once it ends."""
        record = {"label": label}
        self._resume()
        try:
            yield record
        finally:
            self._close(record)

    def split(self, label: str) -> None:
        """Close the running segment's time so far as a segment named
        *label*, calibrate, and go on timing the rest."""
        self._close({"label": label})
        self._resume()

    def _resume(self) -> None:
        self._wall = time.monotonic()
        # Another process's CPU while this one calibrates is work left
        # over from the last segment: it counts in the next one.
        if not (self.cpu_elsewhere and self.segments):
            self._cpu = self.cpu()

    def _close(self, record: dict) -> None:
        wall, cpu = time.monotonic() - self._wall, self.cpu()
        cpu, self._cpu = cpu - self._cpu, cpu
        before, self._loop_ms = self._loop_ms, self._calibrate()
        scale = 2.0 * CALIBRATION_MS / (before + self._loop_ms)
        record.update(wall_s=wall * scale, cpu_s=cpu * scale, scale=scale)
        self.segments.append(record)

    def timed(self, label: str, call, request: bool = True):
        """Run one call as a segment; the latency of a *request* counts
        only if it succeeds."""
        with self.segment(label):
            try:
                result = call()
            except Exception as error:  # noqa: BLE001 — a failed request
                # is an outcome to count, not a reason to stop the pass.
                self.check(label, False, f"{type(error).__name__}: {error}")
                return None
        if request:
            self.latencies_ms.append(self.segments[-1]["wall_s"] * 1000.0)
        return result

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def result(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "segments": self.segments,
            # Unscaled wall time of the phase, calibration loops excluded.
            "phase_s": self.t1 - self.t0 - self._calibrating_s,
            "peak_rss_mb": self.peak_rss_mb,
            "latencies_ms": self.latencies_ms,
            "attempted": self.attempted,
            "failures": self.failures,
        }


def check_reports(measure: Measure, rows, digests: dict) -> None:
    """One checked outcome per ``(app, result, problem)`` row whose
    analysis returned (a raised one is already counted): its report
    must match the reference digest and *problem* must be empty."""
    from repro.server.jobstore import encode_report

    for app, result, problem in rows:
        if result is None:
            continue
        if digest(encode_report(result)) != digests[app]:
            problem = "report differs from the serial in-process reference"
        measure.check(app, not problem, problem)


# -- workloads --------------------------------------------------------------------


def _split_plan(measure: Measure) -> None:
    """End a segment after each app the planner analyzes, so its
    seconds-long plan is calibrated app by app."""
    import repro.plans.requirements as requirements

    original = requirements.requirements_for

    @functools.wraps(original)
    def requirements_for(app, *args, **kwargs):
        result = original(app, *args, **kwargs)
        measure.split(f"plan {getattr(app, 'name', app)}")
        return result

    requirements.requirements_for = requirements_for


def corpus_pass(spec: dict, measure: Measure) -> dict:
    """All corpus apps through one parallel=2 session, then the plan."""
    from repro import AnalyzerConfig, LoupeSession
    from repro.appsim.corpus import corpus
    from repro.plans import render_plan

    models = {app.name: app for app in corpus()}
    apps = [models[name] for name in spec["inputs"]["apps"]]
    rows = []
    _split_plan(measure)
    measure.start()
    with measure.segment("session"):
        session = LoupeSession(config=AnalyzerConfig(parallel=2))
    with session:
        for app in apps:
            result = measure.timed(app.name, lambda: session.analyze(app))
            rows.append((app.name, result, ""))
        plan = measure.timed(
            "plan", lambda: session.plan(os_name="unikraft", apps="corpus"),
            request=False,
        )
    measure.stop()
    check_reports(measure, rows, spec["digests"])
    if plan is not None:
        measure.check(
            "plan", digest(render_plan(plan)) == spec["plan"],
            "support plan differs from the serial reference",
        )
    return {}


def store_pass(spec: dict, measure: Measure) -> dict:
    """All corpus apps, serially, through a SQLite run cache. The cold
    pass finds the file absent and writes every run; the warm pass
    reads every run back and must execute none."""
    from repro import LoupeSession
    from repro.appsim.corpus import corpus

    warm = spec["pass"] == "warm"
    path = Path(spec["scratch"]) / "runs.sqlite"
    models = {app.name: app for app in corpus()}
    apps = [models[name] for name in spec["inputs"]["apps"]]
    rows = []
    measure.start()
    with measure.segment("session"):
        session = LoupeSession(cache_path=str(path))
    with session:
        for app in apps:
            result = measure.timed(app.name, lambda: session.analyze(app))
            runs = session.last_engine_stats.runs_executed if result else 0
            problem = (
                f"warm pass executed {runs} run(s), expected 0"
                if warm and runs else ""
            )
            rows.append((app.name, result, problem))
    measure.stop()
    check_reports(measure, rows, spec["digests"])
    files = [path, Path(f"{path}-wal")]
    size = sum(file.stat().st_size for file in files if file.exists())
    return {"file_mb": size / 2**20}


def ptrace_pass(spec: dict, measure: Measure) -> dict:
    """A real ptrace campaign over a few coreutils commands, on one CPU.

    Across two vCPUs every ptrace stop hands the CPU between a tracee
    and its tracer on another vCPU, whose wake-up waits on the host's
    scheduler: ten runs' campaign_s then spread 0.56 with host load,
    and took 4.3 s where one CPU takes 2.6 s. The pin is set before the
    session starts its threads, which inherit it, as do the tracees."""
    from repro import AnalyzerConfig, LoupeSession
    from repro.api.session import AnalysisRequest

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    directory = Path(spec["scratch"]) / "ptrace-data"
    directory.mkdir()
    (directory / "input.txt").write_text(workloads.PTRACE_INPUT)
    requests = [
        AnalysisRequest(
            backend="ptrace",
            argv=workloads.ptrace_argv(label, str(directory)),
            timeout_s=10.0,
        )
        for label in spec["inputs"]["binaries"]
    ]
    results = []
    measure.start()
    with measure.segment("session"):
        session = LoupeSession(config=AnalyzerConfig(parallel=2))
    with session:
        for request in requests:
            results.append((request.argv[0], measure.timed(
                request.argv[0], lambda: session.analyze(request)
            )))
    measure.stop()
    for command, result in results:
        if result is not None:
            measure.check(
                command,
                result.final_run_ok and "execve" in result.traced_syscalls(),
                "no successful final run with execve traced",
            )
    return {}


def _await_server(server: subprocess.Popen, data_dir: Path) -> str:
    from repro.errors import LoupeError
    from repro.server.client import ServiceClient, discover_url

    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode}")
        try:
            url = discover_url(data_dir)
            ServiceClient(url, retries=0, timeout=2.0).health()
            return url
        except (LoupeError, OSError, ValueError):
            time.sleep(0.01)
    raise RuntimeError("server did not answer /healthz within 60 s")


def _stop_server(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def _job(client, app: str, done: list, segment: dict) -> None:
    """One job of a closed-loop client: submit, long-poll until
    terminal, fetch the report bytes."""
    started = time.monotonic()
    try:
        meta = client.submit({"app": app, "workload": "bench"})
        final = client.wait(meta["id"])
        body = (
            client.report_bytes(meta["id"])
            if final["status"] == "done" else None
        )
    except Exception as error:  # noqa: BLE001 — counted, not fatal
        done.append({"app": app, "error": repr(error)})
        return
    done.append({
        "app": app, "meta": final, "body": body,
        "latency_s": time.monotonic() - started, "segment": segment,
    })


def service_pass(spec: dict, measure: Measure, tracer) -> dict:
    """Closed-loop clients against a ``loupe serve --workers 2`` child.
    The clients go in lock-step rounds, each submitting its next job
    once every client's last one is done, so the server is idle while
    the calibration loop runs between rounds."""
    from repro.server.client import ServiceClient

    scratch = Path(spec["scratch"])
    data_dir = scratch / "data"
    serve = [
        "serve", "--workers", "2", "--data-dir", str(data_dir),
        "--port", "0",
    ]
    if tracer is None:
        command = [sys.executable, "-m", "repro.cli", *serve]
    else:
        command = [
            sys.executable, str(HERE / "serve_traced.py"),
            str(scratch / "server-spans.jsonl"), *serve,
        ]
    with open(scratch / "server.log", "wb") as log:
        server = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT
        )
    try:
        url = _await_server(server, data_dir)
        measure.cpu = lambda: process_cpu_s(server.pid)
        measure.rss = lambda: process_peak_rss_mb(server.pid)
        measure.cpu_elsewhere = True
        clients = [
            ServiceClient(url, timeout=60.0) for _ in spec["inputs"]["clients"]
        ]
        rounds = list(zip(*spec["inputs"]["clients"], strict=True))
        done: list = []
        measure.start()
        for index, apps in enumerate(rounds):
            with measure.segment(f"round {index}") as segment:
                threads = [
                    threading.Thread(
                        target=_job, args=(client, app, done, segment),
                        daemon=True,
                    )
                    for client, app in zip(clients, apps)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=90.0)
        measure.stop()
    finally:
        _stop_server(server)
    jobs = []
    for record in done:
        app = record["app"]
        if "error" in record:
            measure.check(app, False, record["error"])
            continue
        meta = record["meta"]
        measure.latencies_ms.append(
            record["latency_s"] * record["segment"]["scale"] * 1000.0
        )
        ok = meta["status"] == "done" and (
            digest(record["body"]) == spec["digests"][app]
        )
        measure.check(app, ok, f"job {meta['id']} {meta['status']}: "
                               "report differs from the reference")
        if meta["status"] == "done":
            run_s = meta["finished_at"] - meta["started_at"]
            jobs.append({
                "id": meta["id"], "app": app,
                "queue_wait_ms": (meta["started_at"] - meta["created_at"])
                * 1000.0,
                "run_ms": run_s * 1000.0,
                "overhead_ms": (record["latency_s"] - run_s) * 1000.0,
            })
    missing = sum(len(apps) for apps in rounds) - len(done)
    for _ in range(missing):
        measure.check("service", False, "client never finished its job")
    return {"jobs": jobs}


def _link_server_spans(client_spans, server_spans, jobs) -> None:
    """Make each server-side analysis a child of the client's wait on
    that job, so the instants it covers go to the server's layers."""
    app_of = {job["id"]: job["app"] for job in jobs}
    waits = [
        span for span in client_spans
        if span.name == "server.wait" and span.attrs.get("job") in app_of
    ]
    for span in server_spans:
        if span.parent is not None or span.name != "session.analyze":
            continue
        for wait in waits:
            if (app_of[wait.attrs["job"]] == span.attrs.get("app")
                    and wait.start <= span.start and span.end <= wait.end):
                span.parent = wait
                break


# -- entry point --------------------------------------------------------------------


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if spec["workload"] == "service":
            tracing.install_client(tracer)
    measure = Measure(calibrated=not spec["trace"])
    run_pass = {
        "corpus": corpus_pass,
        "store": store_pass,
        "service": lambda spec, measure: service_pass(spec, measure, tracer),
        "ptrace": ptrace_pass,
    }[spec["workload"]]
    extra = run_pass(spec, measure)
    result = measure.result()
    if tracer is not None:
        spans = list(tracer.spans)
        events, features = tracer.events, tracer.features
        server_spans = Path(spec["scratch"]) / "server-spans.jsonl"
        if server_spans.exists():
            remote, counters = tracing.load(str(server_spans))
            _link_server_spans(spans, remote, extra["jobs"])
            spans += remote
            events += counters["events"]
            features += counters["features"]
        summary = tracing.summarize(spans, measure.t0, measure.t1)
        summary.update(
            extra, events=events, features=features, polls=tracer.polls
        )
        result["trace"] = summary
        trace_file = Path(spec["scratch"]) / "spans.jsonl"
        tracer.spans, tracer.events, tracer.features = spans, events, features
        tracer.dump(str(trace_file))
    partial = spec["out"] + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(partial, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
