"""Span tracing for the benchmark's traced runs, from outside the program.

:func:`install` replaces public functions of each layer with wrappers
that record a span (name, start, end, parent) around every call, and
:meth:`Tracer.on_event` turns the session's public event stream into
analyzer stage spans. Nothing in ``src/`` changes: the wrappers sit on
class and module attributes of an interpreter that runs one benchmark
iteration and then exits.

Spans stay in memory until the iteration ends. :func:`summarize` then
splits the traced wall time among them: every instant goes, in equal
shares, to the innermost spans active at that instant (those with no
active child), so the self times of all spans plus the instants no
span covers add up to the wall time exactly. A layer's self time is
the sum over its spans.

The module imports nothing from the program at import time, so the
harness (``run.py``) can use :func:`derive` without loading it.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

#: Layers in report order; each span name maps to one (see layer_of).
LAYERS = (
    "api", "analyzer", "engine", "appsim", "ptracer", "cachestore",
    "plans", "server",
)

#: Span names whose individual durations feed a percentile metric.
_KEEP_DURATIONS = ("ptracer.run", "server.submit", "server.report")

#: Summary counters that add up across the passes of one iteration.
_SUMMED = (
    "wall_s", "unattributed_s", "store_gets", "store_hits", "events",
    "features", "planner_analyses", "polls",
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component,
    except the session front door, which is the ``api`` layer."""
    if name.startswith("session."):
        return "api"
    return name.split(".", 1)[0]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "thread")

    def __init__(self, name, start, parent, attrs, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.thread = thread


class Tracer:
    """Records spans per thread; a span's parent is the innermost span
    open on the same thread, or, for work handed to a thread pool, the
    span that submitted it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events = 0
        self.features = 0
        self.polls = 0
        self._local = threading.local()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(
            name, time.monotonic(), stack[-1] if stack else None, attrs,
            threading.get_ident(),
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close *span* and anything this thread left open above it."""
        now = time.monotonic()
        me = threading.get_ident()
        stack = self._stack()
        if span not in stack:
            return
        while stack:
            top = stack.pop()
            if top.thread == me and top.end is None:
                top.end = now
            if top is span:
                return

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper. *after*,
        if given, is called as ``after(span, args, kwargs, result)``."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attribute, traced)

    # -- analyzer stages from the public event stream -----------------------

    def _stage(self, name: "str | None") -> None:
        local = self._local
        open_stage = getattr(local, "stage", None)
        if open_stage is not None:
            self.end(open_stage)
        local.stage = self.begin(name) if name else None

    def on_event(self, event) -> None:
        self.events += 1
        kind = event.kind
        local = self._local
        if kind == "baseline_started":
            self._stage("analyzer.baseline")
        elif kind == "features_enumerated":
            self.features += event.count
            local.expected, local.seen = event.count, 0
            self._stage("analyzer.probe" if event.count else "analyzer.confirm")
        elif kind == "feature_probed":
            local.seen = getattr(local, "seen", 0) + 1
            if local.seen == getattr(local, "expected", -1):
                self._stage("analyzer.confirm")
        elif kind == "combined_run_finished":
            self._stage(None if event.ok else "analyzer.bisect")
        elif kind == "conflict_bisected":
            self._stage("analyzer.confirm")
        elif kind in ("analysis_finished", "analysis_cancelled"):
            self._stage(None)

    # -- export ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the event counters as one JSON object, then every span
        as one JSON line: id, parent id, name, start, end (monotonic
        seconds), thread, attributes."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(
                {"events": self.events, "features": self.features}
            ) + "\n")
            for index, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent else None
                out.write(json.dumps([
                    index, parent, span.name, span.start, span.end,
                    span.thread, span.attrs,
                ]) + "\n")


def load(path: str) -> tuple[list[Span], dict]:
    """The spans (unfinished ones dropped) and event counters written
    by :meth:`Tracer.dump`."""
    spans: dict[int, Span] = {}
    parents: dict[int, "int | None"] = {}
    with open(path, encoding="utf-8") as lines:
        counters = json.loads(next(lines))
        for line in lines:
            index, parent, name, start, end, thread, attrs = json.loads(line)
            span = Span(name, start, None, attrs, thread)
            span.end = end
            spans[index] = span
            parents[index] = parent
    for index, span in spans.items():
        parent = parents[index]
        span.parent = spans.get(parent) if parent is not None else None
    return [span for span in spans.values() if span.end is not None], counters


# -- installing the wrappers ---------------------------------------------------


def _propagate_context(tracer: Tracer) -> None:
    """Run work submitted to any thread pool under the submitter's
    current span, so a run executed by a pool worker is the child of
    the engine batch that scheduled it."""
    original = concurrent.futures.ThreadPoolExecutor.submit

    @functools.wraps(original)
    def submit(pool, fn, /, *args, **kwargs):
        parent = tracer.current()
        if parent is None:
            return original(pool, fn, *args, **kwargs)

        def in_context(*call_args, **call_kwargs):
            stack = tracer._stack()
            depth = len(stack)
            stack.append(parent)
            try:
                return fn(*call_args, **call_kwargs)
            finally:
                del stack[depth:]

        return original(pool, in_context, *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = submit


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every program layer."""
    import repro.plans
    import repro.plans.requirements
    from repro.api.events import combine_callbacks
    from repro.api.session import LoupeSession
    from repro.appsim.backend import SimBackend
    from repro.core.analyzer import Analyzer
    from repro.core.cachestore.sqlite import SqliteRunCache
    from repro.core.engine import ProbeEngine
    from repro.ptracer.backend import PtraceBackend

    _propagate_context(tracer)
    tracer.wrap(SimBackend, "run", "appsim.run")
    tracer.wrap(PtraceBackend, "run", "ptracer.run")
    tracer.wrap(ProbeEngine, "run_probe_batch", "engine.batch")

    def store_get_done(span, args, kwargs, result):
        span.attrs["hit"] = result is not None

    tracer.wrap(SqliteRunCache, "get", "cachestore.get", after=store_get_done)
    tracer.wrap(SqliteRunCache, "put", "cachestore.put")

    tracer.wrap(LoupeSession, "plan", "plans.plan")
    tracer.wrap(
        repro.plans.requirements, "requirements_for", "plans.requirements"
    )
    tracer.wrap(repro.plans, "generate_plan", "plans.generate")

    session_analyze = LoupeSession.analyze

    @functools.wraps(session_analyze)
    def analyze(session, request, **kwargs):
        # Subscribe to the call's public event stream alongside
        # whatever the caller subscribed.
        kwargs["on_event"] = combine_callbacks(
            kwargs.get("on_event"), tracer.on_event
        )
        app = getattr(request, "app", None) or getattr(request, "name", request)
        span = tracer.begin("session.analyze", app=str(app))
        try:
            return session_analyze(session, request, **kwargs)
        finally:
            tracer.end(span)

    LoupeSession.analyze = analyze

    analyzer_analyze = Analyzer.analyze

    @functools.wraps(analyzer_analyze)
    def analyze_app(analyzer, backend, workload, **kwargs):
        before = analyzer.engine.stats
        span = tracer.begin("analyzer.analyze", app=kwargs.get("app", ""))
        try:
            return analyzer_analyze(analyzer, backend, workload, **kwargs)
        finally:
            tracer.end(span)
            tracer._local.stage = None
            after = analyzer.engine.stats
            span.attrs.update(
                requested=after.runs_requested - before.runs_requested,
                executed=after.runs_executed - before.runs_executed,
                hits=after.cache_hits - before.cache_hits,
                persistent_hits=after.persistent_hits - before.persistent_hits,
            )

    Analyzer.analyze = analyze_app


def install_client(tracer: Tracer) -> None:
    """Wrap the service client's calls (the load generator's side)."""
    from repro.server.client import ServiceClient

    def remember_job(span, args, kwargs, result):
        span.attrs["job"] = args[1]

    tracer.wrap(ServiceClient, "submit", "server.submit")
    tracer.wrap(ServiceClient, "wait", "server.wait", after=remember_job)
    tracer.wrap(ServiceClient, "report_bytes", "server.report")
    # Polls are counted, not spanned: a long-poll spans the server-side
    # analysis it waits for, which must own those instants.
    events = ServiceClient.events

    @functools.wraps(events)
    def counted_events(*args, **kwargs):
        tracer.polls += 1
        return events(*args, **kwargs)

    ServiceClient.events = counted_events


# -- attribution -----------------------------------------------------------------


def _depth(span: Span) -> int:
    depth = 0
    while span.parent is not None:
        span = span.parent
        depth += 1
    return depth


def attribute(spans, start: float, end: float) -> tuple[dict, float]:
    """Split the window ``[start, end)`` among *spans*.

    Returns ``(self_s, unattributed_s)``: ``self_s`` maps each span to
    its share of the wall time. Each instant is shared equally by the
    innermost active spans; instants no span covers are unattributed.
    A span whose parent is not active at its start counts from the
    nearest active ancestor.
    """
    boundaries = []
    for span in spans:
        lo, hi = max(span.start, start), min(span.end, end)
        if hi > lo:
            depth = _depth(span)
            boundaries.append((lo, 1, depth, span))
            boundaries.append((hi, 0, -depth, span))
    # At one instant, ends go before starts, and parents open before
    # (and close after) their children.
    boundaries.sort(key=lambda boundary: boundary[:3])
    active: set = set()
    children: dict = defaultdict(int)
    anchor: dict = {}
    leaves: set = set()
    self_s: dict = defaultdict(float)
    unattributed = 0.0
    last = start
    for moment, is_start, _depth_key, span in boundaries:
        elapsed = moment - last
        if elapsed > 0:
            if leaves:
                share = elapsed / len(leaves)
                for leaf in leaves:
                    self_s[leaf] += share
            else:
                unattributed += elapsed
            last = moment
        if is_start:
            parent = span.parent
            while parent is not None and parent not in active:
                parent = parent.parent
            anchor[span] = parent
            if parent is not None:
                children[parent] += 1
                leaves.discard(parent)
            active.add(span)
            if not children[span]:
                leaves.add(span)
        else:
            active.discard(span)
            leaves.discard(span)
            parent = anchor.pop(span)
            if parent is not None and parent in active:
                children[parent] -= 1
                if not children[parent]:
                    leaves.add(parent)
    if end > last:
        unattributed += end - last
    return self_s, unattributed


def summarize(spans, start: float, end: float) -> dict:
    """Raw per-span-name and per-layer aggregates of one traced window,
    in the form :func:`derive` merges and turns into metrics."""
    spans = [span for span in spans if span.end is not None]
    self_s, unattributed = attribute(spans, start, end)
    names: dict = {}
    layers = {layer: 0.0 for layer in LAYERS}
    durations: dict = defaultdict(list)
    analyses = []
    gets = hits = planner_analyses = 0
    for span in spans:
        if span.end <= start or span.start >= end:
            continue
        entry = names.setdefault(
            span.name, {"count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["busy_s"] += span.end - span.start
        if span.name in _KEEP_DURATIONS:
            durations[span.name].append((span.end - span.start) * 1000.0)
        if span.name == "analyzer.analyze" and "executed" in span.attrs:
            ancestor = span.parent
            while ancestor is not None and ancestor.name != "plans.requirements":
                ancestor = ancestor.parent
            planner_analyses += ancestor is not None
            analyses.append(dict(span.attrs, planner=ancestor is not None))
        if span.name == "cachestore.get":
            gets += 1
            hits += bool(span.attrs.get("hit"))
    for span, share in self_s.items():
        layers[layer_of(span.name)] = layers.get(layer_of(span.name), 0.0) + share
        if span.name in names:
            names[span.name]["self_s"] += share
    return {
        "wall_s": end - start,
        "unattributed_s": unattributed,
        "layers": layers,
        "names": names,
        "durations_ms": dict(durations),
        "analyses": analyses,
        "store_gets": gets,
        "store_hits": hits,
        "planner_analyses": planner_analyses,
    }


# -- metrics ---------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def merge(summaries: list[dict]) -> dict:
    """Fold the summaries of consecutive passes (the store workload's
    cold and warm interpreters) into one."""
    merged: dict = {
        "layers": defaultdict(float), "names": {},
        "durations_ms": defaultdict(list), "analyses": [], "jobs": [],
    }
    for summary in summaries:
        for key in _SUMMED:
            merged[key] = merged.get(key, 0) + summary.get(key, 0)
        merged["file_mb"] = max(
            merged.get("file_mb", 0.0), summary.get("file_mb", 0.0)
        )
        for layer, value in summary["layers"].items():
            merged["layers"][layer] += value
        for name, entry in summary["names"].items():
            target = merged["names"].setdefault(
                name, {"count": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            for key in target:
                target[key] += entry[key]
        for name, values in summary["durations_ms"].items():
            merged["durations_ms"][name].extend(values)
        merged["analyses"].extend(summary["analyses"])
        merged["jobs"].extend(summary.get("jobs", []))
    return merged


def derive(summary: dict, serial_runs: dict) -> dict:
    """Per-layer metrics, with units, from one (merged) traced
    iteration. *serial_runs* maps an app to the runs a serial analysis
    of it executes (the reference), for ``engine.executed_ratio``."""
    names = summary["names"]

    def name_stat(name, key):
        return names.get(name, {}).get(key, 0.0)

    analyses = summary["analyses"]
    requested = sum(row["requested"] for row in analyses)
    executed = sum(row["executed"] for row in analyses)
    lru_hits = sum(row["hits"] - row["persistent_hits"] for row in analyses)
    # The campaign's own analyses: the planner's run serially anyway.
    ratio_base = [
        (serial_runs[row["app"]], row["executed"]) for row in analyses
        if row["executed"] and row["app"] in serial_runs
        and not row["planner"]
    ]
    wall = summary["wall_s"]
    jobs = summary.get("jobs", [])
    durations = summary["durations_ms"]
    metrics = {
        "appsim.run.count": (name_stat("appsim.run", "count"), "count"),
        "appsim.run.busy_s": (name_stat("appsim.run", "busy_s"), "s"),
        "appsim.run.share": (
            summary["layers"].get("appsim", 0.0) / wall if wall else 0.0,
            "ratio",
        ),
        "ptracer.run.count": (name_stat("ptracer.run", "count"), "count"),
        "ptracer.run.busy_s": (name_stat("ptracer.run", "busy_s"), "s"),
        "ptracer.run.p50_ms": (_median(durations.get("ptracer.run", [])), "ms"),
        "engine.batch.count": (name_stat("engine.batch", "count"), "count"),
        "engine.batch.self_s": (name_stat("engine.batch", "self_s"), "s"),
        "engine.runs_requested": (requested, "count"),
        "engine.runs_executed": (executed, "count"),
        "engine.executed_ratio": (
            sum(base for base, _ in ratio_base)
            / sum(done for _, done in ratio_base)
            if ratio_base else 0.0,
            "ratio",
        ),
        "engine.lru_hit_ratio": (
            lru_hits / requested if requested else 0.0, "ratio"
        ),
        "analyzer.baseline_s": (name_stat("analyzer.baseline", "busy_s"), "s"),
        "analyzer.probe_s": (name_stat("analyzer.probe", "busy_s"), "s"),
        "analyzer.confirm_s": (name_stat("analyzer.confirm", "busy_s"), "s"),
        "analyzer.bisect_s": (name_stat("analyzer.bisect", "busy_s"), "s"),
        "analyzer.features": (summary.get("features", 0), "count"),
        "cachestore.get.count": (name_stat("cachestore.get", "count"), "count"),
        "cachestore.get.busy_s": (name_stat("cachestore.get", "busy_s"), "s"),
        "cachestore.put.count": (name_stat("cachestore.put", "count"), "count"),
        "cachestore.put.busy_s": (name_stat("cachestore.put", "busy_s"), "s"),
        "cachestore.persistent_hit_ratio": (
            summary["store_hits"] / summary["store_gets"]
            if summary["store_gets"] else 0.0,
            "ratio",
        ),
        "cachestore.file_mb": (summary.get("file_mb", 0.0), "MiB"),
        "plans.plan_s": (name_stat("plans.plan", "busy_s"), "s"),
        "plans.requirements.count": (
            summary.get("planner_analyses", 0), "count"
        ),
        "plans.generate_s": (name_stat("plans.generate", "busy_s"), "s"),
        "session.analyze.self_s": (name_stat("session.analyze", "self_s"), "s"),
        "events.count": (summary.get("events", 0), "count"),
        "server.submit_ms": (_median(durations.get("server.submit", [])), "ms"),
        "server.report_ms": (_median(durations.get("server.report", [])), "ms"),
        "server.polls_per_job": (
            summary.get("polls", 0) / len(jobs) if jobs else 0.0,
            "count",
        ),
        "job.queue_wait_ms": (
            _median([job["queue_wait_ms"] for job in jobs]), "ms"
        ),
        "job.run_ms": (_median([job["run_ms"] for job in jobs]), "ms"),
        "job.overhead_ms": (
            _median([job["overhead_ms"] for job in jobs]), "ms"
        ),
        "traced.wall_s": (wall, "s"),
        "unattributed_s": (summary["unattributed_s"], "s"),
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (summary["layers"].get(layer, 0.0), "s")
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def additive_gap(metrics: dict) -> float:
    """How far the layer self times plus ``unattributed_s`` are from
    the traced wall time (0 when the attribution is complete)."""
    parts = sum(metrics[f"self_s.{layer}"]["value"] for layer in LAYERS)
    parts += metrics["unattributed_s"]["value"]
    return math.fabs(parts - metrics["traced.wall_s"]["value"])
