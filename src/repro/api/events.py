"""Typed progress events emitted by an analysis campaign.

The analyzer used to narrate its progress through an opaque
``Callable[[str], None]`` — fine for a terminal, useless for anything
that wants to *react* to progress (stream it as JSON, update a UI,
aggregate engine statistics across a fan-out). This module replaces
that callback with a small algebra of frozen event dataclasses, one
per analysis milestone:

========================  ====================================================
event                     milestone
========================  ====================================================
:class:`AnalysisStarted`  the campaign accepted one (app, workload) pair
:class:`BaselineStarted`  passthrough replication begins
:class:`FeaturesEnumerated`  tracing finished; the probe list is known
:class:`FeatureProbed`    one feature's stub/fake verdict is in
:class:`CombinedRunFinished`  a combined confirmation run concluded
:class:`ConflictBisected` ddmin isolated one minimal conflicting set
:class:`ProbeRetry`       a faulted run attempt is about to be retried
:class:`ProbeFaulted`     a run exhausted its attempts and was quarantined
:class:`PoolRecovered`    a crashed process pool was rebuilt mid-batch
:class:`FaultsSummary`    end-of-campaign quarantine list (non-empty only)
:class:`EngineStatsEvent` the probe engine's final run accounting
:class:`StoreStatsEvent`  persistent run-cache store state (session-emitted)
:class:`AnalysisFinished` wall-clock total for the analysis
:class:`AnalysisCancelled`  the campaign stopped at a cancel checkpoint
:class:`TargetStarted`    multi-target fan-out: one target's campaign begins
:class:`TargetFinished`   multi-target fan-out: one target's campaign is done
:class:`CrossValidationReady`  the cross-backend divergence report is built
========================  ====================================================

Every event serializes with :meth:`AnalysisEvent.to_dict` (one JSON
object per event — the CLI's ``--events jsonl`` stream).

Every event additionally carries a ``backend`` field. In a
single-target campaign it stays empty (and is omitted from the JSON
form, keeping the historical stream byte-identical); a multi-target
fan-out stamps each target's registry name onto its events via
:func:`tag_backend`, so one interleaved session stream stays
attributable per target.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable
from typing import ClassVar

from repro.core.cachestore import StoreStats
from repro.core.engine import EngineStats

#: A consumer of analysis events.
EventCallback = Callable[["AnalysisEvent"], None]


@dataclasses.dataclass(frozen=True)
class AnalysisEvent:
    """Base class of every analysis progress event.

    Every concrete event carries the ``app`` identity of the analysis
    it belongs to (the analyzer stamps it via :func:`tag_app`), so a
    session-level stream stays attributable when
    ``analyze_many(jobs>1)`` interleaves events from concurrent
    analyses on one callback. Events of a multi-target fan-out
    additionally carry the target's registry ``backend`` name
    (stamped via :func:`tag_backend`).
    """

    #: Stable machine-readable discriminator (the ``"event"`` field of
    #: the JSON form). Never rename once released.
    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """JSON-serializable form: ``{"event": kind, ...fields}``.

        An empty ``backend`` tag is omitted: single-target campaigns
        never stamp one, and dropping the empty field keeps their
        JSON stream byte-identical to the pre-fan-out format.

        The dict is shallow — field values are shared, not copied.
        Every field is a scalar, a tuple or a plain JSON dict, so it
        dumps to the same bytes as ``dataclasses.asdict`` would, at a
        fraction of the cost (a job appends ~46 events).
        """
        data = {"event": self.kind}
        for name in _field_names(type(self)):
            data[name] = getattr(self, name)
        if data.get("backend", None) == "":
            del data["backend"]
        return data


@dataclasses.dataclass(frozen=True)
class AnalysisStarted(AnalysisEvent):
    """The session accepted one (app, workload, backend) analysis."""

    kind: ClassVar[str] = "analysis_started"

    app: str
    workload: str
    backend: str
    replicas: int


@dataclasses.dataclass(frozen=True)
class BaselineStarted(AnalysisEvent):
    """Passthrough baseline replication is about to run."""

    kind: ClassVar[str] = "baseline_started"

    replicas: int
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class FeaturesEnumerated(AnalysisEvent):
    """Baseline tracing finished; these features will be probed."""

    kind: ClassVar[str] = "features_enumerated"

    count: int
    features: tuple[str, ...] = ()
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class FeatureProbed(AnalysisEvent):
    """Stub and fake probes of one feature concluded."""

    kind: ClassVar[str] = "feature_probed"

    feature: str
    can_stub: bool
    can_fake: bool
    traced_count: int = 0
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class CombinedRunFinished(AnalysisEvent):
    """One round of the combined confirmation run concluded.

    ``avoided`` is the size of the stub/fake set under test; ``0``
    means nothing was avoidable, so no combined run was necessary and
    the round succeeded vacuously. ``round`` is 1-based.
    """

    kind: ClassVar[str] = "combined_run_finished"

    ok: bool
    avoided: int
    round: int
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class ConflictBisected(AnalysisEvent):
    """ddmin isolated one minimal conflicting feature set (its members
    are demoted to REQUIRED before the next confirmation round)."""

    kind: ClassVar[str] = "conflict_bisected"

    round: int
    conflict: tuple[str, ...]
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class ProbeRetry(AnalysisEvent):
    """A probe run attempt faulted and is about to be retried.

    ``attempt`` is the 1-based number of the attempt that faulted;
    ``fault`` its taxonomy kind (``timeout``/``backend-error``/...).
    """

    kind: ClassVar[str] = "probe_retry"

    workload: str
    probe: str
    replica: int
    attempt: int
    fault: str
    detail: str = ""
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class ProbeFaulted(AnalysisEvent):
    """A probe run exhausted its attempts and was quarantined.

    Under ``on_fault="degrade"`` the campaign continues and the run
    lands in the end-of-campaign :class:`FaultsSummary`; under
    ``"fail"`` this event precedes the campaign's abort.
    """

    kind: ClassVar[str] = "probe_faulted"

    workload: str
    probe: str
    replica: int
    fault: str
    attempts: int
    detail: str = ""
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class PoolRecovered(AnalysisEvent):
    """A broken process pool was rebuilt mid-batch.

    ``lost_runs`` counts the in-flight runs the dead worker took with
    it that were re-enqueued on the fresh pool (exhausted runs are
    reported separately as :class:`ProbeFaulted`).
    """

    kind: ClassVar[str] = "pool_recovered"

    lost_runs: int
    rebuilds: int = 1
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class FaultsSummary(AnalysisEvent):
    """End-of-campaign quarantine list.

    Emitted only when at least one run faulted, so fault-free
    campaigns' event streams are byte-identical to the pre-fault
    format. ``kinds`` maps taxonomy kind to count; ``faults`` carries
    the full :class:`repro.core.faults.ProbeFault` records in their
    JSON form (``ProbeFault.from_dict`` round-trips them).
    """

    kind: ClassVar[str] = "faults_summary"

    total: int
    kinds: dict
    faults: tuple[dict, ...] = ()
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class EngineStatsEvent(AnalysisEvent):
    """Final probe-engine run accounting for the analysis.

    ``persistent_hits`` counts the subset of ``cache_hits`` answered
    from the on-disk cross-campaign run cache rather than this
    analysis's own LRU; ``executor`` names the resolved sharding
    strategy (``serial``/``process``). Both default to their no-op
    values so pre-existing consumers are unaffected when the features
    are off.
    """

    kind: ClassVar[str] = "engine_stats"

    runs_requested: int
    runs_executed: int
    cache_hits: int
    replicas_skipped: int
    app: str = ""
    persistent_hits: int = 0
    executor: str = "serial"
    backend: str = ""
    faulted: int = 0

    def to_dict(self) -> dict:
        """Like the base form, additionally omitting ``faulted`` when
        zero — fault-free campaigns keep the pre-fault JSON stream
        byte-identical."""
        data = super().to_dict()
        if data.get("faulted", 0) == 0:
            data.pop("faulted", None)
        return data

    @staticmethod
    def from_stats(
        stats: EngineStats, *, executor: str = "serial"
    ) -> "EngineStatsEvent":
        return EngineStatsEvent(
            runs_requested=stats.runs_requested,
            runs_executed=stats.runs_executed,
            cache_hits=stats.cache_hits,
            replicas_skipped=stats.replicas_skipped,
            persistent_hits=stats.persistent_hits,
            executor=executor,
            faulted=stats.faulted,
        )

    def stats(self) -> EngineStats:
        """The event's payload as a first-class :class:`EngineStats`."""
        return EngineStats(
            runs_requested=self.runs_requested,
            runs_executed=self.runs_executed,
            cache_hits=self.cache_hits,
            replicas_skipped=self.replicas_skipped,
            persistent_hits=self.persistent_hits,
            faulted=self.faulted,
        )


@dataclasses.dataclass(frozen=True)
class StoreStatsEvent(AnalysisEvent):
    """Observable state of the persistent run-cache store, emitted by
    the session after each analysis that used one.

    ``store`` names the backend (``jsonl``/``sqlite``); ``entries``
    is the live record count, ``loaded_records``/``stale_records``
    the unique/superseded split found at open (stale is always 0 on
    SQLite, whose upsert replaces in place); ``evictions`` counts
    LRU evictions under ``max_entries``.
    """

    kind: ClassVar[str] = "store_stats"

    store: str
    path: str
    entries: int
    loaded_records: int = 0
    stale_records: int = 0
    file_bytes: int = 0
    max_entries: "int | None" = None
    evictions: int = 0
    app: str = ""
    backend: str = ""

    @staticmethod
    def from_stats(stats: "StoreStats") -> "StoreStatsEvent":
        return StoreStatsEvent(
            store=stats.kind,
            path=stats.path,
            entries=stats.entries,
            loaded_records=stats.loaded_records,
            stale_records=stats.stale_records,
            file_bytes=stats.file_bytes,
            max_entries=stats.max_entries,
            evictions=stats.evictions,
        )


@dataclasses.dataclass(frozen=True)
class AnalysisFinished(AnalysisEvent):
    """The analysis completed; ``duration_s`` is wall-clock seconds."""

    kind: ClassVar[str] = "analysis_finished"

    duration_s: float
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class AnalysisCancelled(AnalysisEvent):
    """The analysis stopped at a cancellation checkpoint.

    The terminal event of a cancelled campaign: emitted (after a final
    :class:`EngineStatsEvent` carrying the accounting so far) right
    before :class:`repro.errors.AnalysisCancelledError` is raised, so
    event streams — a ``--events jsonl`` pipe interrupted by Ctrl-C,
    a server job's event log — always end on an explicit terminal
    record instead of cutting off mid-stream. ``reason`` says who
    asked (``"signal"`` for SIGINT, ``"cancelled"`` for an API
    cancel).
    """

    kind: ClassVar[str] = "analysis_cancelled"

    duration_s: float
    reason: str = "cancelled"
    app: str = ""
    backend: str = ""


@dataclasses.dataclass(frozen=True)
class TargetStarted(AnalysisEvent):
    """Multi-target fan-out: one execution target's analysis begins.

    ``backend`` is the target's *registry* name (what the caller put
    in the comma list), which is how targets are told apart even when
    two registry entries resolve to identically-named execution
    backends. ``index`` is the target's 0-based position among the
    campaign's ``total`` targets.
    """

    kind: ClassVar[str] = "target_started"

    backend: str
    index: int
    total: int
    app: str = ""


@dataclasses.dataclass(frozen=True)
class TargetFinished(AnalysisEvent):
    """Multi-target fan-out: one execution target's analysis is done.

    ``ok`` mirrors the result's ``final_run_ok``; ``duration_s`` is
    the target's wall-clock share (near-zero when the session answered
    it from a memoized record).
    """

    kind: ClassVar[str] = "target_finished"

    backend: str
    ok: bool
    duration_s: float
    app: str = ""


@dataclasses.dataclass(frozen=True)
class CrossValidationReady(AnalysisEvent):
    """The cross-backend divergence report of a fan-out is built.

    ``report`` is the JSON form of a
    :class:`repro.report.CrossValidationReport`
    (``CrossValidationReport.from_dict`` round-trips it exactly —
    that is how ``--events jsonl`` consumers rebuild the report).
    """

    kind: ClassVar[str] = "cross_validation_report"

    report: dict
    app: str = ""
    backend: str = ""


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """An event class's field names, in declaration order."""
    return tuple(field.name for field in dataclasses.fields(cls))


# -- the server envelope -----------------------------------------------------

#: Version of the jsonl event envelope the campaign server speaks.
#: Bumped only when an *incompatible* change to the envelope shape
#: ships; adding events or fields is compatible and does not bump it.
SCHEMA_VERSION = 1


def envelope(
    event: AnalysisEvent, *, schema_version: int = SCHEMA_VERSION
) -> dict:
    """The event's JSON form wrapped in the versioned server envelope.

    Injected only at the service layer: direct ``--events jsonl``
    streams keep emitting bare :meth:`AnalysisEvent.to_dict` objects,
    byte-identical to the historical format, while server clients can
    negotiate on ``schema_version`` (field first, so stripping it
    restores the bare line exactly). Existing consumers that index by
    ``"event"`` ignore the extra field for free.
    """
    return {"schema_version": schema_version, **event.to_dict()}


# -- adapters ----------------------------------------------------------------


def tag_app(emit: EventCallback, app: str) -> EventCallback:
    """Stamp *app* onto every event that lacks an identity.

    The analyzer wraps a listener with this so concurrent analyses
    sharing one session callback stay attributable; an analysis
    nobody listens to has nothing to stamp and skips it.
    """

    def tagged(event: AnalysisEvent) -> None:
        if getattr(event, "app", None) == "":
            event = dataclasses.replace(event, app=app)
        emit(event)

    return tagged


def tag_backend(emit: EventCallback, backend: str) -> EventCallback:
    """Stamp the registry name *backend* onto every event of one leg.

    The session's multi-target fan-out wraps each target's emitter
    with this, so one interleaved stream stays attributable per
    target. The stamp *overrides* :class:`AnalysisStarted`'s execution
    backend identity too: two registry variants can resolve to
    identically-named execution backends (the collision case the
    fan-out explicitly supports), and only the registry name tells
    their concurrent legs apart. Within a fan-out stream, ``backend``
    therefore always means the registry target name; the execution
    identity remains available in the cross-validation report's
    observations and in the loupedb records.
    """

    def tagged(event: AnalysisEvent) -> None:
        if getattr(event, "backend", None) != backend:
            event = dataclasses.replace(event, backend=backend)
        emit(event)

    return tagged


def combine_callbacks(
    *callbacks: "EventCallback | None",
) -> "EventCallback | None":
    """Fan one event out to several consumers (``None``s are skipped)."""
    active = [callback for callback in callbacks if callback is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def emit(event: AnalysisEvent) -> None:
        for callback in active:
            callback(event)

    return emit
