"""Job specs, the lifecycle state machine, and on-disk job storage.

The campaign server's unit of work is a **job**: one campaign spec
submitted over HTTP, owned end-to-end by a lifecycle directory

.. code-block:: text

    <data_dir>/jobs/<id>/
        spec.json       what was asked for (immutable after submit)
        meta.json       where the job is in its lifecycle (atomic writes)
        events.jsonl    the campaign's event stream, envelope-wrapped
        report.json     the result, written once on success

mirroring the per-app lifecycle-dir shape of the streamlit-manager
exemplar the ROADMAP cites (single service, one directory per managed
thing, ``meta.json`` + logs inside it). Everything is plain files, so
a human (or a crashed server's successor) can always reconstruct the
service's state with ``ls`` and ``cat``.

The state machine::

    queued ──> running ──> done
       │          ├──────> failed
       │          ├──────> quarantined   (attempt budget exhausted)
       │          ├──────> queued        (crash resume)
       └──────────┴──────> cancelled

:meth:`JobStore.transition` enforces exactly those edges under one
lock, which is what makes the submit/cancel race benign: a concurrent
``queued→running`` (worker) and ``queued→cancelled`` (cancel request)
resolve to whichever transition commits first, and the loser gets a
:class:`JobStateError` instead of a corrupted meta file.

**Ownership.** A ``running`` job is not merely a status — it is a
claim: ``meta.json`` records the owning worker (``lease_owner``).
Transitions out of ``running`` verify the caller still owns the job,
so a worker whose job was requeued meanwhile cannot overwrite the
successor's state — the stale claim dies with a
:class:`JobStateError`, not a corrupted lifecycle. Nothing expires a
claim: a hung run is bounded by its own timeout, and a dead server's
claims are voided by :meth:`JobStore.recover` at the next start.

**Attempts.** ``attempt`` counts executions of the job (1-based);
every crash recovery bumps it and appends a record to ``history``
(which worker owned it, why it was lost, when), the full
audit trail ``GET /jobs/<id>`` exposes. A job whose attempts are
exhausted lands ``quarantined`` — terminal, never blocking the queue,
history intact for triage.

Crash recovery (:meth:`JobStore.recover`) runs at server start: jobs
found ``running`` were orphaned by a dead server and are **resumed**
— re-enqueued as ``queued`` with ``attempt+1`` (a spec that names a
run cache answers every probe the previous attempt stored there; any
other job re-runs from scratch) — unless their attempt budget is
spent, in which case they are quarantined. Jobs found ``queued`` are
returned for re-enqueueing in submission order, so a restart never
silently drops accepted work.
Torn metadata (a server killed mid-write of a brand-new job, or a
filesystem that tore what :func:`os.replace` promised atomic) is
rebuilt from ``spec.json`` as a fresh ``queued`` job rather than
wedging the store.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.api.events import SCHEMA_VERSION
from repro.api.session import AnalysisRequest
from repro.core.analyzer import AnalyzerConfig
from repro.core.cachestore import CacheStoreError, check_store
from repro.errors import LoupeError

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
QUARANTINED = "quarantined"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, QUARANTINED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, QUARANTINED})

#: The legal edges of the lifecycle state machine — everything else is
#: a bug (or a race that lost, which callers handle explicitly).
#: ``running → queued`` is the durability edge: crash recovery hands
#: the job back to the queue for another attempt.
LEGAL_TRANSITIONS = frozenset({
    (QUEUED, RUNNING),
    (QUEUED, CANCELLED),
    (RUNNING, DONE),
    (RUNNING, FAILED),
    (RUNNING, CANCELLED),
    (RUNNING, QUEUED),
    (RUNNING, QUARANTINED),
})


class JobError(LoupeError):
    """Base class of campaign-server job errors."""


class JobSpecError(JobError):
    """A submitted campaign spec is malformed."""


class UnknownJobError(JobError):
    """No job with the given id exists in this store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class TornMetaError(JobError):
    """A job's ``meta.json`` exists but does not parse — the footprint
    of a write torn by a crash. :meth:`JobStore.recover` rebuilds such
    jobs from their immutable ``spec.json``; until it runs, readers
    see this error instead of a stack trace from ``json``."""

    def __init__(self, job_id: str) -> None:
        super().__init__(
            f"job {job_id}: meta.json is torn or unreadable "
            f"(recoverable: restart the server, or call recover())"
        )
        self.job_id = job_id


class JobStateError(JobError):
    """An illegal lifecycle transition was requested."""

    def __init__(
        self, job_id: str, current: str, wanted: str, *, detail: str = ""
    ) -> None:
        message = f"job {job_id}: illegal transition {current!r} -> {wanted!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.job_id = job_id
        self.current = current
        self.wanted = wanted
        self.detail = detail


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One campaign, declaratively — the JSON body of ``POST /jobs``.

    Field names mirror the ``loupe analyze`` flags one-for-one, so a
    CLI invocation and a job submission describe campaigns in the same
    vocabulary. ``backend`` accepts the same comma list as the CLI
    (``"appsim,ptrace"`` fans out and lands a cross-validation report
    as the job's ``report.json``).
    """

    app: str = "redis"
    workload: str = "bench"
    backend: str = "appsim"
    replicas: int = 3
    subfeatures: bool = False
    pseudofiles: bool = False
    jobs: int = 1
    executor: str = "auto"
    run_cache: "str | None" = None
    run_cache_max_entries: "int | None" = None
    run_cache_ttl: "float | None" = None
    probe_timeout: "float | None" = None
    retries: int = 0
    retry_backoff: float = 0.05
    on_fault: str = "fail"
    fault_seed: "int | None" = None

    @staticmethod
    def from_dict(data: object) -> "JobSpec":
        """Parse and validate a submitted spec document.

        Unknown fields are rejected rather than ignored: a client
        typo'ing ``replcias`` must hear about it at submit time, not
        discover a silently-default campaign three hours later.
        """
        if not isinstance(data, dict):
            raise JobSpecError(
                f"campaign spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {field.name for field in dataclasses.fields(JobSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(
                f"unknown spec field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        try:
            spec = JobSpec(**data)
        except TypeError as error:
            raise JobSpecError(f"malformed campaign spec: {error}")
        spec.validate()
        return spec

    def validate(self) -> None:
        """Reject specs the analyzer would refuse (or worse, accept
        and misinterpret) — the same checks the CLI's argparse layer
        performs, reproduced here for the HTTP front door."""
        if not isinstance(self.app, str) or not self.app:
            raise JobSpecError("app must be a non-empty string")
        if self.workload not in ("health", "bench", "suite"):
            raise JobSpecError(
                f"unknown workload {self.workload!r}; choose from: "
                f"health, bench, suite"
            )
        try:
            self.analyzer_config()
        except (ValueError, TypeError) as error:
            raise JobSpecError(f"invalid campaign spec: {error}")
        if self.run_cache:
            try:
                check_store(
                    self.run_cache, max_entries=self.run_cache_max_entries
                )
            except CacheStoreError as error:
                raise JobSpecError(f"invalid campaign spec: {error}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def analyzer_config(self) -> AnalyzerConfig:
        """The spec as the analyzer configuration it describes."""
        return AnalyzerConfig(
            replicas=self.replicas,
            subfeature_level=self.subfeatures,
            pseudo_files=self.pseudofiles,
            parallel=self.jobs,
            executor=self.executor,
            run_cache=self.run_cache,
            run_cache_max_entries=self.run_cache_max_entries,
            run_cache_ttl_s=self.run_cache_ttl,
            probe_timeout_s=self.probe_timeout,
            retries=self.retries,
            retry_backoff_s=self.retry_backoff,
            on_fault=self.on_fault,
            fault_seed=self.fault_seed,
        )

    def request(self) -> AnalysisRequest:
        """The spec as the session request it describes."""
        return AnalysisRequest(
            app=self.app,
            workload=self.workload,
            backend=self.backend,
        )


@dataclasses.dataclass(frozen=True)
class JobMeta:
    """One job's lifecycle facts — the contents of ``meta.json``.

    ``reason`` explains terminal states that need explaining
    (``failed``: the error; ``cancelled``: who asked; ``quarantined``:
    which budget ran out). ``engine_stats`` preserves the probe-engine
    accounting of finished *and* cancelled jobs — a cancelled campaign
    still reports what it paid for.

    The durability fields: ``attempt`` is 1-based and bumps on every
    resume; ``lease_owner`` names the worker that owns the job while
    ``running`` (cleared on requeue, kept on terminal states —
    forensics); ``history`` is the append-only audit trail of lost
    attempts, one record per recovery/rebuild, each carrying at least
    ``attempt``, ``outcome`` and ``at``. Keys this class does not
    know, such as fields an older server wrote, are dropped on load.
    """

    id: str
    status: str
    app: str
    workload: str
    backend: str
    created_at: float
    started_at: "float | None" = None
    finished_at: "float | None" = None
    reason: str = ""
    engine_stats: "dict | None" = None
    attempt: int = 1
    lease_owner: str = ""
    history: tuple = ()

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["history"] = list(self.history)
        return data

    @staticmethod
    def from_dict(data: dict) -> "JobMeta":
        known = {field.name for field in dataclasses.fields(JobMeta)}
        fields = {
            key: value for key, value in data.items() if key in known
        }
        fields["history"] = tuple(fields.get("history") or ())
        return JobMeta(**fields)


def _marker_line(fields: dict) -> str:
    """One server-side marker as an event-stream line: the envelope's
    wire shape, ``schema_version`` first, then ``event``."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **fields}) + "\n"


def encode_report(outcome: object) -> str:
    """The canonical ``report.json`` serialization: compact JSON with
    sorted keys and one trailing newline.

    One definition shared by the job runner, ``loupe compare
    --report`` and the tests, so "the server's report is
    byte-identical to a direct :meth:`LoupeSession.analyze` run" is
    checkable with ``cmp``: serialize the direct outcome with this
    same function and compare bytes. Works for both job outcome
    shapes — :class:`~repro.core.result.AnalysisResult` and
    :class:`~repro.report.CrossValidationReport` (multi-backend
    specs) — via their ``to_dict``. Compact, because pretty-printing
    would push ``json`` off its C encoder onto the pure-Python one.
    """
    return json.dumps(outcome.to_dict(), sort_keys=True) + "\n"


class JobStore:
    """Filesystem-backed job storage with a lock-guarded state machine.

    All mutation goes through :meth:`new_job`, :meth:`transition`
    and :meth:`event_log`; reads (:meth:`meta`,
    :meth:`spec`, :meth:`read_events`) go straight to disk, so any
    process — the server, a test, an operator's shell — sees the same
    truth. ``meta.json`` writes are atomic (temp file +
    ``os.replace``): a server killed mid-transition leaves the
    previous consistent state, never a torn file.
    """

    def __init__(self, data_dir: "str | Path") -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Per-job conditions, created by the first waiter and released
        #: on the job's terminal transition. Event tails sleep on
        #: ``_event_conditions``, which every append and transition
        #: notifies; status waiters sleep on ``_status_conditions``,
        #: which only transitions notify.
        self._event_conditions: dict[str, threading.Condition] = {}
        self._status_conditions: dict[str, threading.Condition] = {}
        self._next_seq = 1 + max(
            (
                int(path.name.split("-")[-1])
                for path in self.jobs_dir.iterdir()
                if path.is_dir() and path.name.split("-")[-1].isdigit()
            ),
            default=0,
        )

    # -- paths --------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "spec.json"

    def meta_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "meta.json"

    def events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "events.jsonl"

    def report_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "report.json"

    # -- creation and reads --------------------------------------------------

    def new_job(self, spec: JobSpec) -> JobMeta:
        """Persist one accepted spec as a fresh ``queued`` job."""
        with self._lock:
            job_id = f"job-{self._next_seq:06d}"
            self._next_seq += 1
            directory = self.job_dir(job_id)
            directory.mkdir(parents=True)
            meta = JobMeta(
                id=job_id,
                status=QUEUED,
                app=spec.app,
                workload=spec.workload,
                backend=spec.backend,
                created_at=time.time(),
            )
            self.spec_path(job_id).write_text(
                json.dumps(spec.to_dict(), sort_keys=True) + "\n"
            )
            self._write_meta(meta)
        return meta

    def exists(self, job_id: str) -> bool:
        return self.meta_path(job_id).is_file()

    def meta(self, job_id: str) -> JobMeta:
        try:
            data = json.loads(self.meta_path(job_id).read_text())
        except FileNotFoundError:
            raise UnknownJobError(job_id)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise TornMetaError(job_id)
        return JobMeta.from_dict(data)

    def spec(self, job_id: str) -> JobSpec:
        try:
            data = json.loads(self.spec_path(job_id).read_text())
        except FileNotFoundError:
            raise UnknownJobError(job_id)
        return JobSpec.from_dict(data)

    def list_jobs(self) -> list[JobMeta]:
        """Every readable job's meta, in submission (id) order.

        Jobs with torn metadata are skipped rather than turning every
        listing into a stack trace — :meth:`recover` rebuilds them at
        the next server start, and :meth:`meta` still reports them
        individually as :class:`TornMetaError`.
        """
        metas = []
        for path in sorted(self.jobs_dir.iterdir()):
            if not (path / "meta.json").is_file():
                continue
            try:
                metas.append(self.meta(path.name))
            except (TornMetaError, UnknownJobError):
                continue
        return metas

    def counts(self) -> dict[str, int]:
        """Job totals by status (every state present, zeros included)."""
        totals = {state: 0 for state in STATES}
        for meta in self.list_jobs():
            totals[meta.status] = totals.get(meta.status, 0) + 1
        totals["total"] = sum(
            totals[state] for state in STATES
        )
        return totals

    # -- the state machine ---------------------------------------------------

    def transition(
        self,
        job_id: str,
        status: str,
        *,
        reason: str = "",
        engine_stats: "dict | None" = None,
        owner: "str | None" = None,
        bump_attempt: bool = False,
        history_event: "dict | None" = None,
        marker: "dict | None" = None,
    ) -> JobMeta:
        """Atomically move one job along a legal lifecycle edge.

        Raises :class:`JobStateError` on an illegal edge — which is
        how lifecycle races resolve: of a concurrent ``queued →
        running`` and ``queued → cancelled``, exactly one commits and
        the other gets the error to react to.

        *owner* is the stale-outcome guard: a transition **into**
        ``running`` records the caller as the job's owner; a
        transition **out of** ``running`` that names an *owner*
        commits only if that owner still holds the job — a worker
        whose job was requeued meanwhile gets a :class:`JobStateError`
        instead of clobbering the successor attempt's state.
        *bump_attempt* increments the attempt counter (recovery
        requeues); *history_event*
        appends one audit record to the job's history. *marker* is a
        server-side marker's fields, ``event`` first (see
        :meth:`append_marker`): it is appended once the edge and owner
        checks pass and before the new status is written, so a tail
        that sees the new status has the marker too.
        """
        if status not in STATES:
            raise ValueError(f"unknown job status {status!r}")
        with self._lock:
            meta = self.meta(job_id)
            if (meta.status, status) not in LEGAL_TRANSITIONS:
                raise JobStateError(job_id, meta.status, status)
            if owner is not None and status != RUNNING:
                # An owner-carrying transition is a worker reporting
                # its job's outcome; it commits only against the
                # attempt that worker actually owns. This closes both
                # stale-claim holes: the job handed to a successor
                # (owner mismatch) and the job already requeued back
                # to ``queued`` (no longer running at all — without
                # this, a stale worker could ride the legal
                # ``queued → cancelled`` edge over the rerun).
                if meta.status != RUNNING:
                    raise JobStateError(
                        job_id, meta.status, status,
                        detail=f"{owner!r} no longer holds this job",
                    )
                if meta.lease_owner and owner != meta.lease_owner:
                    raise JobStateError(
                        job_id, meta.status, status,
                        detail=f"owned by {meta.lease_owner!r}, "
                               f"not {owner!r}",
                    )
            now = time.time()
            updates: dict = {"status": status}
            if reason:
                updates["reason"] = reason
            if engine_stats is not None:
                updates["engine_stats"] = engine_stats
            if bump_attempt:
                updates["attempt"] = meta.attempt + 1
            if history_event is not None:
                updates["history"] = meta.history + (
                    {"at": now, **history_event},
                )
            if status == RUNNING:
                updates["started_at"] = now
                updates["lease_owner"] = owner or ""
            if status == QUEUED:
                # Requeue: the claim is void; the next worker makes a
                # fresh one. started_at is cleared so queue-age
                # metrics and "when did this attempt start" never read
                # a dead attempt's clock.
                updates["started_at"] = None
                updates["lease_owner"] = ""
            if status in TERMINAL_STATES:
                # lease_owner stays for the post-mortem ("which worker
                # landed this?").
                updates["finished_at"] = now
            meta = dataclasses.replace(meta, **updates)
            if marker is not None:
                # Written here, under the store lock, so it lands
                # before the new status; the notify below wakes the
                # tails.
                with open(self.events_path(job_id), "a") as handle:
                    handle.write(_marker_line(marker))
            self._write_meta(meta)
            # Taken with the write, under the lock: a waiter that read
            # the old status made its condition before this (making
            # one takes the lock), and no waiter can release one
            # before it reads the new status.
            waiters = self._take_conditions(
                job_id, release=status in TERMINAL_STATES
            )
        for condition in waiters:
            with condition:
                condition.notify_all()
        return meta

    def _write_meta(self, meta: JobMeta) -> None:
        path = self.meta_path(meta.id)
        temp = path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(meta.to_dict(), sort_keys=True) + "\n")
        os.replace(temp, path)

    # -- the event log -------------------------------------------------------

    @contextlib.contextmanager
    def event_log(self, job_id: str):
        """Hold the job's event log open; yield ``append(line)``.

        Each call writes and flushes one whole envelope-wrapped line
        and wakes the job's event tails, if any wait. The handle is
        ``O_APPEND`` and no lock is held: a job has one writer, and a
        marker another thread appends meanwhile is its own whole-line
        write. A crashed server tears at most the final line, and
        readers only surface newline-terminated lines.
        """
        tails = self._event_conditions
        with open(self.events_path(job_id), "a") as handle:
            def append(line: str) -> None:
                if not line.endswith("\n"):
                    line += "\n"
                handle.write(line)
                handle.flush()
                # No condition means no tail was waiting when the line
                # landed: one that makes its condition later reads the
                # log after that, so it sees the line.
                condition = tails.get(job_id)
                if condition is not None:
                    with condition:
                        condition.notify_all()

            yield append

    def append_event(self, job_id: str, line: str) -> None:
        """Append one line (a marker, say) through its own handle."""
        with self.event_log(job_id) as append:
            append(line)

    def append_marker(self, job_id: str, kind: str, **fields: object) -> None:
        """Append one server-side lifecycle marker to the event stream.

        Markers share the envelope's wire shape (``schema_version``
        first, then ``event``) but are authored by the *server*, not
        the analyzer: ``job_failed``, ``job_requeued``,
        ``job_quarantined``, ``job_interrupted``. They exist so the
        stream always carries a terminal (or handoff) record even when
        the analyzer never got to emit one — a worker killed mid-wave,
        a crashed campaign, a server restart — and a tailing client
        is never left staring at a stream that just stops.
        """
        self.append_event(job_id, _marker_line({"event": kind, **fields}))

    def read_events(
        self, job_id: str, since: int = 0
    ) -> tuple[list[str], int]:
        """Complete event lines from index *since* on, and the next
        index to poll from. Unknown jobs raise; jobs that have not
        emitted yet return ``([], since)``."""
        if not self.exists(job_id):
            raise UnknownJobError(job_id)
        try:
            with open(self.events_path(job_id)) as handle:
                lines = [
                    line for line in handle.readlines()
                    if line.endswith("\n")  # skip a torn final line
                ]
        except FileNotFoundError:
            lines = []
        if since < 0:
            since = 0
        fresh = lines[since:]
        return fresh, since + len(fresh)

    def wait_for_events(
        self, job_id: str, since: int, timeout: float
    ) -> tuple[list[str], int, str]:
        """Long-poll: block up to *timeout* seconds for lines past
        *since*; return ``(lines, next_since, status)``.

        Returns immediately when lines are already available or the
        job is terminal (a terminal job will never emit again — there
        is nothing to wait for).

        The status is read before the lines: every line a job appends
        lands before its terminal status, so a terminal read with no
        fresh lines means the stream is complete.
        """
        def read() -> tuple:
            status = self.meta(job_id).status
            lines, next_since = self.read_events(job_id, since)
            return (lines, next_since, status), status, bool(lines)

        return self._long_poll(self._event_conditions, job_id, timeout, read)

    def wait_for_meta(self, job_id: str, timeout: float) -> JobMeta:
        """Long-poll: block up to *timeout* seconds for the job to turn
        terminal; return its meta, terminal or as it stands when the
        time runs out. Only lifecycle transitions wake this wait, never
        event appends."""
        def read() -> tuple:
            meta = self.meta(job_id)
            return meta, meta.status, False

        return self._long_poll(self._status_conditions, job_id, timeout, read)

    def _long_poll(
        self,
        table: "dict[str, threading.Condition]",
        job_id: str,
        timeout: float,
        read: "Callable[[], tuple]",
    ):
        """Call ``read() -> (value, status, ready)`` until *ready*, the
        job is terminal, or *timeout* seconds pass; return the last
        *value*.

        After a first read that finds nothing, every read happens
        while holding the job's condition in *table*, and notifiers
        take that condition after their write, so a write that lands
        between a read and the wait still wakes it.
        """
        value, status, ready = read()
        if ready or status in TERMINAL_STATES or timeout <= 0:
            return value
        deadline = time.monotonic() + timeout
        condition = self._condition(table, job_id)
        with condition:
            while True:
                value, status, ready = read()
                remaining = deadline - time.monotonic()
                if ready or status in TERMINAL_STATES or remaining <= 0:
                    break
                condition.wait(remaining)
        if status in TERMINAL_STATES:
            # A waiter that made its condition after the terminal
            # transition released the job's conditions drops it here.
            with self._lock:
                self._take_conditions(job_id, release=True)
        return value

    def _condition(
        self, table: "dict[str, threading.Condition]", job_id: str
    ) -> threading.Condition:
        with self._lock:
            condition = table.get(job_id)
            if condition is None:
                condition = table[job_id] = threading.Condition()
            return condition

    def _take_conditions(
        self, job_id: str, *, release: bool
    ) -> list[threading.Condition]:
        """The job's conditions, for a transition to notify; with
        *release* (a terminal transition) they also leave the tables,
        since nothing waits on a finished job: a late waiter reads the
        terminal status and returns. The caller holds the store
        lock."""
        take = dict.pop if release else dict.get
        return [
            condition
            for table in (self._event_conditions, self._status_conditions)
            if (condition := take(table, job_id, None)) is not None
        ]

    # -- crash recovery ------------------------------------------------------

    def recover(
        self, *, max_attempts: "int | None" = None
    ) -> tuple[list[JobMeta], list[JobMeta], list[JobMeta]]:
        """Reconcile on-disk state with reality at server start.

        Jobs found ``running`` belonged to a server that is no longer
        running them. With attempts to spare they are **resumed**:
        requeued with ``attempt+1`` and a ``server-restart`` history
        record. A resumed job whose spec names a run cache re-executes
        only what the dead attempt never stored there; any other job
        re-runs from scratch, to the same byte-identical report. Jobs
        already at *max_attempts* are quarantined instead (a job that
        takes the server down with it every time must stop being
        offered a worker). Jobs found ``queued`` are
        still owed work and come back in submission order. Torn or
        missing metadata is rebuilt from ``spec.json`` as ``queued``
        (history records the rebuild); leftover atomic-write temp
        files are cleared. Returns ``(resumed, quarantined, requeue)``
        — everything in *resumed* + *requeue* wants a queue slot.
        """
        resumed: list[JobMeta] = []
        quarantined: list[JobMeta] = []
        requeue: list[JobMeta] = []
        for path in sorted(self.jobs_dir.iterdir()):
            if not path.is_dir():
                continue
            job_id = path.name
            temp = self.meta_path(job_id).with_suffix(".json.tmp")
            try:
                temp.unlink()
            except FileNotFoundError:
                pass
            try:
                meta = self.meta(job_id)
            except UnknownJobError:
                if not self.spec_path(job_id).is_file():
                    continue  # not a job directory at all
                meta = self._rebuild_meta(job_id, "missing-meta")
            except TornMetaError:
                meta = self._rebuild_meta(job_id, "torn-meta")
            if meta is None:
                continue
            if meta.status == RUNNING:
                entry = {
                    "attempt": meta.attempt,
                    "outcome": "server-restart",
                    "owner": meta.lease_owner,
                }
                if max_attempts is not None and meta.attempt >= max_attempts:
                    quarantined.append(self.transition(
                        job_id, QUARANTINED,
                        reason=(
                            f"server restarted during attempt "
                            f"{meta.attempt}/{max_attempts}; "
                            f"attempt budget exhausted"
                        ),
                        history_event=entry,
                        marker={"event": "job_quarantined",
                                "attempt": meta.attempt,
                                "reason": "server-restart"},
                    ))
                else:
                    resumed.append(self.transition(
                        job_id, QUEUED,
                        bump_attempt=True, history_event=entry,
                        marker={"event": "job_requeued",
                                "attempt": meta.attempt + 1,
                                "reason": "server-restart"},
                    ))
            elif meta.status == QUEUED:
                requeue.append(meta)
        return resumed, quarantined, requeue

    def _rebuild_meta(self, job_id: str, why: str) -> "JobMeta | None":
        """Reconstruct a consistent ``queued`` meta from the immutable
        spec — the last consistent state a torn write can roll back
        to. A job whose *spec* is also unreadable is beyond rebuilding
        and is skipped (its directory stays for manual triage)."""
        try:
            spec = self.spec(job_id)
        except (UnknownJobError, JobSpecError, json.JSONDecodeError):
            return None
        try:
            created_at = os.path.getmtime(self.spec_path(job_id))
        except OSError:
            created_at = time.time()
        meta = JobMeta(
            id=job_id,
            status=QUEUED,
            app=spec.app,
            workload=spec.workload,
            backend=spec.backend,
            created_at=created_at,
            history=({
                "at": time.time(),
                "attempt": 1,
                "outcome": f"rebuilt-after-{why}",
            },),
        )
        with self._lock:
            self._write_meta(meta)
        return meta
