"""The campaign server's work queue and worker pool.

Submitted jobs drain through a plain FIFO: :class:`JobRunner` owns a
:class:`queue.Queue` of job ids and a fixed pool of worker threads,
each of which pops an id, moves the job ``queued → running``, and
drives the campaign through :class:`~repro.api.session.LoupeSession`
exactly as the CLI would — same analyzer, same engine, same event
stream. The server adds nothing to *how* campaigns run; it only
decides *when* and records *what happened*.

Every analyzer event is wrapped in the versioned server envelope
(:func:`repro.api.events.envelope`) and appended to the job's
``events.jsonl``, which is what ``GET /jobs/<id>/events`` replays.
Because the envelope merely prefixes ``schema_version`` to the exact
``to_dict()`` document the CLI's ``--events jsonl`` writes, stripping
that one field restores the CLI stream byte for byte.

Cancellation is cooperative end to end: each submitted job owns a
:class:`threading.Event`; ``POST /jobs/<id>/cancel`` sets it, and the
worker hands ``event.is_set`` to :meth:`LoupeSession.analyze` as its
``cancel_check``. A queued job is cancelled on the spot (the
store's state machine arbitrates the race with a worker picking it
up); a running job stops at the analyzer's next wave boundary and
lands ``cancelled`` with its engine accounting intact.

The durability layer (this module's half of it — the persistent half
lives in :mod:`repro.server.jobstore`):

* **Hangs and crashes.** A hung run is bounded by the run's own
  timeout — the spec's ``probe_timeout`` (a deadline ``guarded_run``
  hands the backend, which stops by it) or ptrace's ``timeout_s`` and
  its pidfd watchdog — which
  frees the worker, so the job lands ``done`` (degraded) or
  ``failed``. A server that dies leaves its jobs ``running`` on disk;
  the next start's :meth:`~repro.server.jobstore.JobStore.recover`
  requeues them with ``attempt+1``, or quarantines one that has
  taken the server down ``max_attempts`` times.

* **Resume.** A resumed attempt re-runs its campaign through the
  spec's own config. A spec that names a run cache (or a server
  started with ``--run-cache``, which writes that path into each
  spec) resumes warm from that store; a spec-less job resumes cold,
  and its report is byte-identical either way. The runner injects no
  store of its own: encoding every probe to disk costs more than a
  short deterministic job saves by resuming warm once after a crash.
  The job's event log is one handle held open for the whole analysis.

* **Admission + drain.** ``max_queue`` bounds accepted-but-unstarted
  work (:class:`QueueFullError` → HTTP 429); :meth:`JobRunner.drain`
  stops intake (:class:`ServerDrainingError` → 503) and lets workers
  finish in-flight campaigns while leaving still-queued jobs on disk
  as ``queued`` — the next server start re-enqueues them untouched.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import threading

from repro.api.events import envelope
from repro.api.session import LoupeSession
from repro.errors import AnalysisCancelledError
from repro.server.jobstore import (
    CANCELLED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobError,
    JobMeta,
    JobSpec,
    JobStateError,
    JobStore,
    encode_report,
)

#: Queue sentinel telling one worker thread to exit.
_STOP = object()

#: Default attempt budget before a job is quarantined as poisonous.
DEFAULT_MAX_ATTEMPTS = 3


class QueueFullError(JobError):
    """Admission control refused a submission: the queue is at its
    configured depth. Carries the advisory ``retry_after_s`` the HTTP
    layer surfaces as a ``Retry-After`` header."""

    def __init__(self, depth: int, max_queue: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full ({depth}/{max_queue} jobs waiting); "
            f"retry in {retry_after_s:.0f}s"
        )
        self.depth = depth
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


class ServerDrainingError(JobError):
    """The server is draining: in-flight work finishes, intake is
    closed. Submissions should go elsewhere (or wait for a restart)."""

    def __init__(self) -> None:
        super().__init__("server is draining; not accepting new jobs")


class JobRunner:
    """A bounded worker pool draining the job queue through sessions.

    One runner per server. ``workers`` threads run campaigns
    concurrently; everything else waits its turn in FIFO order. Each
    job gets a **fresh** :class:`LoupeSession` — jobs must not share
    loupedb memoization, or two submissions of the same spec would
    return one record and the second job's event log would be empty.

    Durability knobs: ``max_queue`` bounds accepted-but-unstarted jobs
    (``None`` = unbounded, the embedded-test default); ``max_attempts``
    is the restart budget :meth:`JobStore.recover` applies at start.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 2,
        max_queue: "int | None" = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.workers = workers
        self.max_queue = max_queue
        self.max_attempts = max_attempts
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._cancels: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._busy = 0
        self._threads: list[threading.Thread] = []
        self._started = False
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Recover the store, re-enqueue surviving work, and spin up
        the workers. Idempotent.

        Recovery is the resume path: orphaned ``running`` jobs come
        back ``queued`` with ``attempt+1`` (or quarantined, budget
        permitting) and go straight back on the queue alongside the
        jobs that never started.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
        resumed, _quarantined, requeue = self.store.recover(
            max_attempts=self.max_attempts
        )
        for meta in resumed + requeue:
            self._enqueue(meta.id)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"loupe-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(
        self,
        *,
        cancel_running: bool = False,
        timeout: "float | None" = 10.0,
    ) -> None:
        """Stop accepting work and wind the pool down.

        ``cancel_running=True`` additionally sets every outstanding
        cancel event, so in-flight campaigns stop at their next wave
        boundary instead of running to completion (they land
        ``cancelled``, which is the honest record of a shutdown that
        did not wait). Worker threads are daemons — a join timing out
        never wedges process exit. Any job still ``running`` after the
        join window gets a ``job_interrupted`` marker flushed to its
        event stream, so a tailing client sees a terminal record
        instead of a stream that just stops.
        """
        if cancel_running:
            with self._lock:
                events = list(self._cancels.values())
            for event in events:
                event.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        for meta in self.store.list_jobs():
            if meta.status == RUNNING:
                self.store.append_marker(
                    meta.id, "job_interrupted",
                    attempt=meta.attempt, reason="server-shutdown",
                )
        with self._lock:
            self._started = False

    def drain(self) -> None:
        """Flip the one-way drain switch: intake closes (submissions
        raise :class:`ServerDrainingError`), in-flight campaigns run
        to completion, and still-queued jobs are left ``queued`` on
        disk for the next server start to pick up."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- submission and cancellation -----------------------------------------

    def submit(self, spec: JobSpec) -> JobMeta:
        """Admit *spec* as a new queued job and enqueue it.

        Admission happens **before** anything touches disk: a refused
        submission leaves no trace. Raises
        :class:`ServerDrainingError` while draining and
        :class:`QueueFullError` past ``max_queue`` waiting jobs.
        """
        with self._lock:
            if self._draining:
                raise ServerDrainingError()
            depth = self._queue.qsize()
            if self.max_queue is not None and depth >= self.max_queue:
                # Advisory backoff: scale with how much work is ahead
                # of the caller, bounded so clients never sleep absurd
                # amounts on one header.
                retry_after = min(max(2.0 * depth / self.workers, 1.0), 60.0)
                raise QueueFullError(depth, self.max_queue, retry_after)
        meta = self.store.new_job(spec)
        self._enqueue(meta.id)
        return meta

    def submit_existing(self, job_id: str) -> None:
        """Re-enqueue a job already persisted as ``queued`` (exempt
        from admission control: this work was already accepted once)."""
        self._enqueue(job_id)

    def _enqueue(self, job_id: str) -> None:
        with self._lock:
            self._cancels[job_id] = threading.Event()
        self._queue.put(job_id)

    def cancel(self, job_id: str) -> JobMeta:
        """Request cancellation; returns the job's resulting meta.

        Queued jobs land ``cancelled`` immediately (unless a worker
        wins the pickup race, in which case the set cancel event stops
        them within one wave). Running jobs get the cooperative
        signal and keep status ``running`` until the analyzer reaches
        its next checkpoint. Cancelling an already-cancelled job is
        idempotent; cancelling ``done``/``failed``/``quarantined``
        raises :class:`JobStateError` (there is nothing left to stop).
        """
        meta = self.store.meta(job_id)
        if meta.status == CANCELLED:
            return meta
        if meta.status in (DONE, FAILED, QUARANTINED):
            raise JobStateError(job_id, meta.status, CANCELLED)
        with self._lock:
            event = self._cancels.get(job_id)
        if event is not None:
            event.set()
        if meta.status == QUEUED:
            try:
                return self.store.transition(
                    job_id, CANCELLED, reason="cancelled while queued"
                )
            except JobStateError:
                # Lost the race: a worker moved it to running between
                # our read and the transition. The cancel event is
                # already set, so the campaign stops at its next wave.
                pass
        return self.store.meta(job_id)

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker (approximate, by design)."""
        return self._queue.qsize()

    @property
    def busy_workers(self) -> int:
        with self._lock:
            return self._busy

    # -- the work loop -------------------------------------------------------

    def _worker_loop(self) -> None:
        owner = f"{os.getpid()}-{threading.current_thread().name}"
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                job_id = str(item)
                with self._lock:
                    if self._draining:
                        # Drain: leave the job ``queued`` on disk for
                        # the next server start; just drop the
                        # in-memory claim.
                        if job_id in self._cancels:
                            del self._cancels[job_id]
                        continue
                    self._busy += 1
                    event = self._cancels.get(job_id)
                event = event or threading.Event()
                try:
                    self._run_job(job_id, event, owner)
                finally:
                    with self._lock:
                        self._busy -= 1
                        # Identity check: a restart's recovery
                        # re-enqueues the same id with a *new* cancel
                        # event; a stale worker finishing late must
                        # not pop the successor attempt's event.
                        if self._cancels.get(job_id) is event:
                            del self._cancels[job_id]
            finally:
                self._queue.task_done()

    def _run_job(
        self, job_id: str, cancel_event: threading.Event, owner: str
    ) -> None:
        try:
            self.store.transition(job_id, RUNNING, owner=owner)
        except JobStateError:
            # Cancelled (or otherwise resolved) while queued — the
            # state machine already recorded the outcome; nothing to
            # run.
            return
        try:
            spec = self.store.spec(job_id)
            with self.store.event_log(job_id) as append, \
                    LoupeSession(config=spec.analyzer_config()) as session:
                outcome = session.analyze(
                    spec.request(),
                    on_event=lambda event: append(json.dumps(envelope(event))),
                    cancel_check=cancel_event.is_set,
                )
                stats = session.last_engine_stats
            self._write_report(job_id, outcome)
            self._transition_safely(
                job_id, DONE, owner,
                engine_stats=_stats_doc(stats),
            )
        except AnalysisCancelledError as error:
            self._transition_safely(
                job_id, CANCELLED, owner,
                reason="cancelled while running",
                engine_stats=_stats_doc(error.stats),
            )
        except Exception as error:  # noqa: BLE001 — jobs must never
            # take a worker thread down with them; whatever the
            # campaign raised becomes the job's terminal record.
            reason = f"{type(error).__name__}: {error}"
            # Terminal marker for tailing clients: the analyzer died
            # mid-stream and never emitted one itself.
            self._transition_safely(
                job_id, FAILED, owner, reason=reason,
                marker={"event": "job_failed", "reason": reason},
            )

    def _transition_safely(
        self, job_id: str, status: str, owner: str, **kwargs: object
    ) -> "JobMeta | None":
        """Commit a worker's outcome — unless the worker no longer owns
        the job (a restart's recovery requeued it), in which case the
        store refuses and the stale outcome is dropped on the floor,
        which is exactly where it belongs."""
        try:
            return self.store.transition(
                job_id, status, owner=owner, **kwargs
            )
        except JobStateError:
            return None

    def _write_report(self, job_id: str, outcome: object) -> None:
        path = self.store.report_path(job_id)
        temp = path.with_suffix(".json.tmp")
        temp.write_text(encode_report(outcome))
        os.replace(temp, path)


def _stats_doc(stats: object) -> "dict | None":
    """Engine stats as a plain document for ``meta.json`` (``None``
    stays ``None`` — e.g. a job cancelled before its first probe)."""
    if stats is None:
        return None
    return dataclasses.asdict(stats)
