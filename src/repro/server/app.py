"""The campaign server: store + worker pool + HTTP front door.

:class:`CampaignServer` composes the three server pieces — the
filesystem :class:`~repro.server.jobstore.JobStore`, the bounded
:class:`~repro.server.queue.JobRunner`, and the
:class:`~repro.server.handlers.CampaignHTTPServer` socket — and owns
their shared lifecycle: construction binds the port (``port=0`` asks
the OS for an ephemeral one), :meth:`start` recovers crashed state
and begins serving, :meth:`close` winds everything down.

On start the server writes a **discovery file**,
``<data_dir>/server.json`` (``{"url", "pid", "started_at"}``), so
scripts that launched ``loupe serve --port 0`` in the background — the
end-to-end tests, say — can find the actual address without
parsing stdout. The file is removed on clean shutdown; a stale one
simply points at a dead port, which clients report as a connection
error, not silent hangs.

Validation happens at the front door: :meth:`submit` parses the spec
(:class:`~repro.server.jobstore.JobSpecError` → HTTP 400) and
resolves every named backend against the live registry before
accepting, so an unknown backend is rejected at submit time with the
registry's own "available backends" message rather than discovered by
a worker minutes later.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.api.registry import UnknownBackendError, parse_backend_names, resolve_backend
from repro.core.cachestore import open_store, parse_store_path
from repro.server.handlers import CampaignHTTPServer
from repro.server.jobstore import (
    QUEUED,
    RUNNING,
    JobMeta,
    JobSpec,
    JobSpecError,
    JobStore,
)
from repro.server.queue import DEFAULT_MAX_ATTEMPTS, JobRunner


class CampaignServer:
    """One campaign service instance.

    Usable embedded (tests construct one, ``start()`` it, and talk to
    ``server.url``) or from the CLI (``loupe serve``). ``run_cache``
    sets a service-default persistent run-result store: jobs whose
    spec names no store of their own inherit it, which is how a
    long-lived service amortizes probe work across campaigns and how a
    job resumed after a crash re-executes only what never finished.
    """

    def __init__(
        self,
        data_dir: "str | Path",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        run_cache: "str | None" = None,
        max_queue: "int | None" = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        verbose: bool = False,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.run_cache = run_cache
        #: The service-default store's file, resolved now so a bad
        #: ``run_cache`` (a URL) fails before any state is written,
        #: not in every job.
        self._run_cache_file = (
            None if run_cache is None else parse_store_path(run_cache)[1]
        )
        self.verbose = verbose
        self.started_at: "float | None" = None
        self.store = JobStore(self.data_dir)
        self.runner = JobRunner(
            self.store,
            workers=workers,
            max_queue=max_queue,
            max_attempts=max_attempts,
        )
        self._httpd = CampaignHTTPServer((host, port), self)
        self._thread: "threading.Thread | None" = None
        self._closed = False

    # -- addresses -----------------------------------------------------------

    @property
    def address(self) -> tuple:
        return self._httpd.server_address

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def discovery_path(self) -> Path:
        return self.data_dir / "server.json"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "CampaignServer":
        """Recover, start the workers, and serve in a background
        thread. Returns ``self`` so tests can one-line it."""
        if self._closed:
            raise RuntimeError("server already closed")
        if self._thread is not None:
            return self
        self.started_at = time.time()
        self.runner.start()  # recover() + requeue happen here
        self.discovery_path.write_text(json.dumps({
            "url": self.url,
            "pid": os.getpid(),
            "started_at": self.started_at,
        }, sort_keys=True) + "\n")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="loupe-campaign-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for ``loupe serve``: start, then park the
        calling thread until :meth:`close` (or KeyboardInterrupt,
        which the CLI translates into a graceful close)."""
        self.start()
        assert self._thread is not None
        while self._thread.is_alive():
            self._thread.join(timeout=1.0)

    def close(self, *, cancel_running: bool = False) -> None:
        """Stop serving and wind down the pool. Idempotent.

        ``cancel_running=True`` signals in-flight campaigns to stop at
        their next wave boundary instead of draining to completion.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.runner.stop(cancel_running=cancel_running)
        try:
            self.discovery_path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close(cancel_running=True)

    # -- the service operations (handlers call these) ------------------------

    def submit(self, document: object) -> JobMeta:
        """Validate one spec document and enqueue it as a job."""
        spec = JobSpec.from_dict(document)
        if spec.run_cache is None and self.run_cache is not None:
            # Inherit the service-default store; recorded in the job's
            # spec.json so the provenance is explicit, not ambient.
            spec = JobSpec.from_dict(
                {**spec.to_dict(), "run_cache": self.run_cache}
            )
        try:
            for name in parse_backend_names(spec.backend):
                resolve_backend(name)
        except UnknownBackendError as error:
            raise JobSpecError(str(error))
        return self.runner.submit(spec)

    def cancel(self, job_id: str) -> JobMeta:
        return self.runner.cancel(job_id)

    def drain(self) -> dict:
        """Flip the runner's one-way drain switch and report the
        resulting shed plan: what finishes, what waits on disk."""
        self.runner.drain()
        counts = self.store.counts()
        return {
            "draining": True,
            "running": counts.get(RUNNING, 0),
            "queued": counts.get(QUEUED, 0),
        }

    def health(self) -> dict:
        return {
            "ok": True,
            "url": self.url,
            "data_dir": str(self.data_dir),
            "workers": self.runner.workers,
            "draining": self.runner.draining,
            "started_at": self.started_at,
        }

    def stats(self) -> dict:
        """Service observability: queue depth, worker utilization, job
        totals by status (per-state gauges, zeros included), durability
        posture (``queue``: admission limits, drain flag, queue-age
        watermarks; ``attempts``: retry pressure — totals beyond first
        attempts and the worst offender), and ``run_cache``: the
        service-default store's stats in exactly the ``loupe cache
        stats --json`` shape, or ``None`` while no such store is
        configured or no job has created its file yet."""
        store_stats = None
        if self._run_cache_file is not None and self._run_cache_file.exists():
            # A fresh open per stats call: JSONL records appended by
            # the jobs' own handles are only visible to new handles.
            with open_store(self.run_cache) as cache:
                store_stats = cache.stats().to_dict()
        now = time.time()
        queue_ages = []
        attempts = []
        for meta in self.store.list_jobs():
            attempts.append(meta.attempt)
            if meta.status == QUEUED:
                queue_ages.append(max(now - meta.created_at, 0.0))
        return {
            "queue_depth": self.runner.queue_depth,
            "workers": self.runner.workers,
            "busy_workers": self.runner.busy_workers,
            "jobs": self.store.counts(),
            "queue": {
                "max_queue": self.runner.max_queue,
                "draining": self.runner.draining,
                "oldest_age_s": max(queue_ages, default=0.0),
                "mean_age_s": (
                    sum(queue_ages) / len(queue_ages) if queue_ages else 0.0
                ),
            },
            "attempts": {
                "max_attempts": self.runner.max_attempts,
                "retries": sum(a - 1 for a in attempts),
                "max_observed": max(attempts, default=0),
            },
            "run_cache": store_stats,
        }
