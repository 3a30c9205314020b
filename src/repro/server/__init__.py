"""Loupe as a service: the campaign server.

The paper's workflow — submit a campaign, watch it run, collect the
support matrix — generalizes past one terminal: this package wraps
:class:`~repro.api.session.LoupeSession` in a small stdlib-only HTTP
service with a job queue, a bounded worker pool, durable per-job
lifecycle directories, and live event streaming, so campaigns can be
submitted from anywhere and survive their submitter.

The pieces, bottom up:

* :mod:`~repro.server.jobstore` — job specs, the lifecycle state
  machine (``queued → running → done/failed/cancelled/quarantined``),
  filesystem storage with atomic metadata writes, job ownership and
  attempt history, and crash recovery that *resumes* orphaned work;
* :mod:`~repro.server.queue` — the FIFO queue and worker pool that
  drain jobs through sessions, wiring cooperative cancellation into
  the analyzer's ``cancel_check``, with admission control and drain
  mode (a hung run is bounded by its own timeout — the spec's
  ``probe_timeout`` or the backend's — not by the server);
* :mod:`~repro.server.handlers` — the HTTP surface, including the
  long-polling ``/jobs/<id>/events`` replay and the ``/jobs/<id>?wait=``
  long-poll that returns a job's meta once it is terminal;
* :mod:`~repro.server.app` — :class:`CampaignServer`, composing the
  above behind one lifecycle;
* :mod:`~repro.server.client` — the urllib client the CLI
  subcommands (``loupe serve/submit/jobs/tail/cancel``) are built on.

No new dependencies anywhere: ``http.server`` on the way in,
``urllib.request`` on the way out, JSON files in between.
"""

from repro.server.app import CampaignServer
from repro.server.client import ServiceClient, ServiceError, discover_url
from repro.server.jobstore import (
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUARANTINED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    JobError,
    JobMeta,
    JobSpec,
    JobSpecError,
    JobStateError,
    JobStore,
    TornMetaError,
    UnknownJobError,
    encode_report,
)
from repro.server.queue import (
    JobRunner,
    QueueFullError,
    ServerDrainingError,
)

__all__ = [
    "CampaignServer",
    "ServiceClient",
    "ServiceError",
    "discover_url",
    "JobError",
    "JobMeta",
    "JobRunner",
    "JobSpec",
    "JobSpecError",
    "JobStateError",
    "JobStore",
    "QueueFullError",
    "ServerDrainingError",
    "TornMetaError",
    "UnknownJobError",
    "encode_report",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "QUARANTINED",
    "STATES",
    "TERMINAL_STATES",
    "LEGAL_TRANSITIONS",
]
