"""A stdlib HTTP client for the campaign server.

:class:`ServiceClient` is the one place the wire protocol is spoken
from the client side — the CLI's ``submit``/``jobs``/``tail``/
``cancel`` subcommands and the test suite all go through it, so a
protocol change breaks loudly in exactly one module.

Everything rides :mod:`urllib.request` (the no-new-deps rule applies
to clients too). Server-reported errors surface as
:class:`ServiceError` carrying the HTTP status and the server's
``{"error": ...}`` message (plus ``retry_after_s`` when the server
sent a ``Retry-After`` header — admission control's 429s do).

Transport failures get one level of forgiveness, but only where it is
safe: **idempotent GETs** retry with bounded exponential backoff on
transient connection errors (refused, reset, timed out), so a
``loupe tail`` rides out a server restart mid-stream instead of dying
— the events cursor makes re-polling the same window harmless. POSTs
never retry (a resubmitted ``POST /jobs`` would be a duplicate job);
their transport errors propagate as the usual
:class:`urllib.error.URLError`. A GET that exhausts its retry budget
raises :class:`~repro.errors.ServiceUnavailableError` with the
attempt count and final error.

Two ways to follow a job, for two needs:

* :meth:`wait` when only the outcome matters: it long-polls ``GET
  /jobs/<id>?wait=S``, which returns the job's meta once the job is
  terminal. It never downloads an event line, and the server wakes it
  only on lifecycle transitions — the cheap way to run a job to the
  end and then fetch its report.
* :meth:`tail` when the progress matters: it long-polls ``GET
  /jobs/<id>/events`` with the returned ``X-Loupe-Next-Since`` cursor,
  yielding raw event lines as they land, and stops once the stream is
  drained *and* the job's status (``X-Loupe-Job-Status``) is terminal.
  The yielded lines are the job's ``events.jsonl`` bytes, envelope and
  all — callers that want the CLI's ``--events jsonl`` stream back
  verbatim pop the ``schema_version`` key and re-dump. ``loupe tail``
  is built on it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from collections.abc import Iterator
from pathlib import Path

from repro.errors import LoupeError, ServiceUnavailableError
from repro.server.jobstore import TERMINAL_STATES

#: Default long-poll hold per wait or tail round trip, chosen under
#: the server's MAX_POLL_TIMEOUT_S cap.
DEFAULT_POLL_S = 20.0

#: Default transient-error retry budget for idempotent GETs (total
#: attempts = 1 + retries) and the base backoff, doubled per retry.
DEFAULT_RETRIES = 3
DEFAULT_RETRY_BACKOFF_S = 0.25

#: Backoff sleeps never exceed this, whatever the retry count.
_MAX_BACKOFF_S = 2.0


class ServiceError(LoupeError):
    """The server answered with an error status.

    ``retry_after_s`` carries the server's ``Retry-After`` header when
    one was sent (admission control's 429 replies do), ``None``
    otherwise — callers implementing polite resubmission read it
    instead of guessing.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after_s: "float | None" = None,
    ) -> None:
        super().__init__(f"server said {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


def discover_url(data_dir: "str | Path") -> str:
    """Read the server's address from its discovery file.

    ``loupe serve`` writes ``<data_dir>/server.json`` on start; every
    client subcommand falls back to this when no ``--url`` is given,
    so "same --data-dir" is all a shell script needs to share.
    """
    path = Path(data_dir) / "server.json"
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise LoupeError(
            f"no running server found: {path} does not exist "
            f"(start one with: loupe serve --data-dir {data_dir})"
        )
    url = document.get("url")
    if not isinstance(url, str) or not url:
        raise LoupeError(f"discovery file {path} has no server url")
    return url


class ServiceClient:
    """Talks to one campaign server.

    ``retries``/``retry_backoff_s`` bound the transient-error
    forgiveness on idempotent GETs (see the module docstring);
    ``retries=0`` restores fail-fast transport behavior everywhere.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        retries: int = DEFAULT_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

    # -- the protocol, one method per endpoint -------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def submit(self, spec: dict) -> dict:
        """Submit one campaign spec; returns the new job's meta."""
        return self._json("POST", "/jobs", body=spec)

    def jobs(self, *, state: "str | None" = None) -> list:
        path = "/jobs"
        if state:
            path += "?" + urllib.parse.urlencode({"state": state})
        return self._json("GET", path)["jobs"]

    def drain(self) -> dict:
        """Close the server's intake; returns the shed plan."""
        return self._json("POST", "/admin/drain")

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def report(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}/report")

    def report_bytes(self, job_id: str) -> bytes:
        """The raw ``report.json`` body — for byte-identity checks."""
        status, _headers, body = self._request(
            "GET", f"/jobs/{job_id}/report"
        )
        return body

    def events(
        self, job_id: str, *, since: int = 0, timeout: float = 0.0
    ) -> tuple[list[str], int, str]:
        """One events poll: ``(lines, next_since, job_status)``.

        ``timeout > 0`` long-polls: the server holds the reply up to
        that many seconds waiting for fresh lines.
        """
        query = urllib.parse.urlencode(
            {"since": since, "timeout": timeout}
        )
        status, headers, body = self._request(
            "GET",
            f"/jobs/{job_id}/events?{query}",
            read_timeout=self.timeout + timeout,
        )
        lines = body.decode("utf-8").splitlines(keepends=True)
        next_since = int(headers.get("X-Loupe-Next-Since", since))
        job_status = headers.get("X-Loupe-Job-Status", "")
        return lines, next_since, job_status

    # -- conveniences built on the protocol ----------------------------------

    def tail(
        self, job_id: str, *, since: int = 0, poll: float = DEFAULT_POLL_S
    ) -> "Iterator[str]":
        """Yield event lines as they land until the job is terminal.

        The final status is available afterwards via :attr:`last_status`
        (or just :meth:`job`). Terminal means the stream is complete:
        the job will never append again, so a drained read with a
        terminal status header ends the tail.
        """
        self.last_status = ""
        while True:
            lines, since, status = self.events(
                job_id, since=since, timeout=poll
            )
            yield from lines
            self.last_status = status
            if status in TERMINAL_STATES and not lines:
                return

    def wait(self, job_id: str, *, poll: float = DEFAULT_POLL_S) -> dict:
        """Block until the job is terminal; returns its final meta.

        One ``GET /jobs/<id>?wait=poll`` per round trip; the event
        stream is never read (use :meth:`tail` for that).
        """
        query = urllib.parse.urlencode({"wait": poll})
        while True:
            meta = self._json(
                "GET", f"/jobs/{job_id}?{query}",
                read_timeout=self.timeout + poll,
            )
            if meta["status"] in TERMINAL_STATES:
                return meta

    # -- transport -----------------------------------------------------------

    def _json(
        self,
        method: str,
        path: str,
        *,
        body: "dict | None" = None,
        read_timeout: "float | None" = None,
    ):
        _status, _headers, raw = self._request(
            method, path, body=body, read_timeout=read_timeout
        )
        return json.loads(raw)

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: "dict | None" = None,
        read_timeout: "float | None" = None,
    ) -> tuple[int, dict, bytes]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Only idempotent reads get the transient-retry budget: a
        # retried GET re-reads; a retried POST would re-*do*.
        attempts = 1 + (self.retries if method == "GET" else 0)
        delay = self.retry_backoff_s
        last_error: "Exception | None" = None
        for attempt in range(attempts):
            request = urllib.request.Request(
                self.url + path, data=data, headers=headers, method=method
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=read_timeout or self.timeout
                ) as response:
                    return (
                        response.status,
                        dict(response.headers),
                        response.read(),
                    )
            except urllib.error.HTTPError as error:
                # The server *answered* — not a transport failure, no
                # retry. Translate to ServiceError.
                raw = error.read()
                try:
                    message = json.loads(raw).get("error", "")
                except (ValueError, AttributeError):
                    message = raw.decode("utf-8", "replace").strip()
                raise ServiceError(
                    error.code,
                    message or error.reason,
                    retry_after_s=_retry_after(error.headers),
                )
            except (urllib.error.URLError, ConnectionError, TimeoutError) as error:
                last_error = error
                if attempt + 1 < attempts:
                    time.sleep(min(delay, _MAX_BACKOFF_S))
                    delay *= 2
        assert last_error is not None
        if method != "GET" or self.retries == 0:
            # POSTs and retries=0 clients keep raw fail-fast transport
            # errors; only a GET that actually burned a retry budget
            # is summarized as ServiceUnavailableError.
            raise last_error
        raise ServiceUnavailableError(self.url, attempts, last_error)


def _retry_after(headers: object) -> "float | None":
    """The ``Retry-After`` header as seconds, if present and sane
    (only the delta-seconds form; this server never sends dates)."""
    try:
        value = headers.get("Retry-After")  # type: ignore[union-attr]
    except AttributeError:
        return None
    if value is None:
        return None
    try:
        return max(float(value), 0.0)
    except ValueError:
        return None
