"""The campaign server's shared run-cache surface.

A worker fleet wants one persistent run cache, not N private ones —
that is what makes a *warm* distributed campaign cheap. The server
owns the store (the same ``--run-cache`` file its own jobs inherit)
and exposes it over HTTP (``GET/PUT /cache/<key>``, ``POST
/cache/lookup``); :class:`CacheService` is the in-process half of
that surface: serialized store access plus **cross-process
single-flight**, the one claim protocol in the system.

The claim protocol over HTTP: a client that misses may ask for the
key's *claim* (``?claim=1``). The first claimant is told "miss, the
claim is yours — go execute"; later claimants block (bounded by
``wait_s`` and the claim's lease) until the holder publishes via
``PUT``, then read the fresh hit. A holder that dies simply lets its
lease run out, after which the next claimant inherits. Each missed
key therefore executes once per claim window across the whole fleet,
not once per worker.

:class:`FleetTracker` is the observability side: workers announce
themselves with periodic ``POST /fleet/heartbeat`` documents, each
carrying its own TTL; the tracker ages them out so ``GET /stats``
reports live gauges (connected workers, chunks in flight) without a
deregistration protocol — a SIGKILL'd worker just stops heartbeating.
"""

from __future__ import annotations

import threading
import time

from repro.core.cachestore.base import StoreKey
from repro.core.runner import RunResult

#: Default claim lease: how long the fleet waits on a claim-holder
#: before presuming it dead and handing the claim to the next waiter.
DEFAULT_LEASE_S = 30.0

#: Cap on any single fetch wait; clients re-poll past this. Keeps a
#: handler thread from being parked indefinitely by one slow holder.
MAX_WAIT_S = 30.0


class CacheService:
    """Serialized, claim-coordinated access to the server's run store.

    Handlers call :meth:`fetch` / :meth:`publish` / :meth:`lookup`;
    everything is internally locked because the HTTP server is
    threading. Counters (``hits``, ``misses``, ``coalesced``,
    ``claims_granted``) feed the ``cache`` block of ``GET /stats``.
    """

    def __init__(self, store, *, lease_s: float = DEFAULT_LEASE_S) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.store = store
        self.lease_s = lease_s
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: key -> monotonic deadline of the outstanding claim.
        self._claims: "dict[StoreKey, float]" = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.claims_granted = 0

    # -- the claim-coordinated read ------------------------------------------

    def fetch(
        self,
        key: StoreKey,
        *,
        claim: bool = False,
        wait_s: float = 0.0,
    ) -> "tuple[RunResult | None, bool]":
        """Read one key, optionally taking part in the claim protocol.

        Returns ``(result, claimed)``. ``result`` is the hit or
        ``None``; ``claimed`` is True when this caller was granted the
        key's claim and is expected to execute the run and ``publish``.
        With ``claim=False`` this is a plain read (claims ignored).
        """
        wait_s = min(max(wait_s, 0.0), MAX_WAIT_S)
        waited = False
        with self._cond:
            while True:
                result = self.store.get(key)
                if result is not None:
                    self.hits += 1
                    if waited:
                        self.coalesced += 1
                    return result, False
                if not claim:
                    self.misses += 1
                    return None, False
                now = time.monotonic()
                deadline = self._claims.get(key)
                if deadline is None or now >= deadline:
                    # Ours — an expired claim transfers to us; its
                    # holder is presumed dead.
                    self._claims[key] = now + self.lease_s
                    self.misses += 1
                    self.claims_granted += 1
                    return None, True
                remaining = min(deadline, now + wait_s) - now
                if remaining <= 0:
                    # The caller's wait budget is spent; report a plain
                    # miss *without* the claim so it can re-poll (or
                    # just execute redundantly — correctness is safe,
                    # only the de-dup is lost).
                    self.misses += 1
                    return None, False
                self._cond.wait(min(remaining, 0.5))
                waited = True

    def publish(
        self,
        key: StoreKey,
        result: RunResult,
        *,
        policy: "dict | None" = None,
    ) -> None:
        """Store one run and release its claim, waking the waiters."""
        with self._cond:
            self.store.put(key, result, policy=policy)
            self._claims.pop(key, None)
            self._cond.notify_all()

    def lookup(self, keys: "list[StoreKey]") -> "dict[StoreKey, RunResult]":
        """Batched plain read (no claims): the warm-path prefetch."""
        found: "dict[StoreKey, RunResult]" = {}
        with self._cond:
            for key in keys:
                result = self.store.get(key)
                if result is not None:
                    self.hits += 1
                    found[key] = result
                else:
                    self.misses += 1
        return found

    # -- observability -------------------------------------------------------

    def counters(self) -> dict:
        with self._lock:
            now = time.monotonic()
            return {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "claims_granted": self.claims_granted,
                "claims_open": sum(
                    1 for deadline in self._claims.values() if deadline > now
                ),
            }

    def store_stats(self) -> dict:
        with self._lock:
            return self.store.stats().to_dict()

    def close(self) -> None:
        with self._cond:
            self._claims.clear()
            self._cond.notify_all()
            self.store.close()


class FleetTracker:
    """Live worker gauges, fed by ``POST /fleet/heartbeat``.

    Each heartbeat document carries ``worker_id``, the worker's
    current ``chunks_in_flight``, and a ``ttl_s`` after which this
    entry goes stale (workers send ``heartbeat_s * 5``). Stale entries
    are pruned lazily on read — a killed worker disappears from the
    gauges within one TTL without any deregistration traffic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: worker_id -> (monotonic deadline, chunks_in_flight, doc)
        self._workers: "dict[str, tuple[float, int, dict]]" = {}

    def heartbeat(self, document: object) -> dict:
        if not isinstance(document, dict):
            raise ValueError("heartbeat must be a JSON object")
        worker_id = document.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise ValueError("heartbeat needs a non-empty worker_id")
        try:
            ttl_s = float(document.get("ttl_s", 10.0))
            chunks = int(document.get("chunks_in_flight", 0))
        except (TypeError, ValueError):
            raise ValueError("heartbeat ttl_s/chunks_in_flight must be numbers")
        if ttl_s <= 0:
            raise ValueError("heartbeat ttl_s must be positive")
        with self._lock:
            self._workers[worker_id] = (
                time.monotonic() + ttl_s,
                max(chunks, 0),
                dict(document),
            )
        return {"ok": True, "worker_id": worker_id}

    def _prune_locked(self, now: float) -> None:
        stale = [
            worker_id
            for worker_id, (deadline, _chunks, _doc) in self._workers.items()
            if now >= deadline
        ]
        for worker_id in stale:
            del self._workers[worker_id]

    def gauges(self) -> dict:
        with self._lock:
            self._prune_locked(time.monotonic())
            return {
                "workers": len(self._workers),
                "chunks_in_flight": sum(
                    chunks for _deadline, chunks, _doc in self._workers.values()
                ),
            }
