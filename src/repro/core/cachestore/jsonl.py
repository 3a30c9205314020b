"""The append-only JSONL run-cache backend.

This is the original run-cache store (once ``RunCacheStore``),
byte-compatible with every file it ever wrote: one JSON object per
line, appended and flushed per record, duplicate keys resolving
last-writer-wins at load. What the format buys — human-greppable
files, torn-line crash tolerance for free, O_APPEND interleaving —
it pays for in growth: superseded records are never reclaimed until
:meth:`JsonlRunCache.compact` rewrites the file.

Concurrency limitation (by design of the format): :meth:`put`'s
already-durable check consults only *this process's* in-memory index.
Two campaigns appending to one JSONL file therefore re-append records
the other writer already persisted — harmless for correctness (loads
still resolve last-writer-wins; the values are identical for a
deterministic backend) but the file grows with every writer. Use the
SQLite backend (:mod:`repro.core.cachestore.sqlite`), whose upsert is
shared-state, when campaigns share one cache concurrently; use
``compact()`` to reclaim an already-bloated JSONL file.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.core.cachestore.base import (
    CacheStoreError,
    CompactionResult,
    StoreKey,
    StoreStats,
    decode_record_meta,
    encode_record,
)
from repro.core.runner import RunResult


class JsonlRunCache:
    """An on-disk run-result cache shared by campaigns over time.

    Parameters
    ----------
    path:
        The JSONL file backing the store. Created (along with parent
        directories) on first write; an existing file is loaded
        eagerly so ``get`` never touches the disk afterwards.
    ttl_s:
        Optional record age cap: a ``get`` of a record written more
        than this many seconds ago reads as a miss (the line stays on
        disk until ``gc(ttl_s=...)`` sweeps it). Records of writers
        that stored no timestamp never expire — their age is
        unknowable, and serving a stale hit beats discarding a
        possibly-fresh one for a *deterministic* backend's runs.

    The store is thread-safe: one campaign's app-level workers
    (``analyze_many(jobs=N)``) share a single instance freely. All
    reads are served from the in-memory index; ``put`` appends one
    line and flushes, so a crash loses at most the record being
    written. Records another *process* appends after this store
    loaded are invisible until reopen — see the module docstring for
    the multi-writer story.
    """

    kind = "jsonl"

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        ttl_s: "float | None" = None,
    ) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.path = Path(path)
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        self._index: dict[StoreKey, RunResult] = {}
        self._policies: "dict[StoreKey, dict | None]" = {}
        self._created: "dict[StoreKey, float | None]" = {}
        self._handle = None
        #: The file ends in a torn fragment with no newline; the first
        #: append ends it first, so the fragment stays one skipped line.
        self._torn_tail = False
        self._loaded_records = 0
        self._stale_records = 0
        self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                self._torn_tail = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    key, result, policy, created = decode_record_meta(line)
                except (ValueError, KeyError, TypeError):
                    # A torn or foreign line (campaign killed mid-append);
                    # every complete record is still usable.
                    continue
                if key in self._index:
                    self._stale_records += 1
                else:
                    self._loaded_records += 1
                self._index[key] = result
                self._policies[key] = policy
                self._created[key] = created

    # -- the store API -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def loaded_records(self) -> int:
        """Unique complete records found on disk when the store was
        opened (agrees with ``len(store)`` until the first new put)."""
        return self._loaded_records

    @property
    def stale_records(self) -> int:
        """Superseded records currently wasting file space: duplicate
        keys found at load plus overwrites appended since. Reclaimed
        by :meth:`compact`."""
        with self._lock:
            return self._stale_records

    def _expired_locked(
        self, key: StoreKey, ttl_s: "float | None", now: float
    ) -> bool:
        if ttl_s is None:
            return False
        created = self._created.get(key)
        return created is not None and now - created > ttl_s

    def get(self, key: StoreKey) -> "RunResult | None":
        with self._lock:
            if self._expired_locked(key, self.ttl_s, time.time()):
                return None
            return self._index.get(key)

    def put(
        self,
        key: StoreKey,
        result: RunResult,
        *,
        policy: "dict | None" = None,
    ) -> None:
        """Record one run; a duplicate key overwrites (last-writer-wins).

        The already-durable short-circuit consults only this process's
        index — concurrent writers sharing the file may still append
        duplicates (see the module docstring). A put that brings a
        policy document to a record that lacked one is *not*
        short-circuited: upgrading old records to re-executable ones
        is worth one appended line.
        """
        now = time.time()
        with self._lock:
            if (
                self._index.get(key) == result
                and (policy is None or self._policies.get(key) == policy)
                and not self._expired_locked(key, self.ttl_s, now)
            ):
                # Already durable and still fresh; don't grow the file.
                # (An *expired* identical record is re-appended: the
                # rewrite is what renews its timestamp, else a TTL'd
                # key could never revive.)
                return
            if policy is None:
                # A policy-less overwrite keeps any document an earlier
                # writer stored — last-writer-wins must not *lose* it.
                policy = self._policies.get(key)
            line = encode_record(key, result, policy, created=now)
            if key in self._index:
                # The old line stays on disk, superseded, until compact().
                self._stale_records += 1
            self._index[key] = result
            self._policies[key] = policy
            self._created[key] = now
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            if self._torn_tail:
                line = "\n" + line
                self._torn_tail = False
            self._handle.write(line + "\n")
            self._handle.flush()

    def items(self) -> list[tuple[StoreKey, RunResult]]:
        with self._lock:
            return list(self._index.items())

    def records(self) -> "list[tuple[StoreKey, RunResult, dict | None]]":
        with self._lock:
            return [
                (key, result, self._policies.get(key))
                for key, result in self._index.items()
            ]

    # -- ops ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        with self._lock:
            entries = len(self._index)
            stale = self._stale_records
        try:
            file_bytes = self.path.stat().st_size
        except OSError:
            file_bytes = 0
        return StoreStats(
            kind=self.kind,
            path=str(self.path),
            entries=entries,
            loaded_records=self._loaded_records,
            stale_records=stale,
            file_bytes=file_bytes,
            ttl_s=self.ttl_s,
            expired=self.expired() if self.ttl_s is not None else 0,
        )

    def expired(self, ttl_s: "float | None" = None) -> int:
        """Live records older than *ttl_s* (or the configured TTL)."""
        ttl = ttl_s if ttl_s is not None else self.ttl_s
        if ttl is None:
            raise CacheStoreError(
                "expired() needs a TTL: pass ttl_s or open the store "
                "with one"
            )
        if ttl <= 0:
            raise ValueError("ttl_s must be positive")
        now = time.time()
        with self._lock:
            return sum(
                1 for key in self._index
                if self._expired_locked(key, ttl, now)
            )

    def compact(self) -> CompactionResult:
        """Rewrite the file with only the live records.

        Superseded duplicates — overwrites from this or any earlier
        campaign — are dropped; every live key keeps its
        last-written value. The rewrite goes through a temporary
        file and an atomic rename, so a crash mid-compaction leaves
        the original intact. Offline operation: a concurrent writer
        holding an append handle to the old file would strand its
        appends on the replaced inode.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            try:
                bytes_before = self.path.stat().st_size
            except OSError:
                bytes_before = 0
            dropped = self._stale_records
            if bytes_before == 0 and not self._index:
                return CompactionResult(0, 0, 0, 0)
            temp = self.path.with_name(self.path.name + ".compact.tmp")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with temp.open("w", encoding="utf-8") as handle:
                for key, result in self._index.items():
                    handle.write(
                        encode_record(
                            key, result, self._policies.get(key),
                            created=self._created.get(key),
                        )
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, self.path)
            self._torn_tail = False
            self._stale_records = 0
            bytes_after = self.path.stat().st_size
            return CompactionResult(
                bytes_before=bytes_before,
                bytes_after=bytes_after,
                records_dropped=dropped,
                records_kept=len(self._index),
            )

    def gc(
        self,
        max_entries: "int | None" = None,
        *,
        ttl_s: "float | None" = None,
    ) -> int:
        """Sweep records older than *ttl_s* (or the configured TTL).

        A TTL sweep is the one eviction dimension this backend can
        honor: expiry needs only the stored timestamps, not usage
        tracking. Swept keys are dropped from the index and the file
        is rewritten atomically (compact-style), reclaiming their
        stale lines in the same pass. *max_entries* is still refused —
        LRU eviction needs the usage data only SQLite keeps.
        """
        if max_entries is not None:
            raise CacheStoreError(
                "the jsonl backend tracks no usage and cannot evict "
                "by entry count; migrate to sqlite for LRU eviction "
                "(loupe cache migrate <src.jsonl> <dst.sqlite>)"
            )
        ttl = ttl_s if ttl_s is not None else self.ttl_s
        if ttl is None:
            raise CacheStoreError(
                "gc needs a TTL on the jsonl backend: pass ttl_s or "
                "open the store with one"
            )
        if ttl <= 0:
            raise ValueError("ttl_s must be positive")
        now = time.time()
        with self._lock:
            doomed = [
                key for key in self._index
                if self._expired_locked(key, ttl, now)
            ]
            for key in doomed:
                del self._index[key]
                self._policies.pop(key, None)
                self._created.pop(key, None)
        if doomed:
            # Rewrite the file so the swept lines are gone on disk
            # too, not just invisible in this process's index.
            self.compact()
        return len(doomed)

    def close(self) -> None:
        """Flush and release the file handle (idempotent; the store
        stays readable and reopens the file on the next ``put``)."""
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "JsonlRunCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
