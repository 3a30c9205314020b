"""Persistent run-cache storage: the engine's LRU as a service.

The in-memory LRU of :class:`~repro.core.engine.ProbeEngine` amortizes
run cost *within* one analysis; this package extends that amortization
*across* campaigns, processes, and — with the SQLite backend —
concurrent writers. It grew out of a single-file JSONL store into a
small subsystem:

* :mod:`~repro.core.cachestore.base` — the :class:`RunCacheBackend`
  protocol, the shared record codec, :class:`StoreStats` and
  :class:`CompactionResult`;
* :mod:`~repro.core.cachestore.jsonl` — the original append-only
  JSONL store, byte-compatible, now with ``compact()``;
* :mod:`~repro.core.cachestore.sqlite` — a WAL-mode SQLite store:
  multi-process safe, live read-through, upsert puts, LRU eviction
  via ``last_used``/``use_count`` under ``max_entries``;
* :mod:`~repro.core.cachestore.factory` — :func:`open_store` (scheme
  and extension aware) and :func:`migrate_store` (jsonl → sqlite
  upgrade path);
* :mod:`~repro.core.cachestore.verify` — :func:`verify_store`
  re-executes (a seeded sample of) the records and diffs stored vs
  fresh results, auditing the determinism contract the whole cache
  rests on (``loupe cache verify``).

Correctness inherits the engine's caching contract: only runs of
backends declaring ``deterministic = True`` are ever stored or served,
so a persisted answer is byte-identical to re-executing the run. The
key's ``backend`` component is :func:`~repro.core.runner.backend_name`,
which for the simulation backends embeds the application name *and
version* (``sim:redis-7.0.11``) — two campaigns only share entries
when they analyze the very same build.
"""

from repro.core.cachestore.base import (
    CacheStoreError,
    CompactionResult,
    RunCacheBackend,
    StoreKey,
    StoreStats,
    decode_record,
    decode_record_full,
    decode_record_meta,
    encode_record,
)
from repro.core.cachestore.verify import (
    VerifyMismatch,
    VerifyReport,
    default_resolver,
    verify_store,
)
from repro.core.cachestore.factory import (
    SQLITE_SUFFIXES,
    check_store,
    migrate_store,
    open_store,
    parse_store_path,
    store_identity,
)
from repro.core.cachestore.jsonl import JsonlRunCache
from repro.core.cachestore.sqlite import SqliteRunCache

__all__ = [
    "CacheStoreError",
    "CompactionResult",
    "JsonlRunCache",
    "RunCacheBackend",
    "SQLITE_SUFFIXES",
    "SqliteRunCache",
    "StoreKey",
    "StoreStats",
    "check_store",
    "decode_record",
    "decode_record_full",
    "decode_record_meta",
    "default_resolver",
    "encode_record",
    "migrate_store",
    "open_store",
    "parse_store_path",
    "store_identity",
    "verify_store",
    "VerifyMismatch",
    "VerifyReport",
]
