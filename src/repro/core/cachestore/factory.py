"""Choosing and migrating run-cache backends by path.

:func:`open_store` is the single way the rest of the system — the
analyzer (``AnalyzerConfig.run_cache``), the session
(``LoupeSession(cache_path=...)``), and the CLI (``--run-cache``,
``loupe cache``) — turns a user-supplied path into a concrete store.
The choice is scheme- and extension-aware:

=====================================  =========
path                                   backend
=====================================  =========
``sqlite:anything``                    sqlite
``jsonl:anything``                     jsonl
``*.sqlite`` / ``*.sqlite3`` / ``*.db``  sqlite
existing file with the SQLite magic    sqlite
anything else                          jsonl
=====================================  =========

:func:`migrate_store` copies every live record between backends —
the upgrade path from an organically-grown JSONL file to a bounded
concurrent SQLite cache, preserving every key so a warmed campaign
stays warm across the migration.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.cachestore.base import CacheStoreError, RunCacheBackend
from repro.core.cachestore.jsonl import JsonlRunCache
from repro.core.cachestore.sqlite import SqliteRunCache

#: File extensions that select the SQLite backend without a scheme.
SQLITE_SUFFIXES = frozenset({".sqlite", ".sqlite3", ".db"})

#: The first 16 bytes of every SQLite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def parse_store_path(
    path: "str | os.PathLike[str]",
) -> tuple[str, Path]:
    """Resolve *path* to ``(backend kind, concrete file path)``.

    An explicit ``sqlite:``/``jsonl:`` scheme always wins; otherwise
    the extension decides, with a magic-bytes sniff rescuing existing
    SQLite files behind unconventional names (say, a migrated cache
    kept under its old name). A URL is refused: read as a path it
    would silently create a local file named after the host.
    """
    text = os.fspath(path)
    if text.startswith(("http://", "https://")):
        raise CacheStoreError(
            f"{text!r}: the served HTTP run cache was removed; a run "
            f"cache is a local .jsonl or .sqlite path"
        )
    if text.startswith("sqlite:"):
        return "sqlite", Path(text[len("sqlite:"):])
    if text.startswith("jsonl:"):
        return "jsonl", Path(text[len("jsonl:"):])
    concrete = Path(text)
    if concrete.suffix.lower() in SQLITE_SUFFIXES:
        return "sqlite", concrete
    try:
        with concrete.open("rb") as handle:
            if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                return "sqlite", concrete
    except OSError:
        pass
    return "jsonl", concrete


def check_store(
    path: "str | os.PathLike[str]",
    *,
    max_entries: "int | None" = None,
) -> tuple[str, Path]:
    """:func:`parse_store_path`, refusing what no store can open.

    The one rule for a run-cache request: a URL is refused (see
    :func:`parse_store_path`), and so is *max_entries* on a path that
    opens as jsonl — that backend tracks no usage, so the cap would
    silently not hold. :func:`open_store` checks through here, and so
    does the campaign service at submit time, before any job exists.
    """
    kind, concrete = parse_store_path(path)
    if kind != "sqlite" and max_entries is not None:
        raise CacheStoreError(
            f"run_cache_max_entries requires the sqlite backend; "
            f"{os.fspath(path)!r} opens as jsonl (name it *.sqlite or "
            f"prefix it with sqlite:)"
        )
    return kind, concrete


def store_identity(path: "str | os.PathLike[str]") -> tuple[str, str]:
    """A canonical ``(kind, absolute path)`` identity for *path*.

    Two spellings of one file — relative vs absolute, with or without
    a scheme prefix — share an identity, so store-sharing caches
    (the session's) never open two handles on one file.
    """
    kind, concrete = parse_store_path(path)
    return kind, str(concrete.expanduser().resolve())


def open_store(
    path: "str | os.PathLike[str]",
    *,
    max_entries: "int | None" = None,
    ttl_s: "float | None" = None,
) -> RunCacheBackend:
    """Open the run-cache store *path* names (see the module table).

    *max_entries* bounds the SQLite backend with LRU eviction (on a
    jsonl path it is refused, see :func:`check_store`). *ttl_s* makes
    records of either backend read as misses once older than that
    many seconds.
    """
    kind, concrete = check_store(path, max_entries=max_entries)
    if kind == "sqlite":
        return SqliteRunCache(concrete, max_entries=max_entries, ttl_s=ttl_s)
    return JsonlRunCache(concrete, ttl_s=ttl_s)


def migrate_store(
    source: "str | os.PathLike[str]",
    destination: "str | os.PathLike[str]",
    *,
    max_entries: "int | None" = None,
) -> int:
    """Copy every live record from *source* into *destination*.

    Returns the number of records migrated. Superseded JSONL
    duplicates never survive (only the live, last-written value of
    each key is copied), so migrating doubles as a compaction.
    Existing destination records are overwritten key-by-key; the
    source is left untouched.
    """
    # Compare the resolved *files*, not (kind, path) identities: a
    # scheme prefix forcing the other backend onto the same physical
    # file would otherwise slip past and corrupt it mid-copy.
    if store_identity(source)[1] == store_identity(destination)[1]:
        raise CacheStoreError(
            "source and destination name the same file; nothing to "
            "migrate"
        )
    with open_store(source) as src:
        with open_store(destination, max_entries=max_entries) as dst:
            records = src.items()
            for key, result in records:
                dst.put(key, result)
    return len(records)
