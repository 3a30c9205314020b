"""Tests for the run-cache storage subsystem (`repro.core.cachestore`).

Covers the `open_store` factory (scheme/extension/magic dispatch), the
JSONL backend's loaded/stale accounting and `compact()` rewrite, the
SQLite backend (upsert puts, LRU eviction, live cross-process
read-through, crash tolerance mid-transaction), jsonl→sqlite
migration preserving warm campaigns, TTL expiry on both backends and
its `loupe cache` flags, the session's store-identity normalization,
and the session-emitted `store_stats` event.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.api.events import StoreStatsEvent
from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.corpus import build
from repro.cli import main
from repro.core.analyzer import AnalyzerConfig
from repro.core.cachestore import (
    CacheStoreError,
    JsonlRunCache,
    SqliteRunCache,
    migrate_store,
    open_store,
    parse_store_path,
    store_identity,
)
from repro.core.runner import ResourceUsage, RunResult


def _result(metric=100.0, success=True):
    return RunResult(
        success=success,
        traced=Counter({"read": 3, "close": 1}),
        pseudo_files=Counter({"/proc/self/maps": 1}),
        metric=metric,
        resources=ResourceUsage(fd_peak=12, mem_peak_kb=2048),
        exit_code=0 if success else 1,
        failure_reason=None if success else "boom",
    )


def _key(replica=0, fingerprint="stub:close"):
    return ("sim:app-1.0", "bench", fingerprint, replica)


def _subprocess(code: str, *argv: str) -> None:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestOpenStoreFactory:
    def test_scheme_always_wins(self, tmp_path):
        kind, path = parse_store_path(f"sqlite:{tmp_path / 'runs.jsonl'}")
        assert kind == "sqlite" and path.name == "runs.jsonl"
        kind, path = parse_store_path(f"jsonl:{tmp_path / 'runs.db'}")
        assert kind == "jsonl" and path.name == "runs.db"

    @pytest.mark.parametrize("name,expected", [
        ("runs.sqlite", SqliteRunCache),
        ("runs.sqlite3", SqliteRunCache),
        ("runs.db", SqliteRunCache),
        ("runs.jsonl", JsonlRunCache),
        ("runs.cache", JsonlRunCache),
    ])
    def test_extension_dispatch(self, tmp_path, name, expected):
        with open_store(tmp_path / name) as store:
            assert isinstance(store, expected)

    def test_magic_sniff_rescues_renamed_sqlite(self, tmp_path):
        original = tmp_path / "runs.sqlite"
        with open_store(original) as store:
            store.put(_key(), _result())
        renamed = tmp_path / "runs.cache"  # non-sqlite extension
        original.rename(renamed)
        with open_store(renamed) as reopened:
            assert isinstance(reopened, SqliteRunCache)
            assert reopened.get(_key()) == _result()

    def test_max_entries_refused_on_jsonl(self, tmp_path):
        with pytest.raises(CacheStoreError, match="sqlite"):
            open_store(tmp_path / "runs.jsonl", max_entries=10)

    def test_mis_extensioned_jsonl_raises_cachestore_error(self, tmp_path):
        path = tmp_path / "runs.db"  # sqlite extension, jsonl content
        with JsonlRunCache(path) as store:
            store.put(_key(), _result())
        with pytest.raises(CacheStoreError, match="not a SQLite"):
            open_store(path)

    def test_url_refused_and_creates_no_file(self, tmp_path, monkeypatch):
        # Read as a relative path, the URL would name a JSONL file
        # under ./http:/ and be created silently.
        monkeypatch.chdir(tmp_path)
        for url in ("http://127.0.0.1:1/", "https://host:9100"):
            with pytest.raises(CacheStoreError, match="served HTTP run "
                               "cache was removed"):
                open_store(url)
            with pytest.raises(CacheStoreError):
                store_identity(url)
        assert list(tmp_path.iterdir()) == []

    def test_store_identity_normalizes_spellings(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "runs.jsonl")
        assert store_identity("runs.jsonl") == store_identity(absolute)
        assert store_identity("./runs.jsonl") == store_identity(absolute)
        assert store_identity(f"jsonl:{absolute}") == \
            store_identity("runs.jsonl")
        # Different backends over one path are different stores.
        assert store_identity(f"sqlite:{absolute}") != \
            store_identity(absolute)


class TestJsonlAccounting:
    def test_loaded_vs_stale_split(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with JsonlRunCache(path) as store:
            store.put(_key(0), _result(1.0))
            store.put(_key(1), _result(2.0))
            store.put(_key(0), _result(3.0))  # supersedes in place
            assert store.stale_records == 1
        reopened = JsonlRunCache(path)
        # 3 lines on disk: 2 unique keys, 1 superseded duplicate.
        assert reopened.loaded_records == 2
        assert reopened.stale_records == 1
        assert len(reopened) == reopened.loaded_records == 2
        assert reopened.get(_key(0)).metric == 3.0

    def test_compact_drops_stale_keeps_live(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = JsonlRunCache(path)
        live = {}
        for replica in range(4):
            for version in range(5):
                live[_key(replica)] = _result(float(version))
                store.put(_key(replica), _result(float(version)))
        bytes_before = path.stat().st_size
        outcome = store.compact()
        assert outcome.bytes_before == bytes_before
        assert outcome.bytes_after < bytes_before
        assert outcome.records_dropped == 4 * 4
        assert outcome.records_kept == 4
        assert outcome.ratio > 2.0
        assert store.stale_records == 0
        reopened = JsonlRunCache(path)
        assert reopened.stale_records == 0
        assert len(reopened) == 4
        for key, result in live.items():
            assert reopened.get(key) == result

    def test_compact_then_put_reopens_handle(self, tmp_path):
        store = JsonlRunCache(tmp_path / "runs.jsonl")
        store.put(_key(0), _result())
        store.compact()
        store.put(_key(1), _result())
        assert len(JsonlRunCache(store.path)) == 2

    def test_compact_empty_store_is_noop(self, tmp_path):
        outcome = JsonlRunCache(tmp_path / "runs.jsonl").compact()
        assert outcome.bytes_before == outcome.bytes_after == 0
        assert not (tmp_path / "runs.jsonl").exists()

    def test_gc_unsupported(self, tmp_path):
        with pytest.raises(CacheStoreError, match="migrate"):
            JsonlRunCache(tmp_path / "runs.jsonl").gc(10)

    def test_two_writers_append_duplicates_resolved_at_load(self, tmp_path):
        # The documented JSONL limitation: two store instances (two
        # campaigns) sharing one file cannot see each other's puts, so
        # the second append duplicates the first writer's record.
        path = tmp_path / "runs.jsonl"
        a, b = JsonlRunCache(path), JsonlRunCache(path)
        a.put(_key(), _result(1.0))
        b.put(_key(), _result(1.0))  # b's index is blind to a's write
        a.close(), b.close()
        reopened = JsonlRunCache(path)
        assert reopened.loaded_records == 1
        assert reopened.stale_records == 1  # the re-appended duplicate
        assert reopened.get(_key()) == _result(1.0)


class TestJsonlTornTail:
    """A file killed mid-append ends in a fragment with no newline."""

    def _torn_file(self, path):
        with JsonlRunCache(path) as store:
            store.put(_key(0), _result(1.0))
            store.put(_key(1), _result(2.0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])  # cut record 2 mid-line
        return path

    def test_record_appended_after_torn_tail_survives_reopen(self, tmp_path):
        path = self._torn_file(tmp_path / "runs.jsonl")
        with JsonlRunCache(path) as store:
            assert store.loaded_records == 1
            store.put(_key(2), _result(3.0))
        reopened = JsonlRunCache(path)
        assert reopened.loaded_records == 2
        assert reopened.get(_key(0)) == _result(1.0)
        assert reopened.get(_key(1)) is None  # the torn record stays lost
        assert reopened.get(_key(2)) == _result(3.0)

    def test_torn_fragment_stays_one_skipped_line(self, tmp_path):
        path = self._torn_file(tmp_path / "runs.jsonl")
        fragment = path.read_bytes().split(b"\n")[-1]
        with JsonlRunCache(path) as store:
            store.put(_key(2), _result(3.0))
        lines = path.read_bytes().split(b"\n")
        assert lines[1] == fragment
        assert len(lines) == 4 and lines[-1] == b""

    def test_clean_file_gets_no_extra_newline(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with JsonlRunCache(path) as store:
            store.put(_key(0), _result(1.0))
        before = path.read_bytes()
        with JsonlRunCache(path) as store:
            store.put(_key(1), _result(2.0))
        after = path.read_bytes()
        assert after.startswith(before)
        assert b"\n\n" not in after
        assert after.count(b"\n") == 2


class TestSqliteStore:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with SqliteRunCache(path) as store:
            assert store.get(_key()) is None
            store.put(_key(), _result())
            assert store.get(_key()) == _result()
        reopened = SqliteRunCache(path)
        assert reopened.get(_key()) == _result()
        assert len(reopened) == reopened.loaded_records == 1
        assert reopened.stale_records == 0

    def test_close_idempotent_and_reconnects(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        store.put(_key(0), _result())
        store.close()
        store.close()
        store.put(_key(1), _result())  # reconnects transparently
        assert len(store) == 2

    def test_upsert_fixes_two_writer_duplicates(self, tmp_path):
        # The regression the JSONL backend documents: two writer
        # instances sharing one file. SQLite's upsert is shared
        # state, so the store never grows with re-put records.
        path = tmp_path / "runs.sqlite"
        a, b = SqliteRunCache(path), SqliteRunCache(path)
        a.put(_key(), _result(1.0))
        b.put(_key(), _result(1.0))   # no duplicate row
        b.put(_key(), _result(2.0))   # last writer wins, in place
        assert len(a) == len(b) == 1
        assert a.get(_key()).metric == 2.0  # a sees b's write live
        a.close(), b.close()

    def test_lru_eviction_under_max_entries(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite", max_entries=2)
        store.put(_key(0), _result(0.0))
        store.put(_key(1), _result(1.0))
        assert store.get(_key(0)) is not None  # refresh replica 0
        store.put(_key(2), _result(2.0))      # evicts replica 1 (LRU)
        assert len(store) == 2
        assert store.get(_key(1)) is None
        assert store.get(_key(0)) is not None
        assert store.get(_key(2)) is not None
        assert store.stats().evictions == 1

    def test_gc_explicit_cap(self, tmp_path):
        store = SqliteRunCache(tmp_path / "runs.sqlite")
        for replica in range(5):
            store.put(_key(replica), _result(float(replica)))
        assert store.gc(2) == 3
        assert len(store) == 2
        with pytest.raises(ValueError, match="cap"):
            store.gc()  # no configured cap, none passed

    def test_live_read_through_across_processes(self, tmp_path):
        """Two concurrent processes sharing one SQLite cache observe
        each other's records without reopening the store."""
        path = tmp_path / "shared.sqlite"
        store = SqliteRunCache(path)  # opened before the writer runs
        assert store.get(_key()) is None
        _subprocess(
            "import sys\n"
            "from collections import Counter\n"
            "from repro.core.cachestore import SqliteRunCache\n"
            "from repro.core.runner import RunResult\n"
            "store = SqliteRunCache(sys.argv[1])\n"
            "store.put(('sim:app-1.0', 'bench', 'stub:close', 0),\n"
            "          RunResult(success=True, traced=Counter({'read': 3,"
            " 'close': 1}), pseudo_files=Counter({'/proc/self/maps': 1}),"
            " metric=100.0))\n"
            "store.close()\n",
            str(path),
        )
        # No reopen: the same store instance sees the other process's
        # committed write on its next read.
        hit = store.get(_key())
        assert hit is not None and hit.metric == 100.0
        store.close()

    def test_crash_mid_transaction_loads_cleanly(self, tmp_path):
        """A SQLite file killed mid-transaction rolls back on the next
        open: every committed record is served, the torn one is gone."""
        path = tmp_path / "killed.sqlite"
        _subprocess(
            "import os, sqlite3, sys\n"
            "from collections import Counter\n"
            "from repro.core.cachestore import SqliteRunCache\n"
            "from repro.core.runner import RunResult\n"
            "store = SqliteRunCache(sys.argv[1])\n"
            "store.put(('sim:app-1.0', 'bench', 'stub:close', 0),\n"
            "          RunResult(success=True, traced=Counter({'read': 3,"
            " 'close': 1}), pseudo_files=Counter({'/proc/self/maps': 1}),"
            " metric=100.0))\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "conn.execute(\"INSERT INTO runs VALUES"
            " ('sim:app-1.0', 'bench', 'stub:close', 1, 'torn', 0, 0, 0)\")\n"
            "os._exit(0)\n",  # hard kill: no commit, no close
            str(path),
        )
        survivor = SqliteRunCache(path)
        assert len(survivor) == 1
        assert survivor.get(_key(0)) is not None
        assert survivor.get(_key(1)) is None  # uncommitted: rolled back


class TestMigration:
    def test_migrate_copies_live_records_only(self, tmp_path):
        src = JsonlRunCache(tmp_path / "runs.jsonl")
        src.put(_key(0), _result(1.0))
        src.put(_key(0), _result(2.0))  # superseded: must not survive
        src.put(_key(1), _result(3.0))
        src.close()
        migrated = migrate_store(
            tmp_path / "runs.jsonl", tmp_path / "runs.sqlite",
        )
        assert migrated == 2
        with open_store(tmp_path / "runs.sqlite") as dst:
            assert len(dst) == 2
            assert dst.get(_key(0)).metric == 2.0
            assert dst.get(_key(1)).metric == 3.0

    def test_migrate_same_file_refused(self, tmp_path):
        with pytest.raises(CacheStoreError, match="same file"):
            migrate_store(tmp_path / "runs.jsonl",
                          f"jsonl:{tmp_path / 'runs.jsonl'}")
        # A scheme forcing the *other* backend onto the same physical
        # file must be refused too — not corrupt it mid-copy.
        with pytest.raises(CacheStoreError, match="same file"):
            migrate_store(tmp_path / "runs.jsonl",
                          f"sqlite:{tmp_path / 'runs.jsonl'}")

    def test_warm_campaign_survives_migration(self, tmp_path):
        """The acceptance criterion: a campaign warmed on JSONL,
        migrated to SQLite, reports the same persistent_hits as a
        JSONL warm re-run — and re-executes nothing."""
        jsonl_path = str(tmp_path / "campaign.jsonl")
        sqlite_path = str(tmp_path / "campaign.sqlite")
        app = build("weborf")
        request = AnalysisRequest.for_app(app, "health")

        with LoupeSession(cache_path=jsonl_path) as cold:
            cold.analyze(request)
        with LoupeSession(cache_path=jsonl_path) as warm_jsonl:
            jsonl_result = warm_jsonl.analyze(request)
            jsonl_stats = warm_jsonl.last_engine_stats
        assert jsonl_stats.persistent_hits > 0
        assert jsonl_stats.runs_executed == 0

        migrate_store(jsonl_path, sqlite_path)

        with LoupeSession(cache_path=sqlite_path) as warm_sqlite:
            sqlite_result = warm_sqlite.analyze(
                AnalysisRequest.for_app(app, "health")
            )
            sqlite_stats = warm_sqlite.last_engine_stats
        assert sqlite_stats.persistent_hits == jsonl_stats.persistent_hits
        assert sqlite_stats.runs_executed == 0
        assert json.dumps(sqlite_result.to_dict(), sort_keys=True) == \
            json.dumps(jsonl_result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("suffix", ["runs.jsonl", "runs.sqlite"])
class TestTTLExpiry:
    def test_expiry_gc_and_revive(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path, ttl_s=0.05) as store:
            store.put(_key(), _result())
            assert store.get(_key()) is not None
            time.sleep(0.1)
            # Reads treat the stale record as a miss immediately…
            assert store.get(_key()) is None
            assert store.expired() == 1
            stats = store.stats()
            assert stats.ttl_s == 0.05
            assert stats.expired == 1
            # …and a gc sweep reclaims it.
            assert store.gc() == 1
            assert len(store) == 0
            # A fresh put after expiry revives the key.
            store.put(_key(), _result())
            assert store.get(_key()) is not None

    def test_ad_hoc_ttl_on_untimed_store(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path) as store:
            store.put(_key(), _result())
            time.sleep(0.05)
            # No configured TTL: the record never expires on read…
            assert store.get(_key()) is not None
            assert store.stats().expired == 0
            # …but ops may ask with an explicit horizon.
            assert store.expired(0.01) == 1
            assert store.expired(3600.0) == 0
            assert store.gc(ttl_s=0.01) == 1
            assert len(store) == 0


class TestTTLCli:
    def _warm(self, path):
        with open_store(path) as store:
            store.put(_key(), _result())

    def test_stats_ttl_reports_expired(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        self._warm(path)
        time.sleep(0.05)
        assert main(["cache", "stats", path, "--ttl", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "expired: 1" in out

    def test_gc_ttl_sweeps_both_backends(self, tmp_path, capsys):
        for suffix in ("runs.jsonl", "runs.sqlite"):
            path = str(tmp_path / suffix)
            self._warm(path)
            time.sleep(0.05)
            assert main(["cache", "gc", path, "--ttl", "0.01"]) == 0
            assert "evicted 1" in capsys.readouterr().out
            with open_store(path) as store:
                assert len(store) == 0

    def test_gc_needs_a_bound(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        self._warm(path)
        capsys.readouterr()
        assert main(["cache", "gc", path]) == 2
        assert "--ttl" in capsys.readouterr().err


class TestSessionIntegration:
    def test_store_for_normalizes_path_spellings(self, tmp_path,
                                                 monkeypatch):
        """The `_store_for` bugfix: two spellings of one file must
        share one store, not race two append handles on one inode."""
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "cache.jsonl")
        with LoupeSession(cache_path="cache.jsonl") as session:
            assert session._store_for(absolute) is session.run_cache
            assert session._store_for("./cache.jsonl") is session.run_cache
            assert len(session._stores) == 1

    def test_sqlite_session_campaign_warm(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        app = build("weborf")
        with LoupeSession(cache_path=path) as cold:
            cold.analyze(AnalysisRequest.for_app(app, "health"))
            assert cold.last_engine_stats.persistent_hits == 0
        with LoupeSession(cache_path=path) as warm:
            warm.analyze(AnalysisRequest.for_app(app, "health"))
            stats = warm.last_engine_stats
        assert stats.runs_executed == 0
        assert stats.persistent_hits == stats.cache_hits > 0

    def test_store_stats_event_emitted(self, tmp_path):
        events = []
        path = str(tmp_path / "campaign.sqlite")
        with LoupeSession(on_event=events.append, cache_path=path) as s:
            s.analyze(AnalysisRequest.for_app(build("weborf"), "health"))
        store_events = [e for e in events
                        if isinstance(e, StoreStatsEvent)]
        assert len(store_events) == 1
        event = store_events[0]
        assert event.store == "sqlite"
        assert event.entries > 0
        assert event.app == "weborf"
        assert event.to_dict()["event"] == "store_stats"

    def test_no_store_no_event(self):
        events = []
        with LoupeSession(on_event=events.append) as session:
            session.analyze(AnalysisRequest.for_app(build("weborf"),
                                                    "health"))
        assert not any(isinstance(e, StoreStatsEvent) for e in events)

    def test_config_max_entries_bounds_session_store(self, tmp_path):
        path = str(tmp_path / "bounded.sqlite")
        config = AnalyzerConfig(run_cache=path, run_cache_max_entries=10)
        with LoupeSession(config=config) as session:
            session.analyze(AnalysisRequest.for_app(build("weborf"),
                                                    "health"))
            assert len(session.run_cache) <= 10
            assert session.run_cache.stats().evictions > 0

    def test_config_rejects_nonpositive_max_entries(self):
        with pytest.raises(ValueError, match="run_cache_max_entries"):
            AnalyzerConfig(run_cache_max_entries=0)


class TestRuncacheShim:
    def test_legacy_import_is_jsonl_backend(self, tmp_path):
        """The historical JSONL store is the package's JsonlRunCache,
        which ``open_store`` picks for a ``.jsonl`` path."""
        assert type(open_store(tmp_path / "runs.jsonl")) is JsonlRunCache
