"""The HTTP run-cache backend and its server-side cache surface.

Covers the wire store (:class:`RemoteRunCache` against a live
:class:`CampaignServer`), the fleet-wide single-flight claim protocol
(each cold key executes once per claim window no matter how many
clients stampede it), TTL expiry on the local backends that the
served store builds on, and the in-process :class:`CacheService`
claim core.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.cachestore import (
    CacheStoreError,
    RemoteRunCache,
    open_store,
)
from repro.core.cachestore.factory import parse_store_path, store_identity
from repro.core.cachestore.remote import decode_key_id, encode_key_id
from repro.core.runner import RunResult
from repro.server import CampaignServer
from repro.server.cache import CacheService, FleetTracker

KEY = ("sim:redis-1.0", "bench", "fingerprint", 0)


def _result(reads: int = 3) -> RunResult:
    return RunResult(success=True, traced=Counter({"read": reads}))


@pytest.fixture
def cache_server(tmp_path):
    with CampaignServer(
        tmp_path / "svc", workers=1,
        run_cache=str(tmp_path / "cache.sqlite"),
    ) as server:
        yield server


# -- key ids -----------------------------------------------------------------


class TestKeyIds:
    @settings(max_examples=50, deadline=None)
    @given(
        backend=st.text(max_size=40),
        workload=st.text(max_size=40),
        fingerprint=st.text(max_size=40),
        replica=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip(self, backend, workload, fingerprint, replica):
        key = (backend, workload, fingerprint, replica)
        token = encode_key_id(key)
        assert "/" not in token and "+" not in token and "=" not in token
        assert decode_key_id(token) == key

    def test_garbage_is_refused(self):
        for junk in ("%%%", "bm90LWpzb24", encode_key_id(KEY)[:-4] + "AAAA"):
            with pytest.raises(ValueError):
                decode_key_id(junk)


# -- the wire store ----------------------------------------------------------


class TestRemoteRoundTrip:
    def test_put_get_len_stats(self, cache_server):
        with RemoteRunCache(cache_server.url) as store:
            assert store.get(KEY) is None
            store.put(KEY, _result(), policy={"mode": "stub"})
            hit = store.get(KEY)
            assert hit is not None
            assert hit.to_dict() == _result().to_dict()
            assert len(store) == 1
            stats = store.stats()
            assert stats.kind == "sqlite"
            assert stats.entries == 1

    def test_get_many_is_a_plain_batched_read(self, cache_server):
        other = ("sim:redis-1.0", "bench", "fingerprint", 1)
        with RemoteRunCache(cache_server.url) as store:
            store.put(KEY, _result())
            found = store.get_many([KEY, other])
            assert set(found) == {KEY}
            assert found[KEY].to_dict() == _result().to_dict()
            assert store.get_many([]) == {}

    def test_ops_verbs_point_at_the_server_file(self, cache_server):
        with RemoteRunCache(cache_server.url) as store:
            for operation in (
                store.items, store.records, store.compact, store.gc,
                store.expired,
            ):
                with pytest.raises(CacheStoreError, match="loupe cache"):
                    operation()

    def test_open_store_dispatches_http(self, cache_server):
        with open_store(cache_server.url) as store:
            assert isinstance(store, RemoteRunCache)
            assert store.kind == "http"

    def test_server_without_cache_surface_is_actionable(self, tmp_path):
        with CampaignServer(tmp_path / "svc", workers=1) as server:
            with pytest.raises(CacheStoreError, match="--run-cache"):
                RemoteRunCache(server.url)

    def test_dead_server_is_actionable_at_open(self):
        with pytest.raises(CacheStoreError, match="is it running"):
            open_store("http://127.0.0.1:1")

    def test_local_knobs_are_refused_on_http(self, cache_server):
        for knobs in ({"max_entries": 5}, {"ttl_s": 60.0}):
            with pytest.raises(CacheStoreError, match="loupe serve"):
                open_store(cache_server.url, **knobs)

    def test_parse_and_identity(self):
        kind, _path = parse_store_path("http://localhost:80")
        assert kind == "http"
        assert store_identity("http://h:1/") == store_identity("http://h:1")
        assert store_identity("http://h:1") != store_identity("http://h:2")


class TestFleetSingleFlight:
    def test_stampede_executes_exactly_once(self, cache_server):
        executions = []
        results = []
        barrier = threading.Barrier(4)

        def contender():
            store = RemoteRunCache(cache_server.url, claim_wait_s=10.0)
            barrier.wait()
            hit = store.get(KEY)
            if hit is None:
                executions.append(threading.current_thread().name)
                store.put(KEY, _result())
                hit = _result()
            results.append(hit.to_dict())

        threads = [
            threading.Thread(target=contender) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(executions) == 1
        assert results == [_result().to_dict()] * 4
        counters = cache_server.cache.counters()
        assert counters["claims_granted"] == 1
        assert counters["coalesced"] >= 1
        assert counters["claims_open"] == 0

    def test_claimless_client_never_blocks(self, cache_server):
        # claim=False makes every get a plain read: an immediate miss
        # even while another client holds the key's claim.
        holder = RemoteRunCache(cache_server.url)
        assert holder.get(KEY) is None  # takes the claim
        reader = RemoteRunCache(cache_server.url, claim=False)
        started = time.monotonic()
        assert reader.get(KEY) is None
        assert time.monotonic() - started < 5.0


# -- TTL on the local backends ----------------------------------------------


@pytest.mark.parametrize("suffix", ["runs.jsonl", "runs.sqlite"])
class TestTTLExpiry:
    def test_expiry_gc_and_revive(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path, ttl_s=0.05) as store:
            store.put(KEY, _result())
            assert store.get(KEY) is not None
            time.sleep(0.1)
            # Reads treat the stale record as a miss immediately…
            assert store.get(KEY) is None
            assert store.expired() == 1
            stats = store.stats()
            assert stats.ttl_s == 0.05
            assert stats.expired == 1
            # …and a gc sweep reclaims it.
            assert store.gc() == 1
            assert len(store) == 0
            # A fresh put after expiry revives the key.
            store.put(KEY, _result())
            assert store.get(KEY) is not None

    def test_ad_hoc_ttl_on_untimed_store(self, tmp_path, suffix):
        path = tmp_path / suffix
        with open_store(path) as store:
            store.put(KEY, _result())
            time.sleep(0.05)
            # No configured TTL: the record never expires on read…
            assert store.get(KEY) is not None
            assert store.stats().expired == 0
            # …but ops may ask with an explicit horizon.
            assert store.expired(0.01) == 1
            assert store.expired(3600.0) == 0
            assert store.gc(ttl_s=0.01) == 1
            assert len(store) == 0


class TestTTLCli:
    def _warm(self, path):
        with open_store(path) as store:
            store.put(KEY, _result())

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


# -- in-process primitives ---------------------------------------------------


class TestCacheServiceUnit:
    def test_claim_grant_and_publish(self, tmp_path):
        service = CacheService(open_store(tmp_path / "runs.jsonl"))
        try:
            result, claimed = service.fetch(KEY, claim=True)
            assert result is None and claimed
            # A zero-budget waiter gets a plain miss, not the claim.
            result, claimed = service.fetch(KEY, claim=True, wait_s=0.0)
            assert result is None and not claimed
            service.publish(KEY, _result())
            result, claimed = service.fetch(KEY, claim=True)
            assert result is not None and not claimed
            counters = service.counters()
            assert counters["hits"] == 1
            assert counters["misses"] == 2
            assert counters["claims_granted"] == 1
            assert counters["claims_open"] == 0
        finally:
            service.close()

    def test_expired_claim_transfers(self, tmp_path):
        service = CacheService(
            open_store(tmp_path / "runs.jsonl"), lease_s=0.05
        )
        try:
            assert service.fetch(KEY, claim=True) == (None, True)
            time.sleep(0.1)
            assert service.fetch(KEY, claim=True) == (None, True)
            assert service.counters()["claims_granted"] == 2
        finally:
            service.close()

    def test_close_wakes_blocked_claim_waiter(self, tmp_path):
        service = CacheService(
            open_store(tmp_path / "runs.jsonl"), lease_s=30.0
        )
        assert service.fetch(KEY, claim=True) == (None, True)
        finished = threading.Event()

        def waiter():
            try:
                service.fetch(KEY, claim=True, wait_s=30.0)
            finally:
                finished.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not finished.is_set()  # parked on the open claim
        service.close()
        assert finished.wait(5.0)

    def test_lookup_is_claimless(self, tmp_path):
        service = CacheService(open_store(tmp_path / "runs.jsonl"))
        try:
            service.publish(KEY, _result())
            found = service.lookup([KEY, ("b", "w", "f", 9)])
            assert set(found) == {KEY}
        finally:
            service.close()


class TestFleetTracker:
    def test_heartbeats_feed_gauges_and_age_out(self):
        tracker = FleetTracker()
        assert tracker.gauges() == {"workers": 0, "chunks_in_flight": 0}
        ack = tracker.heartbeat({
            "worker_id": "w-1", "chunks_in_flight": 2, "ttl_s": 0.05,
        })
        assert ack == {"ok": True, "worker_id": "w-1"}
        tracker.heartbeat({
            "worker_id": "w-2", "chunks_in_flight": 1, "ttl_s": 30.0,
        })
        assert tracker.gauges() == {"workers": 2, "chunks_in_flight": 3}
        time.sleep(0.1)
        # w-1's TTL lapsed: it vanishes without any deregistration.
        assert tracker.gauges() == {"workers": 1, "chunks_in_flight": 1}

    def test_malformed_heartbeats_are_refused(self):
        tracker = FleetTracker()
        for document in (
            None, [], {}, {"worker_id": ""},
            {"worker_id": "w", "ttl_s": 0},
            {"worker_id": "w", "ttl_s": "soon"},
            {"worker_id": "w", "chunks_in_flight": "many"},
        ):
            with pytest.raises(ValueError):
                tracker.heartbeat(document)
