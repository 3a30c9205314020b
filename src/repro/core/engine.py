"""The probe execution engine: sharded run scheduling + result caching.

The paper's run-time model (Section 3.3, ``(2 + 2·t·s) · ceil(r/p)``)
assumes Loupe amortizes its run cost over a parallelism factor ``p``.
This module supplies that ``p``: a :class:`ProbeEngine` turns the
analyzer's implicit run loop into an explicit scheduler that

* fans run requests out over a pluggable executor —
  ``executor="serial"`` preserves exact serial semantics, and
  ``"process"`` shards runs over worker processes for backends that
  declare themselves process-safe, in pickled chunks over the
  process-wide ``ProcessPoolExecutor``
  (:meth:`ProbeEngine._dispatch_chunks`). ``"auto"`` decides from the
  capability contract alone, before any run: at ``parallel > 1`` a
  backend gets processes only when its runs execute a real program
  (``real_execution``) and it can shard (:meth:`ProbeEngine.mode_for`)
  — simulated runs, such as appsim's, cost less than shipping them,
  so they stay serial,
* accepts whole probe *batches* (:meth:`ProbeEngine.run_probe_batch`):
  every ``(policy, replica)`` pair of an analysis stage is submitted
  up front, so the pool stays full across features instead of
  draining at each feature boundary,
* short-circuits the remaining replicas of a probe as soon as one
  replica fails — the conservative merge in
  :class:`~repro.core.replicas.ProbeOutcome` only needs a single
  failure, and metric samples are only consumed on success,
* memoizes :class:`~repro.core.runner.RunResult`s in an LRU cache
  keyed by ``(backend.name, workload.name, policy.fingerprint(),
  replica)``, so the combined-run confirmation and the ddmin conflict
  bisection never re-pay for a run the probe phase already executed,
* optionally spills every executed run to a persistent run-cache
  store (:mod:`repro.core.cachestore`, same key), so repeated
  campaigns — new processes, new sessions, CI re-runs — start warm.

Correctness contract: a run may only be answered from either cache when
the backend is deterministic for a fixed ``(workload, policy,
replica)`` triple. Backends declare this through their capability
contract (:func:`~repro.core.runner.capabilities_of`; the simulation
backend declares ``deterministic`` — it is reproducible by
construction); backends that do not — notably the real ptrace
backend, whose runs are replicated precisely *because* they are not
reproducible — are never served from the caches, even when caching is
enabled. Under that contract the caches never change
*what* an analysis concludes, only how many runs it takes to conclude
it. Cache keys assume ``backend.name`` uniquely identifies the
application build — callers analyzing two different programs behind
identically-named backends must use separate engines (the
:class:`~repro.core.analyzer.Analyzer` clears its engine at the start
of every analysis for exactly this reason) and, when persisting,
separate cache files (the simulation backends embed name *and*
version in their backend name for exactly this reason).

Executor fallback is per-backend and always conservative: a backend
whose capabilities do not include ``parallel_safe`` runs serially no
matter what was requested; a ``process`` request degrades to serial
when the backend fails :func:`~repro.core.runner.process_shardable`
(capabilities without ``process_safe``, or not picklable). Capability
descriptors resolve once per backend object through
:meth:`ProbeEngine.capabilities_for`.

Run submission (:meth:`ProbeEngine.run` / :meth:`ProbeEngine.run_replicas`
/ :meth:`ProbeEngine.run_probe_batch`) is thread-safe; the engine is
shared freely between worker threads.

Fault tolerance (:mod:`repro.core.faults`): an engine built with a
:class:`~repro.core.faults.FaultPolicy` gives every run a wall-clock
timeout and bounded retries, classifies exhausted runs by the fault
taxonomy, and — under ``on_fault="degrade"`` — quarantines them as
:class:`~repro.core.faults.ProbeFault` entries on the outcome instead
of aborting the campaign. A dead worker does not poison the batch
either: the chunk scheduler re-enqueues only the runs its transport
reports lost (bounded by the retry budget), and the transport
rebuilds the broken shared pool first.

Accounting invariant: ``runs_requested`` counts every run a caller
asked for — including replicas that early exit later skips — so
``runs_requested == runs_executed + cache_hits + replicas_skipped +
faulted`` holds after every scheduling call, on every executor.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import threading
from collections import OrderedDict, deque
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool

from repro.core.faults import (
    FAULT_WORKER_CRASH,
    FaultNotice,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFault,
    ProbeFaultError,
    ProbeRunError,
    RetryNotice,
    describe_probe_error,
    guarded_run,
)
from repro.core.policy import InterpositionPolicy
from repro.core.replicas import ProbeOutcome, aggregate
from repro.core.cachestore import RunCacheBackend
from repro.core.runner import (
    BackendCapabilities,
    ExecutionBackend,
    RunResult,
    backend_name,
    capabilities_of,
    process_shardable,
)
from repro.core.workload import Workload

#: Default LRU capacity: comfortably holds every run of one analysis
#: (hundreds of features x 2 actions x a handful of replicas).
DEFAULT_CACHE_SIZE = 4096

#: Cache key: (backend name, workload name, policy fingerprint, replica).
CacheKey = tuple[str, str, str, int]

#: Accepted values of ``ProbeEngine(executor=...)``.
EXECUTORS = ("auto", "serial", "process")

#: Target chunks per pool worker: enough slack for the workers to
#: load-balance, few enough that per-chunk transfer stays negligible.
_CHUNKS_PER_WORKER = 8

#: The process-wide shared worker pool (see :func:`_shared_process_pool`).
#: Starting worker processes is the single most expensive thing this
#: module does — every engine of the process shares one pool instead
#: of paying it per analysis.
_PROCESS_POOL: "concurrent.futures.ProcessPoolExecutor | None" = None
_PROCESS_POOL_WIDTH = 0
_POOL_LOCK = threading.Lock()
#: Pools displaced by a wider request. They stay alive — an engine
#: that fetched one may still be mid-batch, and shutting it down under
#: that engine would abort the analysis — until
#: :func:`shutdown_worker_pools` reclaims everything. Bounded by the
#: number of distinct pool growths in one process (rare: campaigns
#: run at one width).
_RETIRED_POOLS: list[concurrent.futures.ProcessPoolExecutor] = []


def _process_context() -> "multiprocessing.context.BaseContext":
    """The start method for process sharding.

    Plain fork is only safe while the process is still
    single-threaded: forking under another thread's held lock
    (session-level ``jobs`` workers, a store flushing its file) can
    deadlock the child. So fork is used exactly when that holds at
    pool start — otherwise workers come from forkserver's clean
    single-threaded helper (or spawn where forkserver is missing).
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _shared_process_pool(width: int) -> concurrent.futures.Executor:
    """The process-wide worker-process pool, at least *width* wide.

    Worker processes are expensive to start (fork-eagerly, or a full
    interpreter under spawn/forkserver) and hold no per-analysis
    state: tasks carry everything they need. So one pool serves every
    engine of the process, created on first use and grown (never
    shrunk) when a wider engine comes along; a campaign over N
    applications pays pool start-up once, not N times.
    ``ProbeEngine.close()`` deliberately leaves it alone; call
    :func:`shutdown_worker_pools` to reclaim the workers explicitly.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        if _PROCESS_POOL is None or _PROCESS_POOL_WIDTH < width:
            if _PROCESS_POOL is not None:
                # Never shut a displaced pool down here: an engine
                # that fetched it may still be submitting chunks.
                _RETIRED_POOLS.append(_PROCESS_POOL)
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=width, mp_context=_process_context()
            )
            # Force the workers to start now, while the thread picture
            # the context choice was based on still holds (a fork
            # context must not fork later, once callers go threaded).
            pool.submit(int).result()
            _PROCESS_POOL, _PROCESS_POOL_WIDTH = pool, width
        return _PROCESS_POOL


def _replace_broken_process_pool(broken: concurrent.futures.Executor) -> None:
    """Retire *broken* so the next fetch starts a fresh process pool.

    Identity-guarded: if another engine already replaced the shared
    pool (two engines share one pool, so one dead worker breaks both),
    the healthy replacement is left alone and only *broken* is shut
    down. Shutdown of a broken pool is quick — its workers are gone.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        if _PROCESS_POOL is broken:
            _PROCESS_POOL = None
            _PROCESS_POOL_WIDTH = 0
        elif broken in _RETIRED_POOLS:
            _RETIRED_POOLS.remove(broken)
    broken.shutdown(wait=True)


def shutdown_worker_pools() -> None:
    """Shut the shared worker-process pool down (idempotent).

    The next process-sharded run transparently starts a fresh pool.
    Registered at interpreter exit; long-lived embedders can call it
    earlier to reclaim the worker processes.
    """
    global _PROCESS_POOL, _PROCESS_POOL_WIDTH
    with _POOL_LOCK:
        pools = list(_RETIRED_POOLS)
        _RETIRED_POOLS.clear()
        if _PROCESS_POOL is not None:
            pools.append(_PROCESS_POOL)
        _PROCESS_POOL = None
        _PROCESS_POOL_WIDTH = 0
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_worker_pools)


def _execute_chunk(
    backend: ExecutionBackend,
    workload: Workload,
    tasks: Sequence[tuple[int, int, InterpositionPolicy]],
    early_exit: bool,
    fault_policy: "FaultPolicy | None" = None,
) -> "list[tuple[int, int, RunResult | ProbeFault]]":
    """Execute a contiguous slice of a batch inside one worker process.

    Process sharding ships tasks in chunks so the backend is pickled
    once per chunk instead of once per run — at thousands of
    microsecond-scale simulated runs, per-task IPC would otherwise eat
    the sharding win. ``tasks`` are ``(probe_index, replica, policy)``
    triples in submission order; with *early_exit* the worker skips
    the later replicas of a probe that already failed inside this
    chunk (the same replicas the serial path would skip), and the
    scheduler accounts anything absent from the return as skipped.

    Backend exceptions never cross the process boundary raw: without a
    fault policy they re-raise as :class:`ProbeRunError` carrying the
    probe key (a pickled anonymous traceback identifies nothing);
    with an active policy each run goes through :func:`guarded_run` —
    the same timeout/retry semantics as the scheduling process — and
    exhausted runs come back as :class:`ProbeFault` rows (degrade) or
    raise :class:`ProbeFaultError` (fail). Faulted probes do not
    trigger the in-chunk skip: only a *decided* failure does.
    """
    results: "list[tuple[int, int, RunResult | ProbeFault]]" = []
    failed: set[int] = set()
    guarded = fault_policy is not None and fault_policy.active
    for probe_index, replica, policy in tasks:
        if early_exit and probe_index in failed:
            continue
        if guarded:
            outcome = guarded_run(
                backend, workload, policy, replica, fault_policy
            )
            if outcome.faulted:
                fault = outcome.fault(workload, policy, replica)
                if not fault_policy.degrade:
                    raise ProbeFaultError(fault)
                results.append((probe_index, replica, fault))
                continue
            result = outcome.result
        else:
            try:
                result = backend.run(workload, policy, replica=replica)
            except (ProbeRunError, ProbeFaultError):
                raise
            except Exception as error:
                raise ProbeRunError(
                    describe_probe_error(workload, policy, replica, error)
                ) from error
        results.append((probe_index, replica, result))
        if not result.success:
            failed.add(probe_index)
    return results


class _ProcessTransport:
    """The chunk transport over the shared worker-process pool.

    Speaks the protocol :meth:`ProbeEngine._dispatch_chunks` drives —
    ``width``, ``submit(job) -> chunk_id``, ``next_events()``.
    A ``BrokenProcessPool`` dooms every future of the pool, so on a
    break this transport drains all of them at once (survivors that
    completed before the break keep their rows), reports the dead
    chunks as ``lost``, and rebuilds the shared pool exactly once.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._pool = _shared_process_pool(width)
        self._futures: "dict[concurrent.futures.Future, int]" = {}
        self._ids = itertools.count(1)

    def submit(self, job: tuple) -> int:
        try:
            future = self._pool.submit(_execute_chunk, *job)
        except RuntimeError:
            # The shared pool was shut down under us, or a worker died
            # before this chunk was accepted (BrokenProcessPool is a
            # RuntimeError): retire the dead pool — else the re-fetch
            # hands back the same broken one — and retry once on a
            # fresh pool. Chunks the broken pool had already accepted
            # surface as lost from next_events.
            self._rebuild()
            future = self._pool.submit(_execute_chunk, *job)
        chunk_id = next(self._ids)
        self._futures[future] = chunk_id
        return chunk_id

    def next_events(self) -> "list[tuple[str, int, object]]":
        done, _ = concurrent.futures.wait(
            self._futures, return_when=concurrent.futures.FIRST_COMPLETED
        )
        events = [self._event(future) for future in done]
        if any(kind == "lost" for kind, _, _ in events):
            events += [self._event(future) for future in list(self._futures)]
            self._rebuild()
        return events

    def _event(self, future: concurrent.futures.Future) -> tuple:
        chunk_id = self._futures.pop(future)
        try:
            return "done", chunk_id, future.result()
        except (BrokenProcessPool, concurrent.futures.CancelledError) as error:
            return "lost", chunk_id, error
        except Exception as error:
            return "failed", chunk_id, error

    def _rebuild(self) -> None:
        _replace_broken_process_pool(self._pool)
        self._pool = _shared_process_pool(self.width)

    def close(self) -> None:
        """Cancel the chunks still queued (running ones finish)."""
        for future in self._futures:
            future.cancel()


@dataclasses.dataclass(frozen=True)
class EngineStats:
    """Immutable snapshot of one engine's run accounting.

    ``runs_requested`` counts every run the analysis asked for,
    including replicas that early exit never started;
    ``runs_executed`` the subset that actually reached the backend;
    ``cache_hits`` the subset answered from either cache, of which
    ``persistent_hits`` came from the on-disk store rather than this
    engine's own LRU; ``replicas_skipped`` the replicas never run
    because an earlier replica of the same probe already failed
    (early exit); ``faulted`` the runs the fault policy quarantined
    (timeout / worker-crash / backend-error / torn-result), which
    therefore produced no result. ``runs_requested == runs_executed +
    cache_hits + replicas_skipped + faulted`` always holds.
    """

    runs_requested: int = 0
    runs_executed: int = 0
    cache_hits: int = 0
    replicas_skipped: int = 0
    persistent_hits: int = 0
    faulted: int = 0

    def __add__(self, other: "EngineStats") -> "EngineStats":
        """Field-wise total, e.g. folding per-analysis stats into a
        campaign total (new counters join automatically)."""
        if not isinstance(other, EngineStats):
            return NotImplemented
        return EngineStats(**{
            field.name: getattr(self, field.name) + getattr(other, field.name)
            for field in dataclasses.fields(self)
        })

    @property
    def hit_rate(self) -> float:
        """Fraction of requested runs answered from the caches."""
        if self.runs_requested == 0:
            return 0.0
        return self.cache_hits / self.runs_requested

    @property
    def persistent_hit_rate(self) -> float:
        """Fraction of requested runs answered from the on-disk store."""
        if self.runs_requested == 0:
            return 0.0
        return self.persistent_hits / self.runs_requested

    def describe(self) -> str:
        base = (
            f"{self.runs_requested} run(s) requested, "
            f"{self.runs_executed} executed, "
            f"{self.cache_hits} cache hit(s) ({self.hit_rate:.0%}), "
            f"{self.replicas_skipped} replica(s) early-exited"
        )
        if self.persistent_hits:
            base += f", {self.persistent_hits} from the persistent cache"
        if self.faulted:
            base += f", {self.faulted} run(s) faulted"
        return base


class ProbeEngine:
    """Schedules probe runs over a pluggable executor with run caching.

    Parameters
    ----------
    parallel:
        Worker-pool width. ``1`` (the default) runs every replica
        inline on the calling thread, byte-for-byte preserving the
        serial execution order, regardless of *executor*.
    executor:
        The sharding strategy at ``parallel > 1``: ``"process"``
        shards runs over a ``ProcessPoolExecutor`` (for backends
        passing :func:`~repro.core.runner.process_shardable` — others
        run serially), ``"serial"`` disables sharding outright, and
        ``"auto"`` (the default) gives processes only to real-execution
        backends that can shard, serial to the rest (see
        :meth:`mode_for`).
    cache:
        Enable run-result memoization. Disabling it forces every
        request through the backend (useful for benchmarking the raw
        run cost). Even when enabled, only backends whose capability
        contract declares ``deterministic`` are ever answered from a
        cache.
    cache_size:
        Maximum cached :class:`RunResult`s before least-recently-used
        eviction (this engine's in-memory LRU only; the persistent
        store bounds itself — the SQLite backend evicts under its own
        ``max_entries``, JSONL grows until compacted).
    store:
        Optional persistent run-cache store (any
        :class:`~repro.core.cachestore.RunCacheBackend` —
        :func:`~repro.core.cachestore.open_store` builds one from a
        path). Misses that the LRU cannot answer are looked up here
        before reaching the backend, and every executed cacheable run
        is recorded, so later campaigns sharing the store start warm.
        Survives :meth:`reset` — cross-campaign reuse is its entire
        point.
    fault_policy:
        Optional :class:`~repro.core.faults.FaultPolicy`. When active,
        every run gets a wall-clock timeout and bounded retries;
        exhausted runs either abort the campaign as
        :class:`~repro.core.faults.ProbeFaultError` (``on_fault=
        "fail"``) or are quarantined as
        :class:`~repro.core.faults.ProbeFault` entries on the
        :class:`~repro.core.replicas.ProbeOutcome` (``"degrade"``).
        ``None`` (the default) keeps the historical fast path: raw
        exception propagation, zero per-run overhead.
    on_notice:
        Optional callback receiving fault-activity notices
        (:class:`~repro.core.faults.RetryNotice` /
        :class:`~repro.core.faults.FaultNotice` /
        :class:`~repro.core.faults.PoolRecoveredNotice`) from the
        scheduling thread; the analyzer adapts them into typed
        session events. Also assignable later via ``notice_sink``.
    """

    def __init__(
        self,
        *,
        parallel: int = 1,
        cache: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        executor: str = "auto",
        store: "RunCacheBackend | None" = None,
        fault_policy: "FaultPolicy | None" = None,
        on_notice: "Callable[[object], None] | None" = None,
    ) -> None:
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from: "
                f"{', '.join(EXECUTORS)}"
            )
        if store is not None and not cache:
            # cache=False means "every request reaches the backend";
            # silently ignoring the store the caller asked for would
            # be worse than refusing the contradiction.
            raise ValueError(
                "a persistent run-cache store requires cache=True"
            )
        self.parallel = parallel
        self.executor = executor
        self.cache_enabled = cache
        self.cache_size = cache_size
        self.store = store
        #: The active fault policy; an inactive one guards nothing.
        self.fault_policy = (
            fault_policy if fault_policy and fault_policy.active else None
        )
        #: Fault-activity callback; reassignable (the analyzer points
        #: it at the live event stream for the duration of an analysis).
        self.notice_sink = on_notice
        self._lock = threading.Lock()
        self._cache: OrderedDict[CacheKey, RunResult] = OrderedDict()
        self._requested = 0
        self._executed = 0
        self._hits = 0
        self._skipped = 0
        self._persistent_hits = 0
        self._faulted = 0
        #: id(backend) -> (backend, BackendCapabilities); resolved once
        #: per backend object, so ``capabilities()`` is called once, not
        #: per run. The backend reference pins the id so a descriptor
        #: can never be served to a recycled object.
        self._capability_cache: dict[
            int, tuple[object, BackendCapabilities]
        ] = {}
        #: id(backend) -> (backend, process_shardable(backend)); same
        #: id-pinning contract as the capability cache.
        self._shard_verdicts: dict[int, tuple[object, bool]] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def executor_name(self) -> str:
        """The resolved sharding strategy (``serial``/``process``).

        Per-backend capability fallback can still demote an individual
        backend to serial (see :meth:`mode_for`); ``auto`` resolves to
        ``process`` here, the most it may pick.
        """
        if self.parallel == 1 or self.executor == "serial":
            return "serial"
        return "process"

    def close(self) -> None:
        """Release this engine's hold on scheduling state (idempotent).

        The engine owns no pool: the worker-process pool is
        process-wide and deliberately survives this call for the other
        engines of the process (:func:`shutdown_worker_pools` reclaims
        it explicitly); the engine stays usable, re-fetching the pool —
        at the *current* ``parallel`` width — on the next scheduling
        call. Kept as an explicit lifecycle point so analyzers and
        sessions can context-manage engines uniformly.
        """

    def __enter__(self) -> "ProbeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def capabilities_for(self, backend: ExecutionBackend) -> BackendCapabilities:
        """The backend's capability descriptor, resolved once per object.

        Memoizing here keeps scheduling calls off the descriptor
        resolution. Cleared on :meth:`reset`.
        """
        capabilities = self._verdict(self._capability_cache, backend)
        if capabilities is None:
            capabilities = capabilities_of(backend)
            self._remember(self._capability_cache, backend, capabilities)
        return capabilities

    def mode_for(self, backend: ExecutionBackend) -> str:
        """The executor one backend's probes actually get.

        Sharding requires the backend's capability contract to declare
        ``parallel_safe``: overlapping replicas of a live command would
        contend on ports and on-disk state and corrupt each other's
        outcomes. It also requires the backend to pass
        :func:`~repro.core.runner.process_shardable` (``process_safe``
        declared, and it survives pickling); declared-but-unshardable
        backends run serially rather than failing inside the pool.
        ``auto`` further requires ``real_execution``: a simulated run
        costs less than shipping it to a worker, so simulations stay
        serial. The verdict follows from the contract alone, so it is
        known before any run; the (potentially costly) pickle check
        runs once per backend object.
        """
        if self.executor_name == "serial":
            return "serial"
        capabilities = self.capabilities_for(backend)
        if not capabilities.parallel_safe:
            return "serial"
        if self.executor == "auto" and not capabilities.real_execution:
            return "serial"
        shardable = self._verdict(self._shard_verdicts, backend)
        if shardable is None:
            shardable = process_shardable(backend, capabilities=capabilities)
            self._remember(self._shard_verdicts, backend, shardable)
        return "process" if shardable else "serial"

    def _verdict(self, verdicts: dict, backend: ExecutionBackend):
        """*backend*'s memoized entry in *verdicts*, or ``None``."""
        with self._lock:
            cached = verdicts.get(id(backend))
        if cached is not None and cached[0] is backend:
            return cached[1]
        return None

    def _remember(
        self, verdicts: dict, backend: ExecutionBackend, verdict
    ) -> None:
        with self._lock:
            # The strong backend reference keeps the id stable for the
            # verdict's lifetime (cleared on reset).
            verdicts[id(backend)] = (backend, verdict)

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """A consistent snapshot of the run accounting so far."""
        with self._lock:
            return EngineStats(
                runs_requested=self._requested,
                runs_executed=self._executed,
                cache_hits=self._hits,
                replicas_skipped=self._skipped,
                persistent_hits=self._persistent_hits,
                faulted=self._faulted,
            )

    def reset(self) -> None:
        """Drop the LRU, zero the statistics, forget backend verdicts.

        The next scheduling call re-fetches the shared pool at the
        current ``parallel`` width, so widening an engine between
        campaigns takes effect here (the shared pool grows and never
        shrinks). The persistent store — whose entire purpose is surviving campaign
        boundaries — is deliberately left alone.
        """
        self.close()
        with self._lock:
            self._cache.clear()
            self._capability_cache.clear()
            self._shard_verdicts.clear()
            self._requested = 0
            self._executed = 0
            self._hits = 0
            self._skipped = 0
            self._persistent_hits = 0
            self._faulted = 0

    def cached_runs(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- caching -----------------------------------------------------------

    def _cache_prefix(
        self, backend: ExecutionBackend, workload: Workload
    ) -> "tuple[str, str] | None":
        """A batch's cache-key head, ``(backend name, workload name)``,
        or ``None`` when its runs may not be answered from a cache."""
        if self.cache_enabled and self.capabilities_for(backend).deterministic:
            return backend_name(backend), workload.name
        return None

    def _evict_locked(self) -> None:
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _lookup(self, key: CacheKey) -> "RunResult | None":
        """Answer a cacheable run from LRU, then store; counts the hit."""
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return hit
        if self.store is not None:
            persisted = self.store.get(key)
            if persisted is not None:
                with self._lock:
                    self._hits += 1
                    self._persistent_hits += 1
                    self._cache[key] = persisted  # promote into the LRU
                    self._cache.move_to_end(key)
                    self._evict_locked()
                return persisted
        return None

    def _memoize(
        self, key: CacheKey, result: RunResult, policy: InterpositionPolicy
    ) -> None:
        """Remember one executed run; the caller counts it.

        The policy rides along to the persistent store so ``loupe
        cache verify`` can later re-execute the record (the key's
        fingerprint is lossy and cannot be reversed into a policy).
        """
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            self._evict_locked()
        if self.store is not None:
            self.store.put(key, result, policy=policy.to_dict())

    # -- fault handling ----------------------------------------------------

    def _notify(self, notice: object) -> None:
        sink = self.notice_sink
        if sink is not None:
            sink(notice)

    def _account_fault(self, fault: ProbeFault) -> None:
        with self._lock:
            self._faulted += 1
        self._notify(FaultNotice(fault))

    def _guarded(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int,
    ) -> "RunResult | ProbeFault":
        """One run under the active fault policy.

        Emits one RetryNotice per *retried* attempt: on an exhausted
        outcome the last failure was terminal, and the run comes back
        as its (accounted, notified) quarantine record under
        ``on_fault="degrade"`` or raises :class:`ProbeFaultError`.
        """
        guard = self.fault_policy
        outcome = guarded_run(backend, workload, policy, replica, guard)
        recovered = outcome.result is not None
        retried = outcome.failures if recovered else outcome.failures[:-1]
        for attempt, failure in enumerate(retried, start=1):
            self._notify(RetryNotice(
                workload=workload.name,
                probe=policy.describe(),
                replica=replica,
                attempt=attempt,
                kind=failure.kind,
                detail=failure.detail,
            ))
        if recovered:
            return outcome.result
        fault = outcome.fault(workload, policy, replica)
        self._account_fault(fault)
        if not guard.degrade:
            raise ProbeFaultError(fault)
        return fault

    # -- the run API -------------------------------------------------------

    def run(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replica: int = 0,
    ) -> RunResult:
        """One run, answered from the caches when possible.

        Caching requires the backend to declare ``deterministic =
        True``; a fresh execution of a nondeterministic backend is the
        whole point of replication, so its results are never memoized.

        The single-run API never degrades: a run that exhausts its
        fault budget raises :class:`ProbeFaultError` even under
        ``on_fault="degrade"`` — only probe outcomes (which can carry
        quarantined faults) support degradation.
        """
        outcome = self._serial_probe(
            backend, workload, policy, range(replica, replica + 1), False,
            self._cache_prefix(backend, workload),
        )
        if outcome.faults:
            raise ProbeFaultError(outcome.faults[0])
        return outcome.results[0]

    def run_replicas(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replicas: int,
        *,
        early_exit: bool = True,
    ) -> ProbeOutcome:
        """Run *replicas* executions of one probe and aggregate them.

        With ``early_exit`` (the default) the remaining replicas of a
        probe are abandoned as soon as one replica fails: the
        conservative merge needs only a single failure, and metric
        samples are only consumed on all-success outcomes. Results
        always appear in replica-index order, so an all-success
        parallel outcome is identical to the serial one.
        """
        return self.run_probe_batch(
            backend, workload, (policy,), replicas, early_exit=early_exit
        )[0]

    def run_probe_batch(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policies: Sequence[InterpositionPolicy],
        replicas: int,
        *,
        early_exit: bool = True,
    ) -> list[ProbeOutcome]:
        """Run every ``(policy, replica)`` probe of a batch; aggregate
        per policy.

        This is the analyzer's stage-2 entry point: submitting all
        probes of an analysis at once keeps the worker pool saturated
        across feature boundaries instead of draining it after each
        feature's handful of replicas. Outcomes come back in *policies*
        order; early exit remains per-probe (a failed replica only
        cancels its own probe's siblings). On the serial path the
        batch degenerates to the exact historical execution order —
        policy by policy, replica by replica.
        """
        if replicas < 1:
            raise ValueError("need at least one replica")
        if not policies:
            return []
        if self.mode_for(backend) == "serial":
            cache_as = self._cache_prefix(backend, workload)
            return [
                self._serial_probe(
                    backend, workload, policy, range(replicas), early_exit,
                    cache_as,
                )
                for policy in policies
            ]
        return self._pooled_batch(
            backend, workload, policies, replicas, early_exit
        )

    # -- execution strategies ----------------------------------------------

    def _serial_probe(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replicas: range,
        early_exit: bool,
        cache_as: "tuple[str, str] | None",
    ) -> ProbeOutcome:
        """Run the *replicas* of one probe inline, in index order.

        *cache_as* is the batch's :meth:`_cache_prefix`. The probe's
        own counters are folded into one locked update at its end,
        also when a run raises; hits are counted under the lock each
        cache lookup takes anyway.
        """
        if cache_as is not None:
            cache_as = (*cache_as, policy.fingerprint())
        results: list[RunResult] = []
        faults: list[ProbeFault] = []
        executed = skipped = 0
        try:
            for replica in replicas:
                out = None
                if cache_as is not None:
                    key = (*cache_as, replica)
                    out = self._lookup(key)
                if out is None:
                    if self.fault_policy is None:
                        out = backend.run(workload, policy, replica=replica)
                    else:
                        out = self._guarded(backend, workload, policy, replica)
                    if isinstance(out, ProbeFault):
                        # A fault is not a decision: later replicas run
                        # (one may observe a genuine failure, which
                        # dominates; see replicas.aggregate).
                        faults.append(out)
                        continue
                    executed += 1
                    if cache_as is not None:
                        self._memoize(key, out, policy)
                results.append(out)
                if early_exit and not out.success:
                    skipped = replicas.stop - replica - 1
                    break
        finally:
            with self._lock:
                self._requested += len(replicas)
                self._executed += executed
                self._skipped += skipped
        return aggregate(results, faults=tuple(faults))

    def _pooled_batch(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policies: Sequence[InterpositionPolicy],
        replicas: int,
        early_exit: bool,
    ) -> list[ProbeOutcome]:
        cache_as = self._cache_prefix(backend, workload)
        with self._lock:
            self._requested += len(policies) * replicas
        collected: list[dict[int, RunResult]] = [{} for _ in policies]
        faulted: list[dict[int, ProbeFault]] = [{} for _ in policies]
        failed = [False] * len(policies)
        # Resolve the caches up front; only misses reach the pool.
        tasks: list[tuple[int, int, InterpositionPolicy, CacheKey | None]] = []
        for probe_index, policy in enumerate(policies):
            for replica in range(replicas):
                if early_exit and failed[probe_index]:
                    break  # cached failure: siblings are never submitted
                key = None
                if cache_as is not None:
                    key = (*cache_as, policy.fingerprint(), replica)
                    hit = self._lookup(key)
                    if hit is not None:
                        collected[probe_index][replica] = hit
                        if early_exit and not hit.success:
                            failed[probe_index] = True
                        continue
                tasks.append((probe_index, replica, policy, key))
        cached = sum(map(len, collected))
        if tasks:
            transport = _ProcessTransport(self.parallel)
            try:
                self._dispatch_chunks(
                    transport, backend, workload, tasks, collected,
                    faulted, early_exit,
                )
            except BaseException:
                # Drop the chunks still queued so their late results
                # cannot leak into the next batch.
                transport.close()
                raise
        # Whatever was asked for but never ran — skipped by a worker
        # after an in-chunk failure, or never submitted after a cached
        # failure — was skipped. Quarantined runs are accounted as
        # faults, so the ``requested == executed + hits + skipped +
        # faulted`` invariant holds.
        obtained = sum(map(len, collected))
        with self._lock:
            self._executed += obtained - cached
            self._skipped += (
                len(policies) * replicas - obtained - sum(map(len, faulted))
            )
        return [
            aggregate(
                [by_replica[index] for index in sorted(by_replica)],
                faults=tuple(
                    by_fault[index] for index in sorted(by_fault)
                ),
            )
            for by_replica, by_fault in zip(collected, faulted)
        ]

    def _dispatch_chunks(
        self,
        transport,
        backend: ExecutionBackend,
        workload: Workload,
        tasks: Sequence[tuple[int, int, InterpositionPolicy, "CacheKey | None"]],
        collected: list[dict[int, RunResult]],
        faulted: list[dict[int, ProbeFault]],
        early_exit: bool,
    ) -> None:
        """Chunk sharding: runs ship in contiguous chunks over *transport*.

        The transport (:class:`_ProcessTransport`, over the shared
        process pool) runs :func:`_execute_chunk` jobs and reports each
        chunk as ``done`` (its rows), ``failed`` (the exception it
        raised, which re-raises here) or ``lost`` (its worker died).
        Chunking amortizes the per-job transfer cost (the backend
        pickles once per chunk, not once per run) while still cutting
        the batch finely enough — several chunks per worker of the
        transport's ``width`` — that the workers load-balance. At most
        ``width`` chunks are in flight at once: the shared pool may be
        wider than this engine's ``parallel``, and chunks it already
        holds would run on every worker it has. Early exit degrades to
        chunk granularity: workers skip the later replicas of probes
        that fail within their own chunk, and cross-chunk failures run
        to completion.

        A dead worker does not poison the batch: its lost runs are
        re-enqueued as singleton chunks at the back of the same queue,
        so a poison run that kills its worker takes no innocent
        chunk-mates down with it. Each run is
        re-enqueued at most ``retries + 1`` times (once without a fault
        policy); beyond that it is a ``worker-crash`` fault —
        quarantined under degrade, raised otherwise.
        """
        fault_policy = self.fault_policy
        per_chunk = max(
            1, -(-len(tasks) // (max(1, transport.width) * _CHUNKS_PER_WORKER))
        )
        runs = {
            (probe_index, replica): (policy, key)
            for probe_index, replica, policy, key in tasks
        }
        #: How often one lost run may be re-enqueued.
        max_requeues = (fault_policy.retries if fault_policy else 0) + 1
        requeues: dict[tuple[int, int], int] = {}
        recoveries = 0
        inflight: "dict[int, list[tuple[int, int, InterpositionPolicy]]]" = {}
        pending = deque(
            [
                (probe_index, replica, policy)
                for probe_index, replica, policy, _key
                in tasks[start:start + per_chunk]
            ]
            for start in range(0, len(tasks), per_chunk)
        )
        while pending or inflight:
            while pending and len(inflight) < max(1, transport.width):
                chunk = pending.popleft()
                job = (backend, workload, chunk, early_exit, fault_policy)
                inflight[transport.submit(job)] = chunk
            lost: list[tuple[int, int, InterpositionPolicy]] = []
            for kind, chunk_id, body in transport.next_events():
                chunk = inflight.pop(chunk_id, None)
                if chunk is None:
                    continue  # a stale event for a chunk written off
                if kind == "failed":
                    # The chunk executed and raised (a fail-mode
                    # ProbeFaultError, a raw backend error).
                    raise body
                if kind == "lost":
                    lost.extend(chunk)
                    error = body
                    continue
                for probe_index, replica, row in body:
                    if isinstance(row, ProbeFault):
                        self._account_fault(row)
                        faulted[probe_index][replica] = row
                        continue
                    policy, key = runs[(probe_index, replica)]
                    collected[probe_index][replica] = row
                    if key is not None:
                        self._memoize(key, row, policy)
            if not lost:
                continue
            recoveries += 1
            requeued = 0
            for probe_index, replica, policy in lost:
                if (
                    replica in collected[probe_index]
                    or replica in faulted[probe_index]
                ):
                    continue  # already answered by another chunk
                count = requeues.get((probe_index, replica), 0)
                if count < max_requeues:
                    requeues[(probe_index, replica)] = count + 1
                    requeued += 1
                    pending.append([(probe_index, replica, policy)])
                    continue
                fault = ProbeFault(
                    workload=workload.name,
                    probe=policy.describe(),
                    replica=replica,
                    kind=FAULT_WORKER_CRASH,
                    attempts=count + 1,
                    detail="worker died on every attempt",
                )
                self._account_fault(fault)
                if fault_policy is None or not fault_policy.degrade:
                    raise ProbeFaultError(fault) from error
                faulted[probe_index][replica] = fault
            self._notify(PoolRecoveredNotice(
                lost_runs=requeued, rebuilds=recoveries,
            ))
