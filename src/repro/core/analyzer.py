"""The Loupe analysis algorithm (paper Section 3).

Given an application (behind an :class:`ExecutionBackend`) and a
workload, the analyzer:

1. runs the passthrough baseline N times — enumerating every invoked
   feature and collecting baseline performance/resource statistics;
2. probes each feature in isolation — N runs with the feature stubbed,
   N runs with it faked — deciding ``can_stub``/``can_fake`` from test
   script success across all replicas, and recording metric impacts;
3. performs a final **combined run** stubbing/faking everything found
   avoidable, confirming the per-feature analysis composes;
4. when the combined run fails, automatically bisects the avoided set
   to the minimal conflicting feature groups (the paper leaves this
   step to the user, noting it "could be automated in future works" —
   we automate it with ddmin) and conservatively demotes those
   features to REQUIRED before re-verifying.

Every run goes through a :class:`~repro.core.engine.ProbeEngine` — the
paper's parallelism factor ``p`` made concrete: ``AnalyzerConfig.parallel``
fans runs over a worker pool (``AnalyzerConfig.executor`` picks process
sharding, or lets ``auto`` choose from the backend's capabilities),
``AnalyzerConfig.cache`` memoizes run results so
the confirmation/bisection stages reuse probe-phase runs,
``AnalyzerConfig.run_cache`` extends that memoization to an on-disk
store shared across campaigns, and ``AnalyzerConfig.early_exit`` stops
replicating a probe once one replica has already failed it. Stage 2
submits every ``(feature, action, replica)`` probe of an analysis to
the engine as one batch, so a parallel pool stays full across feature
boundaries; outcomes are folded back deterministically in feature
order, keeping reports byte-identical to a serial run.

Progress is reported as the typed event stream of
:mod:`repro.api.events` (``on_event=``), built only for a listener.

How a backend may be scheduled — cached, overlapped, process-sharded —
is decided entirely by its capability contract
(:func:`~repro.core.runner.capabilities_of`); the analyzer itself
never inspects backend attributes. One analyzer drives one execution
target; fanning a campaign across *several* targets (and
cross-validating what each observed) is the session's job
(:meth:`repro.api.session.LoupeSession.analyze` with a multi-backend
request).
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from collections.abc import Callable, Sequence

from repro.api.events import (
    AnalysisCancelled,
    AnalysisFinished,
    AnalysisStarted,
    BaselineStarted,
    CombinedRunFinished,
    ConflictBisected,
    EngineStatsEvent,
    EventCallback,
    FaultsSummary,
    FeatureProbed,
    FeaturesEnumerated,
    PoolRecovered,
    ProbeFaulted,
    ProbeRetry,
    tag_app,
)
from repro.core.decisions import Decision
from repro.core.cachestore import RunCacheBackend, open_store
from repro.core.engine import EXECUTORS, ProbeEngine
from repro.core.faults import (
    FaultNotice,
    FaultPolicy,
    PoolRecoveredNotice,
    ProbeFault,
    RetryNotice,
)
from repro.core.metrics import DEFAULT_MARGIN, ImpactSummary, compare
from repro.core.policy import Action, InterpositionPolicy, combined, passthrough
from repro.core.replicas import ProbeOutcome
from repro.core.result import AnalysisResult, BaselineStats, FeatureReport
from repro.core.runner import ExecutionBackend, backend_name
from repro.core.workload import Workload
from repro.core.metrics import SampleStats
from repro.errors import AnalysisCancelledError, AnalysisError


@dataclasses.dataclass(frozen=True)
class AnalyzerConfig:
    """Tunable knobs of one analysis campaign."""

    replicas: int = 3
    subfeature_level: bool = False      # Section 5.4 partial-implementation mode
    pseudo_files: bool = False          # Section 3.3 special-file tracking
    guard_metrics: bool = True          # record perf/resource impacts
    strict_metrics: bool = False        # impacts additionally disqualify stub/fake
    metric_margin: float = DEFAULT_MARGIN
    bisect_conflicts: bool = True
    max_demotion_rounds: int = 4
    #: Worker-pool width of the probe engine: the paper's parallelism
    #: factor ``p`` in ``(2 + 2·t·s)·ceil(r/p)``. ``1`` preserves the
    #: historical strictly-serial execution order.
    parallel: int = 1
    #: Sharding strategy at ``parallel > 1``: ``"process"`` shards runs
    #: over worker processes for backends that declare themselves
    #: parallel- and process-safe (others run serially), ``"serial"``
    #: disables sharding, and ``"auto"`` picks processes only for such
    #: backends that also declare ``real_execution`` — serial
    #: otherwise, as for the appsim simulation and ``static``.
    executor: str = "auto"
    #: Memoize run results so the combined-run confirmation and the
    #: ddmin bisection never re-execute a run the probe phase paid for.
    cache: bool = True
    #: Optional path of a persistent run cache. Executed runs of
    #: deterministic backends are recorded, and later campaigns —
    #: other processes, other sessions — answer repeats from it, so a
    #: re-run campaign starts warm. The path picks the backend
    #: (:func:`repro.core.cachestore.open_store`): ``*.sqlite`` /
    #: ``sqlite:...`` opens the concurrent bounded SQLite store,
    #: anything else the append-only JSONL file.
    run_cache: "str | None" = None
    #: Optional LRU cap on the persistent run cache (SQLite backend
    #: only): a put that grows the store past this many records
    #: evicts the least recently used. ``None`` leaves it unbounded.
    run_cache_max_entries: "int | None" = None
    #: Optional age cap on persistent run-cache records: entries older
    #: than this many seconds read as misses (and ``loupe cache gc
    #: --ttl`` sweeps them). Complements the LRU entry cap — the cap
    #: bounds *size*, the TTL bounds *staleness*. ``None`` disables
    #: age-based eviction.
    run_cache_ttl_s: "float | None" = None
    #: Stop replicating a probe at the first failed replica (one
    #: failure already decides the conservative merge).
    early_exit: bool = True
    #: Cross-application knowledge transfer (Section 6, future work):
    #: confident priors from past analyses shrink a feature's probe to
    #: a single confirmation run, falling back to the full replicated
    #: probe on any disagreement.
    priors: "object | None" = None
    #: Wall-clock budget for a single probe run attempt; an attempt
    #: is stopped at its deadline and classified as a ``timeout`` fault.
    #: ``None`` disables the guard. This is what bounds a hung run on
    #: any backend, the campaign server's jobs included (the spec's
    #: ``probe_timeout``): the server itself never expires a job.
    probe_timeout_s: "float | None" = None
    #: Extra attempts after a faulted run attempt (exponential backoff
    #: between attempts). ``0`` fails/quarantines on the first fault.
    retries: int = 0
    #: Base delay of the exponential retry backoff.
    retry_backoff_s: float = 0.05
    #: What to do when a probe run exhausts its attempts: ``"fail"``
    #: aborts the campaign (historical behavior), ``"degrade"``
    #: quarantines the run and keeps going — the affected feature is
    #: reported UNDECIDED rather than the whole analysis dying.
    on_fault: str = "fail"
    #: Seed for the retry-backoff jitter; set it to make backoff delays
    #: (and therefore chaos-test timings) reproducible.
    fault_seed: "int | None" = None
    #: Cooperative cancellation hook: a zero-argument callable polled
    #: at analysis checkpoints (before the baseline, between probe
    #: waves, between confirmation rounds). The first poll returning
    #: true stops the campaign within one wave: a final
    #: ``engine_stats`` event and a terminal ``analysis_cancelled``
    #: event are emitted, then
    #: :class:`repro.errors.AnalysisCancelledError` is raised with the
    #: accounting intact. ``None`` (the default) disables polling.
    #: Excluded from config equality — whether a campaign is
    #: cancellable never changes what it concludes.
    cancel_check: "Callable[[], bool] | None" = dataclasses.field(
        default=None, compare=False
    )

    def fault_policy(self) -> "FaultPolicy | None":
        """The engine-level fault policy these knobs describe.

        Returns ``None`` when the knobs are all at their inactive
        defaults, so the engine keeps its historical raw execution
        path (exceptions propagate with their original types).
        """
        policy = FaultPolicy(
            probe_timeout_s=self.probe_timeout_s,
            retries=self.retries,
            retry_backoff_s=self.retry_backoff_s,
            on_fault=self.on_fault,
            jitter_seed=self.fault_seed,
        )
        return policy if policy.active else None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.max_demotion_rounds < 1:
            raise ValueError("max_demotion_rounds must be >= 1")
        if self.parallel < 1:
            raise ValueError("parallel must be >= 1")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from: "
                f"{', '.join(EXECUTORS)}"
            )
        if self.run_cache and not self.cache:
            raise ValueError(
                "run_cache requires cache=True: with memoization "
                "disabled the persistent store would never be read "
                "or written"
            )
        if self.run_cache_max_entries is not None \
                and self.run_cache_max_entries < 1:
            raise ValueError("run_cache_max_entries must be >= 1")
        if self.run_cache_max_entries is not None and not self.run_cache:
            raise ValueError(
                "run_cache_max_entries requires run_cache: there is "
                "no persistent store to bound"
            )
        if self.run_cache_ttl_s is not None and self.run_cache_ttl_s <= 0:
            raise ValueError("run_cache_ttl_s must be positive")
        if self.run_cache_ttl_s is not None and not self.run_cache:
            raise ValueError(
                "run_cache_ttl_s requires run_cache: there is no "
                "persistent store to age out"
            )
        # FaultPolicy validates the fault knobs (ranges, mode names);
        # building it here surfaces bad values at config time instead
        # of mid-campaign.
        self.fault_policy()


@dataclasses.dataclass
class _FeatureProbe:
    """Mutable working state for one feature during the analysis."""

    feature: str
    traced_count: int
    can_stub: bool = False
    can_fake: bool = False
    #: A probe side is *undecided* when its replicas faulted (timed
    #: out, crashed their worker, ...) without one genuine observed
    #: failure — the capability is withheld for lack of evidence, not
    #: because the workload was seen to break.
    undecided_stub: bool = False
    undecided_fake: bool = False
    stub_impact: ImpactSummary | None = None
    fake_impact: ImpactSummary | None = None
    notes: list[str] = dataclasses.field(default_factory=list)
    faults: list[ProbeFault] = dataclasses.field(default_factory=list)

    def to_report(self) -> FeatureReport:
        return FeatureReport(
            feature=self.feature,
            traced_count=self.traced_count,
            decision=Decision(
                can_stub=self.can_stub,
                can_fake=self.can_fake,
                undecided=self.undecided_stub or self.undecided_fake,
            ),
            stub_impact=self.stub_impact,
            fake_impact=self.fake_impact,
            notes=tuple(self.notes),
        )


class Analyzer:
    """Drives the full Loupe analysis for one (app, workload) pair.

    Analyzers context-manage their engine: ``with Analyzer(...) as
    analyzer`` (or an explicit :meth:`close`) releases analyzer-owned
    resources (run-cache stores) deterministically; the probe worker
    pools themselves are process-wide and shared across analyzers
    (:func:`repro.core.engine.shutdown_worker_pools` reclaims them).
    """

    def __init__(
        self,
        config: AnalyzerConfig | None = None,
        *,
        store: "RunCacheBackend | None" = None,
    ) -> None:
        self.config = config or AnalyzerConfig()
        if not self.config.cache:
            # cache=False measures raw run cost; an *injected* store
            # (session infrastructure, not this config's request) is
            # simply benched along with the LRU. A config asking for
            # both was already rejected in AnalyzerConfig.
            store = None
        #: Store this analyzer built (and therefore owns and closes)
        #: from ``config.run_cache`` — as opposed to an injected one,
        #: whose lifetime belongs to the caller (the session).
        self._owned_store: "RunCacheBackend | None" = None
        if store is None and self.config.run_cache:
            store = self._owned_store = open_store(
                self.config.run_cache,
                max_entries=self.config.run_cache_max_entries,
                ttl_s=self.config.run_cache_ttl_s,
            )
        #: The probe scheduler every run of this analyzer goes through.
        #: Its LRU and statistics are reset at the start of each
        #: :meth:`analyze` call, so ``engine.stats`` after a call
        #: describes exactly that analysis; the persistent *store*
        #: (when configured) deliberately survives across analyses.
        self.engine = ProbeEngine(
            parallel=self.config.parallel,
            cache=self.config.cache,
            executor=self.config.executor,
            store=store,
            fault_policy=self.config.fault_policy(),
        )
        #: Populated by :meth:`analyze` when priors are configured.
        self.last_transfer_stats: "object | None" = None

    def close(self) -> None:
        """Release any run-cache store this analyzer created itself
        (idempotent). The engine's worker pools are process-wide and
        survive for other analyzers;
        :func:`repro.core.engine.shutdown_worker_pools` reclaims
        them."""
        self.engine.close()
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "Analyzer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        policy: InterpositionPolicy,
        replicas: int,
    ) -> ProbeOutcome:
        return self.engine.run_replicas(
            backend, workload, policy, replicas,
            early_exit=self.config.early_exit,
        )

    # -- public entry point ------------------------------------------------

    def analyze(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        *,
        app: str = "",
        app_version: str = "",
        on_event: EventCallback | None = None,
    ) -> AnalysisResult:
        """Run the complete analysis and return the result record.

        Progress surfaces on ``on_event`` as the typed events of
        :mod:`repro.api.events`.
        """
        # Events are built, and tagged with their app, only for a
        # listener: ``emit`` is None for an analysis nobody listens to.
        emit = tag_app(on_event, app or workload.name) if on_event else None
        try:
            return self._analyze(
                backend, workload,
                app=app, app_version=app_version, emit=emit,
            )
        finally:
            # Mark the engine's lifecycle point; the shared worker
            # pools stay up for the process's other engines. Stats
            # survive, so ``engine.stats`` still describes the
            # finished run.
            self.engine.notice_sink = None
            self.engine.close()

    def _analyze(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        *,
        app: str,
        app_version: str,
        emit: EventCallback | None,
    ) -> AnalysisResult:
        config = self.config
        identity = app or workload.name
        started = time.monotonic()

        def checkpoint() -> None:
            """Poll the cooperative cancellation hook (no-op without
            one). On a truthy answer the campaign stops *here*: the
            accounting so far is flushed as a final ``engine_stats``
            event, a terminal ``analysis_cancelled`` event closes the
            stream, and the error carries the same stats snapshot. A
            string answer names the reason (``"signal"`` for the
            CLI's SIGINT hook); any other truthy value reads as a
            plain ``"cancelled"``.
            """
            if config.cancel_check is None:
                return
            verdict = config.cancel_check()
            if not verdict:
                return
            reason = verdict if isinstance(verdict, str) else "cancelled"
            stats = self.engine.stats
            if emit is not None:
                emit(EngineStatsEvent.from_stats(
                    stats, executor=self.engine.mode_for(backend)
                ))
                emit(AnalysisCancelled(
                    duration_s=time.monotonic() - started, reason=reason
                ))
            raise AnalysisCancelledError(identity, stats=stats)

        # One analysis == one application build: drop run results (and
        # accounting) from any prior analyze() call so identically-named
        # backends of different programs can never cross-contaminate.
        self.engine.reset()
        # Surface engine-level fault-handling moments (retries,
        # quarantines, pool rebuilds) on the event stream. The sink is
        # detached in analyze()'s finally so a dangling emit can never
        # outlive its campaign.
        if emit is not None:
            self.engine.notice_sink = lambda notice: _emit_notice(emit, notice)
        # A config asking for observations the backend's contract says
        # it cannot produce deserves a signal, not silent empty sets.
        # Only *explicit* contracts are trusted to mean "no": a
        # backend with no capabilities() expresses no supports_*
        # flags, so it gets the benefit of the doubt (its
        # runs may well report pseudo-files — collection reads run
        # results unconditionally either way).
        if getattr(backend, "capabilities", None) is not None:
            capabilities = self.engine.capabilities_for(backend)
            for wanted, supported, mode in (
                (config.pseudo_files, capabilities.supports_pseudo_files,
                 "pseudo-file"),
                (config.subfeature_level,
                 capabilities.supports_subfeatures, "sub-feature"),
            ):
                if wanted and not supported:
                    warnings.warn(
                        f"{mode} analysis requested, but backend "
                        f"{backend_name(backend)} does not declare "
                        f"support for it; expect no such observations",
                        UserWarning,
                        stacklevel=3,
                    )

        if emit is not None:
            emit(AnalysisStarted(
                app=identity,
                workload=workload.name,
                backend=backend_name(backend),
                replicas=config.replicas,
            ))
        checkpoint()
        if emit is not None:
            emit(BaselineStarted(replicas=config.replicas))
        # The baseline never early-exits: on failure the error below
        # reports every replica's reason (and success runs them all
        # anyway), matching the pre-engine diagnostics.
        baseline = self.engine.run_replicas(
            backend, workload, passthrough(), config.replicas,
            early_exit=False,
        )
        if not baseline.all_succeeded:
            # A faulted baseline (timeouts, dead workers) is just as
            # disqualifying as a failed one — without a trustworthy
            # passthrough run nothing downstream is meaningful, even
            # under on_fault="degrade".
            parts = list(baseline.failure_reasons())
            parts.extend(fault.describe() for fault in baseline.faults)
            reasons = "; ".join(parts) or "unknown"
            raise AnalysisError(
                f"application fails the workload even without interposition: {reasons}"
            )
        # Summarized once: every probe's impact is measured against it.
        baseline_stats = BaselineStats(
            metric=SampleStats.of(baseline.metric_samples),
            fd=SampleStats.of(baseline.fd_samples),
            mem=SampleStats.of(baseline.mem_samples),
        )

        features = self._enumerate_features(baseline)
        if emit is not None:
            emit(FeaturesEnumerated(
                count=len(features), features=tuple(sorted(features))
            ))

        transfer_stats = None
        if config.priors is not None:
            from repro.core.transfer import TransferStats

            transfer_stats = TransferStats(features_total=len(features))
        self.last_transfer_stats = transfer_stats

        ordered = sorted(features.items())
        checkpoint()
        if config.priors is None:
            probes = self._probe_features_batched(
                backend, workload, ordered, baseline_stats, emit,
                checkpoint=checkpoint,
            )
        else:
            # The transfer fast path decides each feature's run count
            # from its prediction's outcome, so prior-guided probing
            # stays feature-at-a-time (and polls per feature — each
            # feature is its own wave here).
            probes = {}
            for feature, count in ordered:
                checkpoint()
                probes[feature] = self._probe_feature(
                    backend, workload, feature, count, baseline_stats, emit,
                    transfer_stats,
                )

        final_ok, conflicts, combined_faults = self._confirm_combined(
            backend, workload, probes, emit, checkpoint=checkpoint
        )

        # Quarantine list: probe-phase faults in deterministic feature
        # order, then the combined/bisection phase's. The summary event
        # is emitted only when non-empty, keeping fault-free campaigns'
        # event streams byte-identical to the pre-fault ones.
        faults: list[ProbeFault] = []
        for probe in probes.values():
            faults.extend(probe.faults)
        faults.extend(combined_faults)
        if faults and emit is not None:
            kinds: dict[str, int] = {}
            for fault in faults:
                kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
            emit(FaultsSummary(
                total=len(faults),
                kinds=kinds,
                faults=tuple(fault.to_dict() for fault in faults),
            ))

        if emit is not None:
            emit(EngineStatsEvent.from_stats(
                # mode_for, not executor_name: what this backend's runs
                # got after capability fallback (ptrace under
                # --executor process still says "serial").
                self.engine.stats, executor=self.engine.mode_for(backend)
            ))
            emit(AnalysisFinished(duration_s=time.monotonic() - started))
        return AnalysisResult(
            app=identity,
            app_version=app_version,
            workload=workload.name,
            workload_kind=workload.kind,
            backend=backend_name(backend),
            replicas=config.replicas,
            features={name: probe.to_report() for name, probe in probes.items()},
            baseline=baseline_stats,
            final_run_ok=final_ok,
            conflicts=conflicts,
            faults=tuple(faults),
        )

    # -- stage 1: enumeration ----------------------------------------------

    def _enumerate_features(self, baseline: ProbeOutcome) -> dict[str, int]:
        """Feature -> invocation count, united over baseline replicas."""
        union = baseline.union_traced()
        features: dict[str, int] = {}
        level = self.config.subfeature_level
        wanted = set()
        for result in baseline.results:
            wanted |= result.features(subfeature_level=level)
        for feature in wanted:
            if feature.startswith("/"):
                continue  # pseudo-files handled below
            features[feature] = union.get(feature, 1)
        if self.config.pseudo_files:
            for path, count in baseline.union_pseudofiles().items():
                features[path] = count
        return features

    # -- stage 2: per-feature probing ---------------------------------------

    def _apply_verdict(
        self,
        probe: _FeatureProbe,
        attribute: str,
        outcome: ProbeOutcome,
        baseline: BaselineStats,
        workload: Workload,
    ) -> None:
        """Fold one probe outcome into the feature's stub/fake verdict.

        Shared by the batched and feature-at-a-time paths so both
        apply the identical decision and note wording.
        """
        probe.faults.extend(outcome.faults)
        if outcome.undecided:
            # Replicas faulted without one genuine failure: withhold
            # the capability for lack of evidence and mark the side
            # undecided instead of pretending the workload broke.
            kinds = ", ".join(sorted({f.kind for f in outcome.faults}))
            probe.notes.append(
                f"{attribute} probe undecided: "
                f"{len(outcome.faults)} replica(s) faulted ({kinds}) "
                f"with no observed failure"
            )
            if attribute == "stub":
                probe.can_stub = False
                probe.undecided_stub = True
                probe.stub_impact = None
            else:
                probe.can_fake = False
                probe.undecided_fake = True
                probe.fake_impact = None
            return
        ok = outcome.all_succeeded
        impact = None
        if ok and self.config.guard_metrics:
            impact = self._impact(baseline, outcome, workload)
            if not impact.clean:
                probe.notes.append(
                    f"{attribute}bing shifts metrics: {impact.describe()}"
                )
                if self.config.strict_metrics:
                    ok = False
        if attribute == "stub":
            probe.can_stub = ok
            probe.stub_impact = impact
        else:
            probe.can_fake = ok
            probe.fake_impact = impact

    def _probe_features_batched(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        ordered: Sequence[tuple[str, int]],
        baseline: BaselineStats,
        emit: EventCallback | None,
        *,
        checkpoint: Callable[[], None] = lambda: None,
    ) -> dict[str, _FeatureProbe]:
        """Probe the features in batched waves of engine submissions.

        All ``(feature, action, replica)`` runs of a wave enter the
        engine at once, keeping a parallel pool saturated across
        feature boundaries; outcomes are folded back strictly in
        feature order, so reports and event ordering are
        byte-identical to the feature-at-a-time loop. The wave size
        bounds progress *liveness*: ``FeatureProbed`` events fire at
        wave ends, and when the backend executes serially anyway
        (``parallel=1``, or a non-parallel-safe backend such as
        ptrace, where runs are slowest and progress matters most) the
        wave shrinks to a single feature — the exact historical
        streaming.
        """
        if self.engine.mode_for(backend) == "serial":
            wave = 1
        else:
            # Chunked IPC makes wave boundaries costly — trade some
            # event granularity for keeping the workers fed.
            wave = max(32, 8 * self.engine.parallel)
        actions = (Action.STUB, Action.FAKE)
        base = passthrough()
        probes: dict[str, _FeatureProbe] = {}
        for start in range(0, len(ordered), wave):
            if start:
                # Cooperative cancellation stops within one wave: the
                # wave in flight completes (its outcomes fold into the
                # stats), the next never starts. The entry checkpoint
                # already covered start == 0.
                checkpoint()
            subset = ordered[start:start + wave]
            policies = [
                base.with_feature(feature, action)
                for feature, _count in subset
                for action in actions
            ]
            outcomes = iter(self.engine.run_probe_batch(
                backend, workload, policies, self.config.replicas,
                early_exit=self.config.early_exit,
            ))
            for feature, count in subset:
                probe = _FeatureProbe(feature=feature, traced_count=count)
                for attribute in ("stub", "fake"):
                    self._apply_verdict(
                        probe, attribute, next(outcomes), baseline, workload
                    )
                if emit is not None:
                    emit(FeatureProbed(
                        feature=feature,
                        can_stub=probe.can_stub,
                        can_fake=probe.can_fake,
                        traced_count=count,
                    ))
                probes[feature] = probe
        return probes

    def _probe_feature(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        feature: str,
        traced_count: int,
        baseline: BaselineStats,
        emit: EventCallback | None,
        transfer_stats: "object | None" = None,
    ) -> _FeatureProbe:
        probe = _FeatureProbe(feature=feature, traced_count=traced_count)
        prediction = None
        if self.config.priors is not None:
            prediction = self.config.priors.predict(feature)  # type: ignore[attr-defined]

        fast_pathed = prediction is not None
        for action, attribute in ((Action.STUB, "stub"), (Action.FAKE, "fake")):
            policy = passthrough().with_feature(feature, action)
            predicted = (
                getattr(prediction, f"can_{attribute}")
                if prediction is not None
                else None
            )
            if predicted is not None and self.config.replicas > 1:
                # Transfer fast path: one confirmation run; the full
                # probe only on disagreement (Section 6 future work).
                confirmation = self._run(backend, workload, policy, 1)
                if confirmation.all_succeeded == predicted:
                    outcome = confirmation
                    if transfer_stats is not None:
                        transfer_stats.runs_saved += self.config.replicas - 1
                else:
                    fast_pathed = False
                    if transfer_stats is not None:
                        transfer_stats.fallbacks += 1
                    outcome = self._run(
                        backend, workload, policy, self.config.replicas
                    )
            else:
                outcome = self._run(
                    backend, workload, policy, self.config.replicas
                )
            self._apply_verdict(probe, attribute, outcome, baseline, workload)
        if fast_pathed and transfer_stats is not None:
            transfer_stats.features_fast_pathed += 1
        if emit is not None:
            emit(FeatureProbed(
                feature=feature,
                can_stub=probe.can_stub,
                can_fake=probe.can_fake,
                traced_count=traced_count,
            ))
        return probe

    def _impact(
        self, baseline: BaselineStats, variant: ProbeOutcome, workload: Workload
    ) -> ImpactSummary:
        margin = self.config.metric_margin
        perf = None
        if workload.measures_performance and variant.metric_samples:
            perf = compare(
                baseline.metric, variant.metric_samples, margin=margin
            )
        fd = compare(baseline.fd, variant.fd_samples, margin=margin)
        mem = compare(baseline.mem, variant.mem_samples, margin=margin)
        return ImpactSummary(perf=perf, fd=fd, mem=mem)

    # -- stage 3 & 4: combined confirmation + automated bisection ------------

    def _combined_policy(
        self, probes: dict[str, _FeatureProbe]
    ) -> InterpositionPolicy:
        stubs = [f for f, p in probes.items() if p.can_stub]
        fakes = [f for f, p in probes.items() if p.can_fake and not p.can_stub]
        return combined(stubs=stubs, fakes=fakes)

    def _confirm_combined(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        probes: dict[str, _FeatureProbe],
        emit: EventCallback | None,
        *,
        checkpoint: Callable[[], None] = lambda: None,
    ) -> tuple[bool, tuple[tuple[str, ...], ...], tuple[ProbeFault, ...]]:
        all_conflicts: list[tuple[str, ...]] = []
        faults: list[ProbeFault] = []
        for round_index in range(self.config.max_demotion_rounds):
            checkpoint()
            policy = self._combined_policy(probes)
            avoided = sorted(policy.altered_features())
            if not avoided:
                if emit is not None:
                    emit(CombinedRunFinished(
                        ok=True, avoided=0, round=round_index + 1
                    ))
                return True, tuple(all_conflicts), tuple(faults)
            outcome = self._run(backend, workload, policy, self.config.replicas)
            faults.extend(outcome.faults)
            if emit is not None:
                emit(CombinedRunFinished(
                    ok=outcome.all_succeeded, avoided=len(avoided),
                    round=round_index + 1,
                ))
            if outcome.all_succeeded:
                return True, tuple(all_conflicts), tuple(faults)
            if outcome.undecided:
                # The combined run faulted without a genuine failure:
                # there is no observed conflict to bisect, and ddmin on
                # faulting runs would demote features on noise. Report
                # the confirmation as not-ok and stop here.
                return False, tuple(all_conflicts), tuple(faults)
            if not self.config.bisect_conflicts:
                return False, tuple(all_conflicts), tuple(faults)
            conflict = self._minimize_conflict(
                backend, workload, probes, avoided, faults
            )
            if not conflict:
                return False, tuple(all_conflicts), tuple(faults)
            if emit is not None:
                emit(ConflictBisected(round=round_index + 1, conflict=conflict))
            all_conflicts.append(conflict)
            for feature in conflict:
                probe = probes[feature]
                probe.can_stub = False
                probe.can_fake = False
                probe.notes.append(
                    "demoted to required: feature interacts badly with the "
                    "combined stub/fake set (found by automated bisection)"
                )
        return False, tuple(all_conflicts), tuple(faults)

    def _minimize_conflict(
        self,
        backend: ExecutionBackend,
        workload: Workload,
        probes: dict[str, _FeatureProbe],
        avoided: Sequence[str],
        faults: "list[ProbeFault] | None" = None,
    ) -> tuple[str, ...]:
        """ddmin-style minimization of a failing avoided-feature set.

        Returns a (small) subset of *avoided* whose combined application
        still fails the workload; empty when the failure cannot be
        reproduced on any subset (flaky run).
        """

        def fails(subset: Sequence[str]) -> bool:
            if not subset:
                return False
            stubs = [f for f in subset if probes[f].can_stub]
            fakes = [f for f in subset if probes[f].can_fake and not probes[f].can_stub]
            policy = combined(stubs=stubs, fakes=fakes)
            outcome = self._run(backend, workload, policy, 1)
            if faults is not None:
                faults.extend(outcome.faults)
            # An undecided (all-faults, no genuine failure) run must
            # not count as a reproduction — ddmin would otherwise
            # demote features on infrastructure noise.
            return not outcome.all_succeeded and not outcome.undecided

        candidate = list(avoided)
        if not fails(candidate):
            return ()
        granularity = 2
        while len(candidate) >= 2:
            chunk = max(1, len(candidate) // granularity)
            reduced = False
            for start in range(0, len(candidate), chunk):
                complement = candidate[:start] + candidate[start + chunk:]
                if complement and fails(complement):
                    candidate = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(candidate):
                    break
                granularity = min(len(candidate), granularity * 2)
        return tuple(candidate)


def _emit_notice(emit: EventCallback, notice: object) -> None:
    """Adapt an engine fault notice to its typed event.

    The engine lives below the event layer (the api package imports
    core), so it reports fault-handling moments as plain notice
    dataclasses; this is the one place they become events.
    """
    if isinstance(notice, RetryNotice):
        emit(ProbeRetry(
            workload=notice.workload,
            probe=notice.probe,
            replica=notice.replica,
            attempt=notice.attempt,
            fault=notice.kind,
            detail=notice.detail,
        ))
    elif isinstance(notice, FaultNotice):
        fault = notice.fault
        emit(ProbeFaulted(
            workload=fault.workload,
            probe=fault.probe,
            replica=fault.replica,
            fault=fault.kind,
            attempts=fault.attempts,
            detail=fault.detail,
        ))
    elif isinstance(notice, PoolRecoveredNotice):
        emit(PoolRecovered(
            lost_runs=notice.lost_runs, rebuilds=notice.rebuilds
        ))


def analyze(
    backend: ExecutionBackend,
    workload: Workload,
    *,
    config: AnalyzerConfig | None = None,
    app: str = "",
    app_version: str = "",
) -> AnalysisResult:
    """Convenience wrapper: run a full analysis with default config."""
    return Analyzer(config).analyze(
        backend, workload, app=app, app_version=app_version
    )


def estimated_runtime_s(
    workload_runtime_s: float,
    distinct_features: int,
    replicas: int = 3,
    parallel: int = 1,
) -> float:
    """The paper's run-time model: ``(2 + 2·t·s) · ceil(r/p)`` (Section 3.3).

    ``2 +`` covers the discovery and confirmation runs; ``2·`` the stub
    and fake probe per feature.
    """
    serial = 2 * workload_runtime_s + 2 * workload_runtime_s * distinct_features
    return serial * math.ceil(replicas / max(parallel, 1))
