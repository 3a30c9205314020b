"""Replica orchestration: repeated runs and conservative aggregation.

Loupe replicates every analysis (3x by default) "to maximize the
reliability and reproducibility of the results" (Section 3.1). This
module runs the replicas and condenses them into a
:class:`ProbeOutcome`: success only if *all* replicas succeeded, plus
the metric/resource samples the impact analysis needs.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Sequence

from repro.core.faults import ProbeFault
from repro.core.policy import InterpositionPolicy
from repro.core.runner import ExecutionBackend, RunResult
from repro.core.workload import Workload


@dataclasses.dataclass(frozen=True)
class ProbeOutcome:
    """Condensed view of N replicated runs under one policy.

    ``faults`` lists the replicas the fault policy quarantined
    (timeouts, worker crashes, ...): those produced no
    :class:`RunResult` at all. A fault is weaker evidence than a
    failure — see :func:`aggregate` for how the two combine.
    """

    results: tuple[RunResult, ...]
    all_succeeded: bool
    metric_samples: tuple[float, ...]
    fd_samples: tuple[float, ...]
    mem_samples: tuple[float, ...]
    faults: tuple[ProbeFault, ...] = ()

    @property
    def replica_count(self) -> int:
        return len(self.results)

    @property
    def undecided(self) -> bool:
        """No verdict is honest: replicas faulted, none decidedly failed.

        A genuine observed failure *decides* the probe (the
        conservative merge needs only one), faults or not. But when
        every observed replica succeeded and at least one replica
        faulted, neither "works" nor "breaks" is supported by the
        evidence — the probe is undecided and callers must not treat
        ``all_succeeded == False`` as a decided failure.
        """
        return bool(self.faults) and all(r.success for r in self.results)

    def union_traced(self) -> Counter:
        """Invocation counts united across replicas (max per feature).

        Taking the max rather than the sum keeps counts comparable with
        a single run while still being conservative about which
        features were seen (any replica seeing a feature counts).
        """
        union: Counter = Counter()
        for result in self.results:
            for feature, count in result.traced.items():
                union[feature] = max(union[feature], count)
        return union

    def union_pseudofiles(self) -> Counter:
        union: Counter = Counter()
        for result in self.results:
            for path, count in result.pseudo_files.items():
                union[path] = max(union[path], count)
        return union

    def failure_reasons(self) -> tuple[str, ...]:
        return tuple(
            r.failure_reason for r in self.results
            if not r.success and r.failure_reason
        )


def aggregate(
    results: Sequence[RunResult],
    *,
    faults: Sequence[ProbeFault] = (),
) -> ProbeOutcome:
    """Condense already-executed runs into a :class:`ProbeOutcome`.

    Shared by the serial :func:`run_replicas` loop and the parallel
    :class:`~repro.core.engine.ProbeEngine` scheduler, so both paths
    apply the identical conservative merge.

    Quarantined replicas arrive as *faults*: they weaken the outcome
    (``all_succeeded`` requires every replica to have actually
    succeeded, so any fault forfeits it) but do not decide it — an
    observed genuine failure dominates, and with faults-but-no-failure
    the outcome is :attr:`ProbeOutcome.undecided`. An outcome may be
    all faults and no results; zero of both is still an error.
    """
    results = tuple(results)
    faults = tuple(faults)
    if not results and not faults:
        raise ValueError("cannot aggregate zero runs")
    return ProbeOutcome(
        results=results,
        all_succeeded=bool(results)
        and not faults
        and all(r.success for r in results),
        metric_samples=tuple([r.metric for r in results if r.metric is not None]),
        fd_samples=tuple([float(r.resources.fd_peak) for r in results]),
        mem_samples=tuple([float(r.resources.mem_peak_kb) for r in results]),
        faults=faults,
    )


def run_replicas(
    backend: ExecutionBackend,
    workload: Workload,
    policy: InterpositionPolicy,
    replicas: int,
    *,
    early_exit: bool = True,
) -> ProbeOutcome:
    """Run up to *replicas* independent executions and aggregate them.

    Replica indices seed run-to-run variation in backends that model
    noise; real backends simply rerun the application. The outcome's
    ``all_succeeded`` implements the conservative merge: one failing
    replica disqualifies the probed technique.

    Behavior change vs. the original serial loop: with ``early_exit``
    (now the default) replication stops at the first failed replica —
    one failure already decides ``all_succeeded``, and metric/resource
    samples are only consumed by the impact analysis when every replica
    succeeded, so the abandoned replicas could never influence the
    analysis. Pass ``early_exit=False`` to force the historical
    run-everything behavior (e.g. to collect failure reasons from every
    replica). For pool-parallel execution and run-result caching, use
    :class:`repro.core.engine.ProbeEngine` instead.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    results: list[RunResult] = []
    for index in range(replicas):
        result = backend.run(workload, policy, replica=index)
        results.append(result)
        if early_exit and not result.success:
            break
    return aggregate(results)
