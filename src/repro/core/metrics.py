"""Statistics for performance and resource-usage guarding (Section 5.3).

Loupe's test scripts return a scalar metric (requests/s, throughput...)
and Loupe samples resource usage via ``/proc``. When probing a stub or
fake, the analyzer must decide whether the observed change is real or
noise. The paper reports impacts "outside of the error margin (>3%)";
we implement that rule backed by a Welch t-test so a 4% swing in a
noisy metric is not mistaken for a regression.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

#: Relative change below which an impact is never reported (paper: 3%).
DEFAULT_MARGIN = 0.03

#: Two-sided critical value of the normal approximation at alpha=0.05.
_Z_CRITICAL = 1.96


@dataclasses.dataclass(frozen=True)
class SampleStats:
    """Summary statistics of replicated measurements."""

    n: int
    mean: float
    std: float

    @staticmethod
    def of(samples: Sequence[float]) -> "SampleStats":
        if not samples:
            return SampleStats(n=0, mean=0.0, std=0.0)
        n = len(samples)
        mean = sum(samples) / n
        if n == 1:
            return SampleStats(n=1, mean=mean, std=0.0)
        variance = sum([(x - mean) ** 2 for x in samples]) / (n - 1)
        return SampleStats(n=n, mean=mean, std=math.sqrt(variance))

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n <= 1:
            return 0.0
        return self.std / math.sqrt(self.n)


def welch_statistic(a: SampleStats, b: SampleStats) -> float:
    """Welch's t statistic between two sample summaries.

    Returns ``inf`` when both variances are zero but the means differ
    (a deterministic change is infinitely significant) and 0.0 when the
    means coincide.
    """
    if a.n == 0 or b.n == 0:
        return 0.0
    denom = math.sqrt(a.sem**2 + b.sem**2)
    diff = b.mean - a.mean
    if denom == 0.0:
        return math.inf if diff != 0.0 else 0.0
    return diff / denom


def relative_delta(baseline: float, variant: float) -> float:
    """Relative change of *variant* vs *baseline* (0.0 for zero baseline)."""
    if baseline == 0.0:
        return 0.0
    return (variant - baseline) / baseline


@dataclasses.dataclass(frozen=True)
class MetricComparison:
    """Decision on whether a variant's metric differs from baseline."""

    baseline: SampleStats
    variant: SampleStats
    delta: float            # relative change of the mean
    significant: bool       # beyond margin AND statistically distinguishable

    @property
    def direction(self) -> str:
        if not self.significant:
            return "none"
        return "increase" if self.delta > 0 else "decrease"


def compare(
    baseline_samples: "Sequence[float] | SampleStats",
    variant_samples: Sequence[float],
    *,
    margin: float = DEFAULT_MARGIN,
) -> MetricComparison:
    """Compare replicated measurements against the passthrough baseline.

    A change is *significant* when the relative mean shift exceeds
    *margin* and Welch's statistic rejects equality (normal
    approximation; exact for the deterministic simulator, conservative
    for small real-world replica counts). The baseline may come
    summarized: an analysis summarizes it once for all its probes.
    """
    base = (
        baseline_samples if isinstance(baseline_samples, SampleStats)
        else SampleStats.of(baseline_samples)
    )
    var = SampleStats.of(variant_samples)
    delta = relative_delta(base.mean, var.mean)
    beyond_margin = abs(delta) > margin
    statistically = abs(welch_statistic(base, var)) > _Z_CRITICAL
    return MetricComparison(
        baseline=base,
        variant=var,
        delta=delta,
        significant=beyond_margin and statistically,
    )


@dataclasses.dataclass(frozen=True)
class ImpactSummary:
    """Aggregate impact of stubbing or faking one feature (Table 2 row).

    ``perf``/``fd``/``mem`` are ``None`` when the dimension was not
    measured (e.g. a health check has no performance metric).
    """

    perf: MetricComparison | None = None
    fd: MetricComparison | None = None
    mem: MetricComparison | None = None

    @property
    def flags(self) -> frozenset[str]:
        """Which dimensions changed significantly."""
        flagged = set()
        if self.perf is not None and self.perf.significant:
            flagged.add("perf")
        if self.fd is not None and self.fd.significant:
            flagged.add("fd")
        if self.mem is not None and self.mem.significant:
            flagged.add("mem")
        return frozenset(flagged)

    @property
    def clean(self) -> bool:
        """True when no metric moved outside the error margin."""
        return not self.flags

    def describe(self) -> str:
        """Table 2-style cell text, e.g. ``perf -38%, mem +17%``."""
        parts = []
        for label, comparison in (("perf", self.perf), ("fd", self.fd), ("mem", self.mem)):
            if comparison is not None and comparison.significant:
                parts.append(f"{label} {comparison.delta:+.0%}")
        return ", ".join(parts) if parts else "-"
