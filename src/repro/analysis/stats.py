"""Statistics over campaign results.

Two questions recur when intrusion injection is used for assessment:

* *is version A's handling of injected states significantly better
  than version B's?* — answered with Fisher's exact test over the
  handled/violated contingency table;
* *how confident are we in a fuzz campaign's outcome rates?* —
  answered with bootstrap confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.report import VersionSummary, summarize_by_version
from repro.core.campaign import RunResult
from repro.core.fuzz import FuzzReport


@dataclass
class HandlingComparison:
    """Fisher's exact test between two versions' handling outcomes."""

    version_a: str
    version_b: str
    handled_a: int
    violated_a: int
    handled_b: int
    violated_b: int
    odds_ratio: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def render(self) -> str:
        return (
            f"Xen {self.version_a} handled {self.handled_a}/"
            f"{self.handled_a + self.violated_a} vs Xen {self.version_b} "
            f"{self.handled_b}/{self.handled_b + self.violated_b} "
            f"(Fisher p={self.p_value:.3f}"
            f"{', significant' if self.significant else ''})"
        )


def compare_handling(
    results: Sequence[RunResult], version_a: str, version_b: str
) -> HandlingComparison:
    """Compare two versions' injected-state handling (RQ3 with a
    p-value).  With only four use cases per version the test is
    underpowered — which is itself useful to report — but campaigns
    with many IMs produce meaningful contrasts."""
    # scipy costs ~1 s and ~65 MB to import; every CLI start and pool
    # worker reaches this module, but only this function needs it.
    from scipy import stats as scipy_stats

    summaries = summarize_by_version(results)
    a = summaries.get(version_a, VersionSummary(version=version_a))
    b = summaries.get(version_b, VersionSummary(version=version_b))
    table = [[a.handled, a.violated], [b.handled, b.violated]]
    odds_ratio, p_value = scipy_stats.fisher_exact(table)
    return HandlingComparison(
        version_a=version_a,
        version_b=version_b,
        handled_a=a.handled,
        violated_a=a.violated,
        handled_b=b.handled,
        violated_b=b.violated,
        odds_ratio=float(odds_ratio) if math.isfinite(odds_ratio) else float("inf"),
        p_value=float(p_value),
    )


@dataclass
class RateInterval:
    """A bootstrap confidence interval for an outcome rate."""

    component: str
    outcome: str
    rate: float
    low: float
    high: float

    def render(self) -> str:
        return (
            f"{self.component}: P[{self.outcome}] = {self.rate:.2f} "
            f"(95% CI {self.low:.2f}..{self.high:.2f})"
        )


def bootstrap_rate(
    report: FuzzReport,
    component: str,
    outcome: str,
    n_boot: int = 2000,
    seed: int = 7,
) -> RateInterval:
    """Bootstrap CI for one component's outcome rate in a fuzz run."""
    hits = [r for r in report.results if r.component == component]
    if not hits:
        return RateInterval(component, outcome, 0.0, 0.0, 0.0)
    indicator = np.array([1.0 if r.outcome == outcome else 0.0 for r in hits])
    rng = np.random.default_rng(seed)
    samples = rng.choice(indicator, size=(n_boot, indicator.size), replace=True)
    means = samples.mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return RateInterval(
        component=component,
        outcome=outcome,
        rate=float(indicator.mean()),
        low=float(low),
        high=float(high),
    )


def handling_scores(results: Sequence[RunResult]) -> Dict[str, float]:
    """Per-version handling rate (RQ3's simple indicator)."""
    return {
        version: summary.handling_rate
        for version, summary in summarize_by_version(results).items()
    }
