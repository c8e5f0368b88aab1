"""Tests for the statistics module."""

import os
import subprocess
import sys

import pytest

from repro.analysis.stats import bootstrap_rate, compare_handling, handling_scores
from repro.core.campaign import Campaign, Mode
from repro.core.fuzz import FuzzReport, FuzzResult
from repro.exploits import USE_CASES
from repro.xen.versions import XEN_4_8, XEN_4_13


@pytest.fixture(scope="module")
def injection_results():
    campaign = Campaign()
    return campaign.run_matrix(USE_CASES, [XEN_4_8, XEN_4_13], [Mode.INJECTION])


class TestHandlingComparison:
    def test_counts_from_table3(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert comparison.handled_a == 2
        assert comparison.violated_a == 2
        assert comparison.handled_b == 0
        assert comparison.violated_b == 4

    def test_p_value_in_range(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert 0.0 <= comparison.p_value <= 1.0

    def test_four_samples_not_significant(self, injection_results):
        """With only four use cases, the paper's contrast cannot reach
        significance — worth stating explicitly."""
        comparison = compare_handling(injection_results, "4.13", "4.8")
        assert not comparison.significant

    def test_render(self, injection_results):
        text = compare_handling(injection_results, "4.13", "4.8").render()
        assert "handled 2/4" in text
        assert "Fisher" in text

    def test_missing_version_treated_empty(self, injection_results):
        comparison = compare_handling(injection_results, "4.13", "9.9")
        assert comparison.handled_b == 0
        assert comparison.violated_b == 0

    def test_identical_versions_p_one(self, injection_results):
        comparison = compare_handling(injection_results, "4.8", "4.8")
        assert comparison.p_value == pytest.approx(1.0)


class TestHandlingScores:
    def test_scores_match_table3(self, injection_results):
        scores = handling_scores(injection_results)
        assert scores["4.8"] == 0.0
        assert scores["4.13"] == 0.5


class TestBootstrap:
    def _report(self, outcomes):
        return FuzzReport(
            version="t",
            results=[FuzzResult("c", 0, 0, 0, o) for o in outcomes],
        )

    def test_point_estimate(self):
        report = self._report(["crash"] * 3 + ["latent"] * 7)
        interval = bootstrap_rate(report, "c", "crash")
        assert interval.rate == pytest.approx(0.3)

    def test_ci_brackets_rate(self):
        report = self._report(["crash"] * 5 + ["latent"] * 15)
        interval = bootstrap_rate(report, "c", "crash")
        assert interval.low <= interval.rate <= interval.high
        assert 0.0 <= interval.low and interval.high <= 1.0

    def test_degenerate_all_same(self):
        report = self._report(["latent"] * 10)
        interval = bootstrap_rate(report, "c", "latent")
        assert interval.rate == 1.0
        assert interval.low == 1.0 and interval.high == 1.0

    def test_empty_component(self):
        report = self._report([])
        interval = bootstrap_rate(report, "missing", "crash")
        assert interval.rate == 0.0

    def test_render(self):
        report = self._report(["crash", "latent"])
        assert "P[crash]" in bootstrap_rate(report, "c", "crash").render()

    def test_deterministic_seed(self):
        report = self._report(["crash"] * 4 + ["latent"] * 6)
        a = bootstrap_rate(report, "c", "crash", seed=11)
        b = bootstrap_rate(report, "c", "crash", seed=11)
        assert (a.low, a.high) == (b.low, b.high)


class TestLazyScipy:
    def test_cli_import_leaves_scipy_unloaded(self):
        """scipy is imported only by the function that needs it."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"
