"""Derangement combinatorics and the e-estimation experiment (§III-C).

The experiment is a ``shuffle``-source campaign: the fixed-point
accumulator's cell 0 is the derangement count, and its summary carries
the paper's estimator ``e ≈ samples / derangements``.
"""

import math

import numpy as np
import pytest

from repro.analysis.stream import (
    CampaignConfig,
    FixedPointAccumulator,
    PopulationStats,
    campaign_verdict,
    run_population_campaign,
)
from repro.core.factorial import factorial, subfactorial


def _campaign(n, samples, shards=1, **fields):
    cfg = CampaignConfig(n=n, samples=samples, source="shuffle", **fields)
    return run_population_campaign(cfg, shards=shards, workers=1, battery_draws=0)


def _summary(perms):
    acc = FixedPointAccumulator(perms.shape[1])
    acc.update(np.asarray(perms))
    return acc.summary()


class TestSubfactorial:
    def test_known_values(self):
        assert [subfactorial(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]

    def test_rounds_to_n_over_e(self):
        """d_n = ⌊n!/e⌉ — the identity the paper quotes."""
        for n in range(1, 12):
            assert subfactorial(n) == round(math.factorial(n) / math.e)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subfactorial(-1)

    def test_probability_tends_to_inverse_e(self):
        assert subfactorial(4) / factorial(4) == pytest.approx(0.375)
        assert subfactorial(12) / factorial(12) == pytest.approx(1 / math.e, rel=1e-8)


class TestMasks:
    def test_fixed_point_histogram(self):
        arr = np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]])  # 3, 1, 0 fixed
        assert _summary(arr)["histogram"] == [1, 1, 0, 1]

    def test_derangement_count(self):
        arr = np.array([[0, 1, 2], [1, 2, 0]])
        assert _summary(arr)["derangements"] == 1


class TestEstimator:
    def test_paper_count_estimates_e(self):
        """The paper's own count: 385,811 of 2²⁰ → e ≈ 2.718."""
        acc = FixedPointAccumulator.from_state(
            {"n": 4, "hist": [385_811, 1_048_576 - 385_811, 0, 0, 0]}
        )
        assert acc.summary()["e_estimate"] == pytest.approx(2.7178, abs=1e-3)

    def test_zero_derangements_rejected(self):
        """No derangement: no finite estimate, and the verdict fails."""
        cfg = CampaignConfig(n=4, samples=4096, source="shuffle").validated()
        stats = PopulationStats.fresh(cfg)
        stats.update(np.tile(np.arange(4), (4096, 1)))
        summary = stats.summary()
        assert summary["fixed_points"]["e_estimate"] == float("inf")
        assert not campaign_verdict(cfg, summary)["gates"]["derangements"]

    def test_result_properties(self):
        acc = FixedPointAccumulator.from_state({"n": 4, "hist": [375, 625, 0, 0, 0]})
        s = acc.summary()
        assert s["e_estimate"] == pytest.approx(1000 / 375)
        assert s["derangement_fraction"] == pytest.approx(0.375)
        assert s["expected_fraction"] == pytest.approx(0.375)


class TestExperiment:
    @pytest.mark.parametrize("n", [4, 8])
    def test_estimates_e_to_a_few_percent(self, n):
        fx = _campaign(n, 1 << 15).summary["fixed_points"]
        assert fx["samples"] == 1 << 15
        # At 32k samples the standard error of the fraction is ~0.3 %.
        assert fx["abs_error"] < 0.02
        assert fx["e_abs_error"] / math.e < 0.05

    def test_batching_equals_single_pass(self):
        one = _campaign(4, 5000, block=256)
        sharded = _campaign(4, 5000, shards=7, block=256)
        assert one.summary["fixed_points"] == sharded.summary["fixed_points"]

    def test_custom_circuit(self):
        fx = _campaign(5, 2000, m=20).summary["fixed_points"]
        assert 0 < fx["derangements"] < 2000
