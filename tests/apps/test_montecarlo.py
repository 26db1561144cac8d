"""Monte-Carlo tests: the sharded derangement estimate and the
sorting-assessment study."""

import math

import numpy as np
import pytest

from repro.analysis.stream import CampaignConfig, run_population_campaign
from repro.apps.montecarlo import insertion_sort_cost, sortedness_study
from repro.core.permutation import Permutation


def _derangement_estimate(n, samples, shards):
    """The §III-C estimate as a ``shuffle`` campaign over ``shards`` shards."""
    cfg = CampaignConfig(n=n, samples=samples, block=512, source="shuffle")
    result = run_population_campaign(cfg, shards=shards, workers=1, battery_draws=0)
    return result.summary["fixed_points"]


class TestParallelEstimate:
    def test_equals_sequential_run(self):
        """Sharding must reproduce the sequential result bit for bit —
        the defining property of deterministic parallelism."""
        par = _derangement_estimate(4, 1 << 13, shards=8)
        seq = _derangement_estimate(4, 1 << 13, shards=1)
        assert par["derangements"] == seq["derangements"]

    @pytest.mark.parametrize("workers", [1, 3, 5])
    def test_worker_count_invariance(self, workers):
        base = _derangement_estimate(5, 4000, shards=1)
        other = _derangement_estimate(5, 4000, shards=workers)
        assert base["derangements"] == other["derangements"]

    def test_estimates_e(self):
        r = _derangement_estimate(6, 1 << 14, shards=4)
        assert abs(r["e_estimate"] - math.e) / math.e < 0.05

    def test_sample_count_preserved_when_not_divisible(self):
        r = _derangement_estimate(4, 1001, shards=3)
        assert r["samples"] == 1001


class TestInsertionSortCost:
    def test_sorted_is_free(self):
        assert insertion_sort_cost(range(10)) == 0

    def test_reversal_is_worst_case(self):
        assert insertion_sort_cost(range(9, -1, -1)) == 45

    def test_equals_inversion_count(self):
        """Insertion sort moves = inversions — the link the study uses."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = Permutation.random(12, rng)
            assert insertion_sort_cost(p) == p.inversions()


class TestSortednessStudy:
    def test_cost_increases_with_disorder(self):
        pts = sortedness_study(n=32, swap_levels=(0, 2, 8, 32), trials=30, seed=2)
        costs = [p.mean_moves for p in pts]
        assert costs[0] == 0.0
        assert costs == sorted(costs)

    def test_random_end_near_theory(self):
        """Uniform random permutations average n(n−1)/4 inversions."""
        pts = sortedness_study(n=48, swap_levels=(0,), trials=200, seed=3)
        random_point = pts[-1]
        theory = 48 * 47 / 4
        assert abs(random_point.mean_moves - theory) / theory < 0.1

    def test_normalised_cost_in_unit_range(self):
        for p in sortedness_study(n=16, swap_levels=(0, 4), trials=10):
            assert 0.0 <= p.normalised_cost <= 1.0

    def test_displacement_tracks_disorder(self):
        pts = sortedness_study(n=32, swap_levels=(0, 16), trials=20, seed=4)
        assert pts[0].mean_displacement < pts[1].mean_displacement
