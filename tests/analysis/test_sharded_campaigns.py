"""The §III-C derangement estimate as a sharded ``shuffle`` campaign.

Each campaign block is seeded on its own, so the shard and worker
counts never change the estimate; the Fig.-4 histogram's sharding
checks are in ``tests/parallel/test_experiments.py``.
"""

import math

import pytest

from repro.analysis.stream import CampaignConfig, run_population_campaign


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
