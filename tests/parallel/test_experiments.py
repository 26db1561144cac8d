"""Sharded Fig.-4 and derangement campaigns: bit-identical to one pass.

Both experiments are ``shuffle``-source campaigns sharded over the
hardened runner; each block is seeded on its own, so the shard and
worker counts never change the accumulated state.
"""

import pytest

from repro.analysis.stream import CampaignConfig, run_population_campaign

SAMPLES = 1 << 14


def _campaign(n, samples, shards, workers=1, block=1024):
    cfg = CampaignConfig(n=n, samples=samples, block=block, source="shuffle")
    return run_population_campaign(
        cfg, shards=shards, workers=workers, battery_draws=0
    ).stats.state_dict()["accumulators"]


class TestFig4:
    def test_matches_sequential_exactly(self):
        seq = _campaign(4, SAMPLES, shards=1)["rank_buckets"]
        par = _campaign(4, SAMPLES, shards=3, workers=2)["rank_buckets"]
        assert seq == par

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_worker_invariance(self, workers):
        base = _campaign(4, SAMPLES, shards=1)["rank_buckets"]
        got = _campaign(4, SAMPLES, shards=workers)["rank_buckets"]
        assert base == got

    def test_total_count_preserved(self):
        counts = _campaign(4, 1000, shards=4, block=128)["rank_buckets"]["counts"]
        assert sum(counts) == 1000


class TestDerangements:
    def test_matches_sequential(self):
        seq = _campaign(4, SAMPLES, shards=1)["fixed_points"]
        par = _campaign(4, SAMPLES, shards=4)["fixed_points"]
        assert seq == par
        assert sum(par["hist"]) == SAMPLES

    def test_uneven_split(self):
        a = _campaign(5, 1001, shards=3, block=128)["fixed_points"]
        b = _campaign(5, 1001, shards=7, block=128)["fixed_points"]
        assert a == b
