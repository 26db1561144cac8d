"""Parallel experiment runners: bit-identical to sequential, any workers.

The Monte-Carlo workloads are ``shuffle``-source campaigns sharded over
the hardened runner; the index-space searches shard ``0..n!−1``.
"""

import pytest

from repro.analysis.stream import CampaignConfig, run_population_campaign
from repro.apps.bdd import achilles_heel, best_variable_order
from repro.apps.pclass import classify_all
from repro.parallel.experiments import parallel_best_order, parallel_classify

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


class TestOrderSearch:
    def test_matches_sequential_search(self):
        tt, n = achilles_heel(3)
        pb, pbs, pw, pws = parallel_best_order(tt, n, workers=4)
        _, sbs, _, sws = best_variable_order(tt, n)
        assert pbs == sbs and pws == sws

    def test_worker_invariance_with_ties(self):
        """Many orders tie on size; the lexicographic tie-break must make
        the returned order independent of sharding."""
        tt, n = achilles_heel(2)
        results = {parallel_best_order(tt, n, workers=w) for w in (1, 2, 4, 8)}
        assert len(results) == 1


class TestClassify:
    def test_matches_explicit_classification(self):
        reps = parallel_classify(3, workers=4)
        assert reps == set(classify_all(3))

    def test_worker_invariance(self):
        assert parallel_classify(2, workers=1) == parallel_classify(2, workers=3)
