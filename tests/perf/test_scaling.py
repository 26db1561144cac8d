"""Strong-scaling harness tests."""

import time

import pytest

from repro.perf.scaling import ScalingPoint, render_scaling_table, strong_scaling


def _deterministic_job(workers: int) -> int:
    return sum(range(1000))  # independent of workers


def _nondeterministic_job(workers: int) -> int:
    return workers  # changes with workers: must be rejected


class TestStrongScaling:
    def test_runs_and_validates(self):
        points = strong_scaling(_deterministic_job, worker_counts=(1, 2))
        assert [p.workers for p in points] == [1, 2]
        assert len({p.result_digest for p in points}) == 1

    def test_worker_dependent_result_rejected(self):
        with pytest.raises(AssertionError, match="differs"):
            strong_scaling(_nondeterministic_job, worker_counts=(1, 2))

    def test_repeat_nondeterminism_rejected(self):
        calls = []

        def flaky(workers):
            calls.append(1)
            return len(calls)

        with pytest.raises(AssertionError, match="deterministic"):
            strong_scaling(flaky, worker_counts=(1,), repeats=2)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            strong_scaling(_deterministic_job, worker_counts=())

    def test_numpy_results_freezable(self):
        import numpy as np

        points = strong_scaling(lambda w: np.arange(10), worker_counts=(1, 3))
        assert len({p.result_digest for p in points}) == 1

    def test_speedup_computation(self):
        base = ScalingPoint(workers=1, seconds=4.0, result_digest=0)
        fast = ScalingPoint(workers=4, seconds=1.0, result_digest=0)
        assert fast.speedup_vs(base) == pytest.approx(4.0)
        assert fast.efficiency_vs(base) == pytest.approx(1.0)

    def test_render(self):
        points = strong_scaling(_deterministic_job, worker_counts=(1, 2))
        table = render_scaling_table(points)
        assert "speedup" in table.splitlines()[0]
        assert len(table.splitlines()) == 3

    def test_real_parallel_job_scales_without_changing_result(self):
        """End-to-end: a sharded derangement campaign under the harness."""
        from repro.analysis.stream import CampaignConfig, run_population_campaign

        cfg = CampaignConfig(n=4, samples=1 << 12, block=512, source="shuffle")
        points = strong_scaling(
            lambda w: run_population_campaign(
                cfg, shards=w, workers=w, battery_draws=0
            ).summary["fixed_points"]["derangements"],
            worker_counts=(1, 2),
        )
        assert len({p.result_digest for p in points}) == 1
