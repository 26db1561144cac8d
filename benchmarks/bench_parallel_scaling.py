"""Extension: strong scaling of the streaming campaigns over worker processes.

Fixed problems — ``shuffle``-source campaigns, one shard per worker —
at growing worker counts; results are asserted bit-identical across
counts (the harness refuses otherwise) and the wall-clock table is
written out.  Speedup depends on the host's core count (this container
exposes a single CPU, so expect flat times here); the *determinism* of the
decomposition — the property a cluster deployment actually relies on — is
host-independent and is what the assertions check.
"""

import os

from conftest import write_report

from repro.analysis.stream import CampaignConfig, run_population_campaign
from repro.perf.scaling import render_scaling_table, strong_scaling

SAMPLES = 1 << 18


def _campaign_state(n: int, workers: int) -> dict:
    cfg = CampaignConfig(n=n, samples=SAMPLES, source="shuffle")
    result = run_population_campaign(
        cfg, shards=workers, workers=workers, battery_draws=0
    )
    return result.stats.state_dict()


def test_derangement_strong_scaling(benchmark, results_dir):
    def run():
        return strong_scaling(
            lambda w: _campaign_state(8, w)["accumulators"]["fixed_points"]["hist"],
            worker_counts=(1, 2, 4),
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len({p.result_digest for p in points}) == 1
    write_report(
        results_dir,
        "ext_scaling_derangements",
        f"Strong scaling: derangement count, n = 8, {SAMPLES} samples\n"
        f"(host exposes {os.cpu_count()} CPU(s); result bit-identical at "
        "every worker count)\n\n"
        + render_scaling_table(points),
        benchmark=benchmark,
        data={
            "experiment": "derangements",
            "n": 8,
            "samples": SAMPLES,
            "points": [
                {"workers": p.workers, "seconds": p.seconds,
                 "speedup": p.speedup_vs(points[0])}
                for p in points
            ],
            "bit_identical": len({p.result_digest for p in points}) == 1,
        },
    )


def test_fig4_strong_scaling(benchmark, results_dir):
    def run():
        return strong_scaling(
            lambda w: _campaign_state(4, w)["accumulators"]["rank_buckets"]["counts"],
            worker_counts=(1, 2, 4),
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len({p.result_digest for p in points}) == 1
    write_report(
        results_dir,
        "ext_scaling_fig4",
        f"Strong scaling: Fig.-4 histogram, n = 4, {SAMPLES} samples\n"
        f"(host exposes {os.cpu_count()} CPU(s))\n\n"
        + render_scaling_table(points),
        benchmark=benchmark,
        data={
            "experiment": "fig4_counts",
            "n": 4,
            "samples": SAMPLES,
            "points": [
                {"workers": p.workers, "seconds": p.seconds,
                 "speedup": p.speedup_vs(points[0])}
                for p in points
            ],
            "bit_identical": len({p.result_digest for p in points}) == 1,
        },
    )
