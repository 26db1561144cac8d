"""Figure 4 — distribution of 2^20 Knuth-shuffle 4-element permutations.

The paper plots 24 bars of ≈43,690 occurrences each (quoting 43,399 and
43,897 for two of them) and concludes uniformity.  We run the same 2^20
samples through the LFSR-driven shuffle as a streaming campaign
(``source="shuffle"``: every 4096-permutation block seeds the stage
LFSRs afresh from the campaign seed), write the full bar chart from the
campaign's 24 exact rank cells, and assert flatness quantitatively (bar
spread, chi-square, total variation).
"""

from conftest import write_report

from repro.analysis.distribution import render_fig4
from repro.analysis.stream import CampaignConfig, run_population_campaign

SAMPLES = 1 << 20


def test_fig4_regeneration(benchmark, results_dir):
    cfg = CampaignConfig(n=4, samples=SAMPLES, source="shuffle")
    result = benchmark.pedantic(
        lambda: run_population_campaign(cfg, workers=1, battery_draws=0),
        rounds=1,
        iterations=1,
    )
    counts = result.stats.accumulators["rank_buckets"].counts
    uni = result.summary["rank_buckets"]

    assert uni["method"] == "exact" and len(counts) == 24
    assert counts.sum() == SAMPLES
    expected = SAMPLES / 24  # 43,690.67
    # paper's two quoted bars sit within ±0.7 % of expected; we allow ±2.5 %
    assert counts.min() > expected * 0.975
    assert counts.max() < expected * 1.025
    # quantitative uniformity
    assert uni["p_value"] > 1e-3
    assert uni["tv_distance"] < 0.01

    header = (
        f"Figure 4 reproduction — {SAMPLES} Knuth-shuffle permutations, n = 4\n"
        f"(shuffle-source campaign, seed {cfg.seed}, {cfg.block}-permutation blocks)\n"
        f"expected per bar = {expected:.1f} (paper quotes bars 43,399 and 43,897)\n"
        f"measured min = {counts.min()}, max = {counts.max()}, "
        f"chi2 p = {uni['p_value']:.4f}, TV = {uni['tv_distance']:.5f}\n"
    )
    write_report(
        results_dir,
        "fig4_distribution",
        header + render_fig4(counts),
        benchmark=benchmark,
        data={
            "samples": SAMPLES,
            "n": 4,
            "expected_per_bar": expected,
            "min_bar": int(counts.min()),
            "max_bar": int(counts.max()),
            "chi2_p_value": float(uni["p_value"]),
            "tv_distance": float(uni["tv_distance"]),
            "counts_by_index": [int(c) for c in counts],
        },
    )


def test_fig4_sampling_throughput(benchmark):
    """Raw sampling rate of the vectorised shuffle at n = 4."""
    from repro.core.knuth import KnuthShuffleCircuit

    circ = KnuthShuffleCircuit(4)
    benchmark(lambda: circ.sample(65_536))
