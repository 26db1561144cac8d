"""§III-C — counting derangements to estimate e, n = 4 / 8 / 16.

The paper: 1,048,576 random 4-element permutations contained 385,811
derangements, estimating e ≈ 2.718; repeated at n = 8 and n = 16.  (The
derangement fraction at n = 4 is exactly 9/24 = 0.375, so the ideal count
is 393,216; the paper's figure deviates by ~1.9 %.)  We regenerate all
three rows as ``shuffle``-source campaigns — the count is cell 0 of the
fixed-point accumulator — and additionally verify that sharding the
campaign over worker processes is bit-identical to a single pass.
"""

import math

from conftest import write_report

from repro.analysis.stream import CampaignConfig, run_population_campaign

SAMPLES = 1 << 20


def _fixed_points(n: int, samples: int, shards: int = 1, workers: int = 1) -> dict:
    cfg = CampaignConfig(n=n, samples=samples, source="shuffle")
    result = run_population_campaign(
        cfg, shards=shards, workers=workers, battery_draws=0
    )
    return result.summary["fixed_points"]


def test_derangement_rows(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: {n: _fixed_points(n, SAMPLES) for n in (4, 8, 16)},
        rounds=1,
        iterations=1,
    )

    lines = [
        f"Derangement experiment — {SAMPLES} Knuth-shuffle samples per n",
        "(shuffle-source campaigns, seed 2012, 4096-permutation blocks;",
        " paper: n=4 gave 385,811 derangements -> e ~ 2.718)",
        "",
        f"{'n':>3}  {'derangements':>12}  {'e estimate':>10}  {'exact d_n/n!':>12}  {'rel err vs e':>12}",
    ]
    for n, fx in rows.items():
        e_error = fx["e_abs_error"] / math.e
        lines.append(
            f"{n:>3}  {fx['derangements']:>12}  {fx['e_estimate']:>10.5f}  "
            f"{fx['expected_fraction']:>12.6f}  {e_error:>12.2e}"
        )
        # at 2^20 samples the fraction estimate is good to ~0.2 %
        assert fx["abs_error"] < 0.005
        # The estimate's expectation is n!/d_n, not e (24/9 = 2.667 at
        # n = 4, 1.9 % below e): gate it there, within 5 sd of sampling
        # noise.  Binomial sd of the fraction p, taken to 1/p by the
        # delta method: ~0.13 % of the estimate at n = 4.
        p = fx["expected_fraction"]
        sd = math.sqrt(p * (1.0 - p) / fx["samples"]) / (p * p)
        assert abs(fx["e_estimate"] - 1.0 / p) <= 5.0 * sd
    write_report(
        results_dir,
        "derangements",
        "\n".join(lines),
        benchmark=benchmark,
        data={
            "samples": SAMPLES,
            "rows": [
                {
                    "n": n,
                    "derangements": int(fx["derangements"]),
                    "e_estimate": fx["e_estimate"],
                    "expected_fraction": fx["expected_fraction"],
                    "e_error": fx["e_abs_error"] / math.e,
                }
                for n, fx in rows.items()
            ],
        },
    )


def test_parallel_decomposition_exact(benchmark, results_dir):
    """Sharding the campaign over worker processes reproduces the
    single-pass count bit for bit: every block seeds its own stages."""
    samples = 1 << 16
    seq = _fixed_points(4, samples)
    par = benchmark.pedantic(
        lambda: _fixed_points(4, samples, shards=8, workers=2),
        rounds=1,
        iterations=1,
    )
    identical = par["histogram"] == seq["histogram"]
    assert identical
    write_report(
        results_dir,
        "derangements_parallel",
        f"sequential={seq['derangements']} "
        f"parallel(8 shards, 2 workers)={par['derangements']} identical={identical}",
        benchmark=benchmark,
        data={
            "n": 4,
            "samples": samples,
            "sequential": int(seq["derangements"]),
            "parallel": int(par["derangements"]),
            "identical": identical,
        },
    )


def test_derangement_scan_throughput(benchmark):
    """The vectorised fixed-point scan on a large block."""
    from repro.analysis.stream import FixedPointAccumulator
    from repro.core.knuth import KnuthShuffleCircuit

    perms = KnuthShuffleCircuit(8).sample(100_000)

    def scan() -> int:
        acc = FixedPointAccumulator(8)
        acc.update(perms)
        return int(acc.hist[0])

    count = benchmark(scan)
    assert 0 < count < 100_000
