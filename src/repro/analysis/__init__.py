"""Statistical and structural analysis of the generators.

* :mod:`repro.analysis.stream` — the one statistics path: streaming
  campaigns over a converter or Knuth-shuffle source that fold every
  block into mergeable accumulators — the Fig.-4 histogram (rank
  buckets), the §III-C derangement count and ``e ≈ n!/d_n`` (fixed
  points), serial correlation and the Fig.-2 pigeonhole bias — sharded,
  checkpointed and resumable (:mod:`repro.analysis.checkpoint`);
* :mod:`repro.analysis.uniformity` — chi-square / total-variation /
  entropy statistics and the residue rank buckets behind them;
* :mod:`repro.analysis.distribution` — the Fig.-4 bar chart of a
  campaign's 24 rank counts, keyed by the packed 8-bit word;
* :mod:`repro.analysis.randtests` — monobit / runs / serial tests of the
  raw LFSR stream;
* :mod:`repro.analysis.complexity` — the §II-D / §III-C complexity claims
  (O(n²) comparators/crossovers, O(n) delay) checked against real
  netlists, with least-squares exponents;
* :mod:`repro.analysis.faultcoverage` — confidence intervals and sample
  sizing for the sampled fault-injection campaigns;
* :mod:`repro.analysis.special` — the chi-square/normal tail functions
  (regularised incomplete gamma), stdlib-only — no scipy.
"""

from repro.analysis.special import (
    chi2_survival,
    normal_survival,
    regularized_gamma_p,
    regularized_gamma_q,
)
from repro.analysis.uniformity import (
    chi_square_uniform,
    total_variation_from_uniform,
    empirical_entropy_bits,
    rank_bucket_counts,
    bucket_null_probabilities,
)
from repro.analysis.stream import (
    CampaignConfig,
    CampaignResult,
    PopulationStats,
    run_population_campaign,
)
from repro.analysis.distribution import fig4_bars, render_fig4
from repro.analysis.randtests import (
    monobit_test,
    runs_test,
    serial_correlation,
    battery,
    TestResult,
)
from repro.analysis.mixing import (
    MixingCurve,
    transposition_walk_tv,
    shuffle_vs_walk,
    cutoff_estimate,
)
from repro.analysis.complexity import (
    ComplexityReport,
    converter_complexity,
    shuffle_complexity,
    fit_power_law,
)
from repro.analysis.faultcoverage import required_samples, wilson_interval

__all__ = [
    "chi2_survival",
    "normal_survival",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "chi_square_uniform",
    "total_variation_from_uniform",
    "empirical_entropy_bits",
    "rank_bucket_counts",
    "bucket_null_probabilities",
    "CampaignConfig",
    "CampaignResult",
    "PopulationStats",
    "run_population_campaign",
    "fig4_bars",
    "render_fig4",
    "ComplexityReport",
    "converter_complexity",
    "shuffle_complexity",
    "fit_power_law",
    "monobit_test",
    "runs_test",
    "serial_correlation",
    "battery",
    "TestResult",
    "MixingCurve",
    "transposition_walk_tv",
    "shuffle_vs_walk",
    "cutoff_estimate",
    "required_samples",
    "wilson_interval",
]
