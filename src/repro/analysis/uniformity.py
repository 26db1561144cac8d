"""Uniformity statistics for permutation samples.

The paper argues Fig. 4's flat histogram shows the Knuth-shuffle output is
uniform; here that is made quantitative: chi-square goodness of fit,
total-variation distance from uniform, and empirical entropy (log2 n!
bits at uniformity).  The streaming rank-bucket accumulator of
:mod:`repro.analysis.stream` applies them to a campaign's histogram.

Two correctness rules shape this module:

* **Sparse histograms are not full histograms.**  ``total_variation_
  from_uniform`` and ``empirical_entropy_bits`` take an explicit
  ``num_cells``: a truncated counts vector (only the observed cells)
  silently treated as the whole support understates the TV distance —
  every absent cell contributes ``1/k`` to ``Σ|p_i − 1/k|`` — and
  overstates how close the entropy is to its true maximum.

* **Dense n!-cell histograms do not scale.**  Ranks are routed into at
  most ``DEFAULT_BUCKETS`` residue buckets (``(A·rank) mod n! mod m`` is
  bucket ``rank mod m`` after a bijection, so we use ``rank mod m``
  directly, computed digit-wise without bigints); with ``n! ≤ m`` the
  buckets are the ranks themselves — the exact histogram.  Residue
  buckets beat a generic hash for one decisive reason: the null cell
  probabilities are *exact* — residue class ``j`` holds ``⌊n!/m⌋`` or
  ``⌈n!/m⌉`` ranks, known in closed form — so the chi-square gains no
  false noncentrality at any sample size, where a hash's ±O(m/n!) cell
  imbalance inflates the statistic by ``N·(m/n!)²`` and fails honest
  generators at population scale.  ``DEFAULT_BUCKETS`` is prime so
  every factorial weight ``i! mod m`` is non-zero (a power of two would
  zero the weights of positions ``i`` with ``2^k | i!`` and blind the
  test to the high digits).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.special import chi2_survival
from repro.core.factorial import factorial
from repro.core.lehmer import weighted_digit_sums

__all__ = [
    "DEFAULT_BUCKETS",
    "MIN_EXPECTED_PER_CELL",
    "chi_square_uniform",
    "total_variation_from_uniform",
    "empirical_entropy_bits",
    "effective_bucket_count",
    "rank_bucket_counts",
    "bucket_null_probabilities",
]

#: Default residue bucket count for large-n chi-square.  Prime, so that
#: ``i! mod m`` never vanishes and every Lehmer digit position keeps
#: influencing the bucket (4096 would drop positions with ``2^12 | i!``).
DEFAULT_BUCKETS = 4093

#: Cochran's rule: chi-square wants every expected cell count ≥ 5.
#: :func:`effective_bucket_count` shrinks the bucket count to
#: ``samples // 5`` when the sample is too small to feed the requested
#: buckets.
MIN_EXPECTED_PER_CELL = 5


def chi_square_uniform(
    counts: np.ndarray, expected: np.ndarray | None = None
) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform null.

    High p (> 0.01, say) means the sample is consistent with uniformity.
    ``expected`` optionally supplies non-uniform null cell counts (must
    sum to the sample size); the rank-bucket accumulator passes the
    exact residue-class expectations through it.  The tail probability is
    :func:`repro.analysis.special.chi2_survival` — no scipy.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or len(c) < 2:
        raise ValueError("need a 1-D histogram with at least two cells")
    total = c.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    if expected is None:
        e = np.full(len(c), total / len(c))
    else:
        e = np.asarray(expected, dtype=np.float64)
        if e.shape != c.shape:
            raise ValueError("expected counts must match the histogram shape")
        if (e <= 0).any():
            raise ValueError("expected counts must be positive")
    stat = float(((c - e) ** 2 / e).sum())
    return stat, chi2_survival(stat, len(c) - 1)


def total_variation_from_uniform(
    counts: np.ndarray, num_cells: int | None = None
) -> float:
    """TV distance ``½ Σ |p_i − 1/k|`` of the empirical law from uniform.

    ``num_cells`` is the true support size ``k``.  It defaults to
    ``len(counts)`` for a full histogram, but **must** be passed when
    ``counts`` is sparse or truncated: each of the ``k − len(counts)``
    absent cells contributes ``1/k`` to the sum, so dropping them
    silently understates the distance (a point mass over k cells has TV
    ``1 − 1/k``, not 0).
    """
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    k = len(c) if num_cells is None else int(num_cells)
    if k < len(c):
        raise ValueError(f"num_cells={k} smaller than the histogram ({len(c)} cells)")
    p = c / total
    observed = float(np.abs(p - 1.0 / k).sum())
    return 0.5 * (observed + (k - len(c)) / k)


def empirical_entropy_bits(
    counts: np.ndarray, num_cells: int | None = None
) -> float:
    """Shannon entropy of the empirical distribution, in bits.

    Empty cells contribute nothing to ``−Σ p log2 p``, so the value is
    the same for a sparse and a dense histogram — but ``num_cells``
    still matters: it is the ceiling ``log2(num_cells)`` the entropy is
    judged against, and passing it catches the sparse-histogram mistake
    (``num_cells`` below the observed support is rejected).
    """
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    if num_cells is not None and int(num_cells) < len(c):
        raise ValueError(
            f"num_cells={int(num_cells)} smaller than the histogram ({len(c)} cells)"
        )
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


def effective_bucket_count(samples: int, buckets: int, n: int) -> int:
    """The rank-bucket cell count a campaign will actually use.

    Deterministic in its inputs (the streaming layer's checkpoint
    fingerprint depends on that): the requested ``buckets`` clamped to
    ``n!`` (no point having more cells than ranks) and to Cochran's
    ``samples // MIN_EXPECTED_PER_CELL`` rule, with a floor of 2 cells.
    """
    if buckets < 2:
        raise ValueError("need at least two buckets")
    m = min(buckets, factorial(n))
    if samples > 0:
        m = min(m, max(2, samples // MIN_EXPECTED_PER_CELL))
    return int(m)


def rank_bucket_counts(
    perms: np.ndarray, buckets: int, *, validate: bool = True
) -> np.ndarray:
    """Histogram of ``rank mod buckets`` for a ``(B, n)`` sample.

    Computed digit-wise — ``Σ dᵢ·((n−1−i)! mod m) mod m`` — so no
    bigint rank is ever formed and any ``n`` works: one
    :func:`~repro.core.lehmer.weighted_digit_sums` pass (``uint16`` sums
    at n = 8 and m = 4093), then one ``% m`` when a sum can reach ``m``.
    """
    p = np.asarray(perms)
    if p.ndim != 2:
        raise ValueError("expected a (B, n) array")
    n = p.shape[1]
    m = int(buckets)
    if m < 2:
        raise ValueError("need at least two buckets")
    weights = [factorial(n - 1 - i) % m for i in range(n)]
    sums, bound = weighted_digit_sums(p, weights, validate=validate)
    if bound >= m:
        sums %= m
    # as intp: NumPy 1.x bincount refuses the uint64 sums of a huge m
    return np.bincount(sums.astype(np.intp, copy=False), minlength=m)


def bucket_null_probabilities(n: int, buckets: int) -> np.ndarray:
    """Exact null probability of each residue bucket under uniformity.

    Residue class ``j`` of ``0 .. n!−1`` holds ``⌊n!/m⌋ + [j < n! mod m]``
    ranks; the bigint ratio is taken exactly before the float64 cast, so
    this stays correct when ``n!`` overflows float64.
    """
    m = int(buckets)
    total = factorial(n)
    if m < 2 or m > total:
        raise ValueError("need 2 ≤ buckets ≤ n!")
    q, r = divmod(total, m)
    return np.array(
        [(q + 1) / total if j < r else q / total for j in range(m)],
        dtype=np.float64,
    )
