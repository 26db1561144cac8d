"""Uniformity statistics tests.

Sample-level reports come from the streaming rank-bucket accumulator,
the one path that turns a permutation sample into chi², TV and entropy.
"""

import numpy as np
import pytest

from repro.analysis.stream import RankBucketAccumulator
from repro.analysis.uniformity import (
    DEFAULT_BUCKETS,
    bucket_null_probabilities,
    chi_square_uniform,
    effective_bucket_count,
    empirical_entropy_bits,
    rank_bucket_counts,
    total_variation_from_uniform,
)
from repro.core.factorial import digits_from_index, factorial
from repro.core.knuth import KnuthShuffleCircuit
from repro.core.lehmer import (
    PASS_ROWS,
    lehmer_digit_batch,
    rank_batch,
    rank_naive,
    unrank_batch,
)


def uniformity_summary(perms, buckets=DEFAULT_BUCKETS):
    """Feed a ``(B, n)`` sample to a rank-bucket accumulator sized as a
    campaign would size it; return the accumulator and its summary."""
    samples, n = perms.shape
    acc = RankBucketAccumulator(n, effective_bucket_count(samples, buckets, n))
    acc.update(perms)
    return acc, acc.summary()


class TestChiSquare:
    def test_perfectly_uniform_has_p_one(self):
        stat, p = chi_square_uniform(np.full(24, 1000))
        assert stat == 0.0 and p == pytest.approx(1.0)

    def test_skewed_detected(self):
        counts = np.full(24, 1000)
        counts[0] = 3000
        _, p = chi_square_uniform(counts)
        assert p < 1e-6

    def test_needs_two_cells(self):
        with pytest.raises(ValueError):
            chi_square_uniform(np.array([5]))


class TestTotalVariation:
    def test_uniform_is_zero(self):
        assert total_variation_from_uniform(np.full(10, 7)) == 0.0

    def test_point_mass_close_to_one(self):
        counts = np.zeros(100)
        counts[0] = 1000
        tv = total_variation_from_uniform(counts)
        assert tv == pytest.approx(0.99)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            total_variation_from_uniform(np.zeros(4))


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert empirical_entropy_bits(np.full(16, 5)) == pytest.approx(4.0)

    def test_point_mass_zero(self):
        counts = np.zeros(8)
        counts[3] = 42
        assert empirical_entropy_bits(counts) == 0.0


class TestReport:
    def test_ideal_sampler_looks_uniform(self):
        perms = KnuthShuffleCircuit(4).sample_ideal(30000, np.random.default_rng(1))
        acc, rep = uniformity_summary(perms)
        assert acc.n == 4 and rep["samples"] == 30000
        assert rep["p_value"] > 0.01
        assert rep["entropy_bits"] == pytest.approx(rep["max_entropy_bits"], abs=0.01)
        assert rep["tv_distance"] < 0.05

    def test_constant_sampler_flagged(self):
        perms = np.tile(np.arange(4), (5000, 1))
        acc, rep = uniformity_summary(perms)
        assert rep["p_value"] < 0.01
        assert rep["entropy_bits"] == 0.0
        assert acc.counts.sum() == 5000


class TestSparseHistograms:
    """Regression: sparse/truncated counts must not shrink the support.

    The old signatures used ``len(counts)`` as the cell count, so a
    histogram carrying only the observed cells understated TV distance
    (absent cells each contribute 1/k) and the entropy deficit.
    """

    def test_sparse_point_mass_tv(self):
        # a point mass over 100 true cells, handed over as a 1-cell
        # "sparse histogram": the old code said TV = 0
        sparse = np.array([1000.0])
        assert total_variation_from_uniform(sparse) == 0.0  # the trap
        assert total_variation_from_uniform(sparse, num_cells=100) == pytest.approx(
            0.99
        )

    def test_sparse_matches_dense(self):
        dense = np.zeros(50)
        dense[:5] = [10, 20, 30, 40, 50]
        sparse = dense[:5]
        assert total_variation_from_uniform(sparse, num_cells=50) == pytest.approx(
            total_variation_from_uniform(dense)
        )

    def test_num_cells_below_support_rejected(self):
        with pytest.raises(ValueError):
            total_variation_from_uniform(np.full(10, 3), num_cells=4)
        with pytest.raises(ValueError):
            empirical_entropy_bits(np.full(10, 3), num_cells=4)

    def test_entropy_deficit_uses_true_support(self):
        # uniform over the 5 observed cells of a 50-cell support:
        # entropy is log2(5), the deficit is log2(50) − log2(5) — huge,
        # where the old len()-based reading would have called it 0
        acc = RankBucketAccumulator.from_state(
            {"n": 5, "cells": 50, "counts": [100] * 5 + [0] * 45}
        )
        rep = acc.summary()
        assert rep["entropy_bits"] == pytest.approx(np.log2(5))
        assert rep["max_entropy_bits"] - rep["entropy_bits"] == pytest.approx(
            np.log2(50) - np.log2(5)
        )


class TestBucketedReport:
    def test_exact_small_n_unchanged(self):
        perms = KnuthShuffleCircuit(4).sample_ideal(30000, np.random.default_rng(1))
        _, rep = uniformity_summary(perms)
        assert rep["method"] == "exact" and rep["cells"] == 24
        assert rep["max_entropy_bits"] == pytest.approx(np.log2(24))

    def test_large_n_routes_through_buckets(self):
        rng = np.random.default_rng(7)
        n = 12  # 12! ≈ 4.8e8 dense cells would be ~4 GB of counts
        idx = rng.integers(0, factorial(n), size=60000, dtype=np.int64)
        acc, rep = uniformity_summary(unrank_batch(idx, n))
        assert rep["method"] == "buckets"
        assert rep["cells"] <= DEFAULT_BUCKETS
        assert len(acc.counts) == rep["cells"]
        assert rep["p_value"] > 0.01

    def test_bucketed_detects_point_mass(self):
        perms = np.tile(np.arange(12), (20000, 1))
        _, rep = uniformity_summary(perms)
        assert rep["method"] == "buckets"
        assert rep["p_value"] < 0.01
        assert rep["tv_distance"] > 0.9

    def test_cochran_rule_shrinks_buckets(self):
        # 1000 samples cannot feed 4093 cells at ≥ 5 expected each
        assert effective_bucket_count(1000, DEFAULT_BUCKETS, 12) == 200
        assert effective_bucket_count(3, DEFAULT_BUCKETS, 12) == 2
        assert effective_bucket_count(10**9, DEFAULT_BUCKETS, 4) == 24

    def test_residue_null_is_exact(self):
        # n = 4, 7 buckets: 24 = 3·7 + 3 → three classes hold 4 ranks
        probs = bucket_null_probabilities(4, 7)
        assert probs.sum() == pytest.approx(1.0)
        assert sorted(set(np.round(probs * 24).astype(int))) == [3, 4]

    def test_residue_counts_match_rank_mod(self):
        rng = np.random.default_rng(3)
        n = 7
        idx = rng.integers(0, factorial(n), size=5000, dtype=np.int64)
        perms = unrank_batch(idx, n)
        counts = rank_bucket_counts(perms, 101)
        expected = np.bincount(rank_batch(perms) % 101, minlength=101)
        assert np.array_equal(counts, expected)

    def test_exhaustive_enumeration_is_flat(self):
        # every rank exactly once → bucket counts equal the exact null
        n = 6
        perms = unrank_batch(np.arange(factorial(n)), n)
        counts = rank_bucket_counts(perms, 97)
        null = bucket_null_probabilities(n, 97) * factorial(n)
        assert np.array_equal(counts, null.astype(np.int64))


class TestRankBucketPaths:
    """The one-pass popcount sweep against the digit-matrix path."""

    @pytest.mark.parametrize("n,cells", [(8, 4093), (8, 40320), (12, 4093), (20, 4093)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_pass_matches_digit_matrix(self, monkeypatch, n, cells, order):
        import repro.core.lehmer as lehmer

        rng = np.random.default_rng(n)
        perms = np.asarray(
            np.argsort(rng.random((4096, n)), axis=1), dtype=np.int64, order=order
        )
        one_pass = rank_bucket_counts(perms, cells, validate=False)
        monkeypatch.setattr(lehmer, "_HAS_BITWISE_COUNT", False)
        assert np.array_equal(rank_bucket_counts(perms, cells, validate=False), one_pass)
        if factorial(n) < 2**62:
            ranks = rank_batch(perms)
            assert np.array_equal(one_pass, np.bincount(ranks % cells, minlength=cells))

    def test_one_pass_validates_rows(self):
        from repro.errors import InvalidPermutationError

        with pytest.raises(InvalidPermutationError):
            rank_bucket_counts(np.array([[0, 1, 2], [1, 1, 2]]), 5)
        assert rank_bucket_counts(np.array([[0, 1, 2]], dtype=np.uint8), 5).sum() == 1


class TestNarrowColumns:
    """Stream sweeps arrive as uint8 columns; every ranker agrees with
    ``rank_naive`` on them — in every dtype and order, and across the
    digit pass's :data:`~repro.core.lehmer.PASS_ROWS` boundaries.

    NumPy 2 (NEP 50) refuses ``uint8_array * 947``, and NumPy 1.x
    computes ``uint8_array * np.uint16(120)`` in ``uint8``, so digits and
    weights are both cast to the sum's dtype: bucket counts of 4093
    cells put weights above 255 on every n ≥ 7, and the rank weight 5!
    times a digit passes 255 on every n ≥ 6.
    """

    ROWS = (1, 2, 7, 63, PASS_ROWS + 1, 2 * PASS_ROWS + 5)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_rankers_agree_on_narrow_dtypes(self, n):
        rng = np.random.default_rng(n)
        wide = np.argsort(rng.random((self.ROWS[-1], n)), axis=1)
        naive = [rank_naive(row) for row in wide.tolist()]
        ranks = np.array(naive, dtype=np.int64)
        digits = np.array([digits_from_index(r, n)[::-1] for r in naive], dtype=np.int64)
        cells = min(DEFAULT_BUCKETS, max(2, factorial(n)))
        for rows in self.ROWS:
            want_counts = np.bincount(ranks[:rows] % cells, minlength=cells)
            for dtype in (np.uint8, np.uint16, np.int64):
                for order in ("C", "F"):
                    perms = np.asarray(wide[:rows], dtype=dtype, order=order)
                    got_digits, got_ranks = lehmer_digit_batch(perms), rank_batch(perms)
                    assert got_digits.dtype == got_ranks.dtype == np.int64
                    assert np.array_equal(got_digits, digits[:rows])
                    assert np.array_equal(got_ranks, ranks[:rows])
                    for validate in (True, False):
                        counts = rank_bucket_counts(perms, cells, validate=validate)
                        assert np.array_equal(counts, want_counts), (rows, dtype, order)

    @pytest.mark.parametrize("n", [33, 64, 65])
    def test_digits_past_a_machine_word(self, n):
        """Past 32 bits the seen-mask is uint64 (past 64, the cube)."""
        perms = np.argsort(np.random.default_rng(n).random((9, n)), axis=1)
        want = [digits_from_index(rank_naive(row), n)[::-1] for row in perms.tolist()]
        for dtype in (np.uint8, np.int64):
            assert np.array_equal(lehmer_digit_batch(perms.astype(dtype)), want)

    def test_weights_above_a_byte(self):
        perms = np.array([[2, 0, 1, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0]], dtype=np.uint8)
        weights = [factorial(6 - i) % 947 for i in range(7)]
        assert max(weights) > 255
        want = np.bincount(rank_batch(perms) % 947, minlength=947)
        assert np.array_equal(rank_bucket_counts(perms, 947), want)
