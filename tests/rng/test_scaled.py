"""Scaled random-integer generator: exact bias, netlist parity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.factorial import factorial
from repro.hdl.simulator import SequentialSimulator
from repro.rng.lfsr import FibonacciLFSR, GaloisLFSR, dense_seed
from repro.rng.scaled import (
    ScaledRandomInteger,
    bias_profile,
    build_scaled_netlist,
    empirical_bias,
    scale_word,
    scale_words,
)


class TestScaleWord:
    @given(st.integers(0, 255), st.integers(1, 300))
    def test_range(self, x, k):
        i = scale_word(x, k, 8)
        assert 0 <= i < k

    def test_rejects_out_of_range_word(self):
        with pytest.raises(ValueError):
            scale_word(32, 4, 5)

    def test_monotone_in_x(self):
        vals = [scale_word(x, 24, 5) for x in range(32)]
        assert vals == sorted(vals)


class TestBiasProfile:
    def test_paper_example_m5_k24(self):
        """§III-A: 'seven of the random integers are generated from two
        random numbers, while 17 are generated from one'."""
        report = bias_profile(24, 5)
        twos = sum(1 for c in report.counts if c == 2)
        ones = sum(1 for c in report.counts if c == 1)
        assert (twos, ones) == (7, 17)
        assert report.ratio == 2.0

    def test_counts_sum_to_period(self):
        for k, m in [(24, 5), (24, 31), (7, 4), (1, 3), (100, 8)]:
            r = bias_profile(k, m)
            assert sum(r.counts) == (1 << m) - 1
            assert r.period == (1 << m) - 1

    def test_bias_shrinks_with_m(self):
        """§III-A: 'choosing a larger m reduces the difference'."""
        errs = [bias_profile(24, m).max_relative_error for m in (5, 8, 16, 31)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-6

    def test_m31_close_to_uniform(self):
        r = bias_profile(24, 31)
        assert r.max_relative_error < 1e-7
        assert r.ratio < 1.0 + 1e-6

    def test_some_bin_can_be_empty_when_k_near_period(self):
        # k = 2^m: the state 0 never occurs, so integer 0 gets 0 counts...
        # actually k=2^m maps x -> x, so bin 0 is empty.
        r = bias_profile(8, 3)
        assert r.counts[0] == 0
        assert r.ratio == float("inf")

    def test_histogram_dtype(self):
        h = bias_profile(6, 4).histogram()
        assert h.dtype == np.int64 and h.sum() == 15

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bias_profile(0, 5)
        with pytest.raises(ValueError):
            bias_profile(5, 0)


class TestClosedFormAgainstEmpirical:
    """Audit of the interval arithmetic (all-zeros-state exclusion).

    The closed form claims integer ``i`` is hit by exactly the words in
    ``[ceil(i·2^m/k), ceil((i+1)·2^m/k) − 1] ∩ [1, 2^m − 1]``.  These
    tests hold it — and the derived ``ratio``/``max_relative_error`` —
    to histograms *counted* over an actual full LFSR period, for both
    register forms, so any future drift in the arithmetic (most easily
    around the excluded all-zeros state at bin 0) fails loudly.
    """

    @given(
        k=st.integers(1, 70),
        m=st.integers(2, 9),
        form=st.sampled_from([FibonacciLFSR, GaloisLFSR]),
        seed_salt=st.integers(0, 5),
    )
    def test_profile_matches_counted_period(self, k, m, form, seed_salt):
        seed = 1 + seed_salt % ((1 << m) - 1)
        counted = empirical_bias(k, form(m, seed=seed))
        closed = bias_profile(k, m)
        assert closed.counts == counted.counts
        assert closed.ratio == counted.ratio
        assert closed.max_relative_error == counted.max_relative_error

    @given(k=st.integers(1, 40), m=st.integers(2, 8))
    def test_derived_stats_match_hand_computation(self, k, m):
        r = bias_profile(k, m)
        period = (1 << m) - 1
        probs = [c / period for c in r.counts]
        ideal = 1 / k
        assert r.max_relative_error == pytest.approx(
            max(abs(p - ideal) for p in probs) / ideal
        )
        if min(r.counts) == 0:
            assert r.ratio == float("inf")
        else:
            assert r.ratio == pytest.approx(max(probs) / min(probs))

    def test_zero_state_exclusion_lands_on_bin_zero(self):
        """Exactly one word (the impossible all-zeros state) is missing,
        and it is missing from bin 0: versus the mapping over all 2^m
        words, only counts[0] drops, by exactly one."""
        for k, m in [(24, 5), (7, 4), (10, 6)]:
            r = bias_profile(k, m)
            full = [0] * k
            for x in range(1 << m):
                full[(k * x) >> m] += 1
            assert full[0] - r.counts[0] == 1
            assert tuple(full[1:]) == r.counts[1:]


class TestScaledRandomInteger:
    def test_draws_in_range(self):
        g = ScaledRandomInteger(10, m=8)
        for _ in range(300):
            assert 0 <= g.next_int() < 10

    def test_ints_batch_matches_sequential(self):
        a = ScaledRandomInteger(7, m=12, seed=3)
        b = ScaledRandomInteger(7, m=12, seed=3)
        batch = a.ints(100)
        seq = [b.next_int() for _ in range(100)]
        assert batch.tolist() == seq

    def test_full_period_histogram_matches_bias_profile(self):
        g = ScaledRandomInteger(5, m=7, seed=1)
        draws = g.ints((1 << 7) - 1)
        hist = np.bincount(draws, minlength=5)
        assert hist.tolist() == list(g.bias().counts)

    def test_custom_lfsr(self):
        lfsr = FibonacciLFSR(9, seed=2)
        g = ScaledRandomInteger(4, lfsr=lfsr)
        assert g.m == 9

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ScaledRandomInteger(0)

    @pytest.mark.parametrize("m", [31, 61])
    @pytest.mark.parametrize("n", range(14, 21))
    def test_wide_product_ints_match_sequential(self, n, m):
        """k = n! with k·x past 64 bits takes the limb-product path."""
        k = factorial(n)
        a = ScaledRandomInteger(k, m=m, seed=dense_seed(m, salt=n))
        b = ScaledRandomInteger(k, m=m, seed=dense_seed(m, salt=n))
        assert a.ints(300).tolist() == [b.next_int() for _ in range(300)]


class TestScaleWords:
    @pytest.mark.parametrize("m", [31, 61])
    @pytest.mark.parametrize("n", range(14, 21))
    def test_bit_exact_against_scale_word(self, n, m):
        k = factorial(n)
        assert k.bit_length() + m > 64  # the limb-product path
        top = (1 << m) - 1
        rng = np.random.default_rng(n * 100 + m)
        xs = [1, 2, 3, top, top - 1, top - 2, top >> 1, (top >> 1) + 1]
        xs += [top - d for d in range(3, 64)]
        xs += [int(x) for x in rng.integers(1, top, size=500, dtype=np.uint64)]
        words = np.array(xs, dtype=np.uint32 if m <= 32 else np.uint64)
        got = scale_words(words, k, m)
        assert got.dtype == np.int64
        assert got.tolist() == [scale_word(x, k, m) for x in xs]

    @pytest.mark.parametrize(
        "k,m",
        [((1 << 63) - 1, 63), ((1 << 63) - 1, 62), ((1 << 62) + 12345, 40),
         (24, 5), (40320, 31)],
    )
    def test_bit_exact_at_the_bounds(self, k, m):
        top = (1 << m) - 1
        xs = [1, top >> 1, top - 1, top]
        words = np.array(xs, dtype=np.uint64)
        assert scale_words(words, k, m).tolist() == [scale_word(x, k, m) for x in xs]

    @pytest.mark.parametrize("k,m", [(1 << 63, 63), ((1 << 63) - 1, 64), (3, 64)])
    def test_past_the_limb_bounds_falls_back_exactly(self, k, m):
        xs = [1, (1 << (m - 1)) + 1, (1 << m) - 1]
        words = np.array(xs, dtype=np.uint64)
        assert scale_words(words, k, m).tolist() == [scale_word(x, k, m) for x in xs]


class TestNetlist:
    @pytest.mark.parametrize("m,k", [(5, 24), (6, 3), (8, 10)])
    def test_gate_level_matches_software(self, m, k):
        nl = build_scaled_netlist(m, k, seed=1)
        sim = SequentialSimulator(nl)
        sim.step({})  # discard the seed-state output (software advances first)
        ref = ScaledRandomInteger(k, m=m, seed=1)
        got = [int(sim.step({})["i"][0]) for _ in range(50)]
        want = [ref.next_int() for _ in range(50)]
        assert got == want

    def test_output_width(self):
        nl = build_scaled_netlist(5, 24)
        assert nl.outputs["i"].width == 5  # ceil(log2 24)
