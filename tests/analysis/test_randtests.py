"""Randomness test battery tests."""

import numpy as np
import pytest

from repro.analysis.randtests import (
    battery,
    monobit_test,
    runs_test,
    serial_correlation,
)
from repro.analysis.stream import CampaignConfig, PopulationStats
from repro.core.knuth import KnuthShuffleCircuit
from repro.rng.lfsr import FibonacciLFSR, dense_seed


class TestMonobit:
    def test_balanced_passes(self, rng):
        bits = rng.integers(0, 2, size=10_000)
        assert monobit_test(bits).passed

    def test_biased_fails(self, rng):
        bits = (rng.random(10_000) < 0.6).astype(int)
        assert not monobit_test(bits).passed

    def test_effect_is_ones_fraction_minus_half(self):
        assert monobit_test(np.array([1, 1, 1, 0])).effect == pytest.approx(0.25)

    def test_validates_input(self):
        with pytest.raises(ValueError):
            monobit_test(np.array([0, 2]))
        with pytest.raises(ValueError):
            monobit_test(np.array([]))


class TestRuns:
    def test_random_passes(self, rng):
        assert runs_test(rng.integers(0, 2, size=10_000)).passed

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 2_000)
        assert not runs_test(bits).passed

    def test_effect_is_relative_run_excess(self):
        # balanced stream: expected 2·N·¼ + 1 = 2001 runs, observed 4000
        r = runs_test(np.tile([0, 1], 2_000))
        assert r.effect == pytest.approx(4000 / 2001 - 1)
        assert runs_test(np.ones(100, dtype=int)).effect == float("inf")

    def test_blocky_fails(self):
        bits = np.repeat(np.arange(40) % 2, 100)
        assert not runs_test(bits).passed

    def test_constant_stream(self):
        assert not runs_test(np.ones(100, dtype=int)).passed


class TestSerial:
    def test_iid_passes(self, rng):
        words = rng.integers(0, 1 << 20, size=5_000)
        assert serial_correlation(words).passed

    def test_trending_fails(self):
        assert not serial_correlation(np.arange(5_000)).passed

    def test_lag_parameter(self, rng):
        words = rng.integers(0, 100, size=1_000)
        r = serial_correlation(words, lag=5)
        assert r.name == "serial_lag5"

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            serial_correlation(np.array([1, 2]), lag=3)

    def test_constant_sequence_flagged(self):
        assert not serial_correlation(np.full(100, 7)).passed


class TestPermutationChi2:
    """The Fig.-4 chi-square lifted to any n, as a campaign computes it:
    rank buckets sized by the campaign config, exact cells at small n."""

    @staticmethod
    def _p_value(perms):
        cfg = CampaignConfig(n=perms.shape[1], samples=len(perms)).validated()
        stats = PopulationStats.fresh(cfg)
        stats.update(perms)
        return stats.summary()["rank_buckets"]["p_value"]

    def test_ideal_sampler_passes(self):
        perms = KnuthShuffleCircuit(4).sample_ideal(30_000, np.random.default_rng(1))
        assert self._p_value(perms) > 0.01

    def test_stuck_sampler_fails(self):
        perms = np.tile(np.arange(4), (5_000, 1))
        assert self._p_value(perms) < 0.01

    def test_large_n_does_not_materialise_factorial_cells(self):
        """Regression: n = 12 has 12! ≈ 4.8e8 cells — a dense bincount
        would allocate them all.  The bucketed path must both fit in
        memory and still pass an honest sampler."""
        from repro.core.factorial import factorial
        from repro.core.lehmer import unrank_batch

        rng = np.random.default_rng(5)
        idx = rng.integers(0, factorial(12), size=50_000, dtype=np.int64)
        assert self._p_value(unrank_batch(idx, 12)) > 0.01

    def test_large_n_stuck_sampler_fails(self):
        perms = np.tile(np.arange(12), (20_000, 1))
        assert self._p_value(perms) < 0.01


class TestBattery:
    def test_dense_seeded_lfsr_balance(self):
        """With dense seeds the m-sequence passes monobit and runs on
        most windows (individual 4k windows fluctuate; require a strong
        majority across independent seeds)."""
        passed_mono = passed_runs = 0
        for salt in range(6):
            lfsr = FibonacciLFSR(31, seed=dense_seed(31, salt))
            results = {r.name: r for r in battery(lfsr, draws=4096)}
            passed_mono += results["monobit"].passed
            passed_runs += results["runs"].passed
        assert passed_mono >= 5
        assert passed_runs >= 5

    def test_sparse_seed_warmup_bias_detected(self):
        """Seed 1 sits in the biased warm-up stretch (library-documented):
        the battery must flag it — that's the point of the battery."""
        results = {r.name: r for r in battery(FibonacciLFSR(31, seed=1), draws=2048)}
        assert not results["monobit"].passed

    def test_warm_up_fixes_sparse_seed(self):
        lfsr = FibonacciLFSR(31, seed=1)
        lfsr.warm_up(20_000)
        results = {r.name: r for r in battery(lfsr, draws=4096)}
        assert results["monobit"].passed

    def test_raw_words_fail_serial_by_design(self):
        """Successive LFSR states are one-bit shifts: raw words are
        serially correlated.  Documented behaviour — consumers draw
        scaled integers, not raw words."""
        results = {r.name: r for r in battery(FibonacciLFSR(31, seed=dense_seed(31)), draws=4096)}
        assert not results["serial_lag1"].passed

    def test_result_fields(self):
        results = battery(FibonacciLFSR(16, seed=dense_seed(16)), draws=512, lags=(1,))
        assert [r.name for r in results] == ["monobit", "runs", "serial_lag1"]
        for r in results:
            assert 0.0 <= r.p_value <= 1.0
