"""Knuth-shuffle circuit: validity, equivalence, distribution."""

import math

import numpy as np
import pytest

from repro.core.factorial import factorial
from repro.core.knuth import KnuthShuffleCircuit, crossover_cascade, unfold_draws
from repro.core.lehmer import rank_batch
from repro.core.orders import mr_unrank


def assert_all_permutations(arr):
    b, n = arr.shape
    assert np.array_equal(np.sort(arr, axis=1), np.broadcast_to(np.arange(n), (b, n)))


class TestConstruction:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            KnuthShuffleCircuit(1)

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError):
            KnuthShuffleCircuit(4, seeds=[1, 2])

    def test_width_count_enforced(self):
        with pytest.raises(ValueError):
            KnuthShuffleCircuit(4, widths=[31])

    def test_invalid_input_permutation(self):
        with pytest.raises(ValueError):
            KnuthShuffleCircuit(3, input_permutation=(0, 0, 1))

    def test_default_widths_distinct_for_moderate_n(self):
        c = KnuthShuffleCircuit(10, m=31)
        assert len(set(c.widths)) == 9

    def test_default_widths_need_m_at_least_8(self):
        """Below m = 8 the default span is empty: a typed error naming
        the bound, not a ZeroDivisionError."""
        with pytest.raises(ValueError, match="m ≥ 8"):
            KnuthShuffleCircuit(4, m=7)
        assert KnuthShuffleCircuit(3, m=5, widths=[5, 5]).widths == (5, 5)

    def test_default_widths_cycle_past_the_span(self):
        """Large n keeps constructing (serving's shuffle engine relies on
        it): widths cycle, so stages t and t + 16 share a polynomial."""
        widths = KnuthShuffleCircuit(20, m=31).widths
        assert widths[:16] == tuple(range(31, 15, -1))
        assert widths[16:] == (31, 30, 29)

    def test_structure_counts(self):
        c = KnuthShuffleCircuit(6)
        assert c.num_stages == 5
        assert c.latency == 5
        assert c.crossover_count() == 15
        assert c.stage_choices() == (6, 5, 4, 3, 2)


class TestFunctional:
    def test_outputs_are_permutations(self):
        c = KnuthShuffleCircuit(7, m=16)
        for _ in range(50):
            p = c.shuffle_once()
            assert sorted(p) == list(range(7))

    def test_sample_matches_sequential(self):
        a = KnuthShuffleCircuit(5, m=16)
        b = KnuthShuffleCircuit(5, m=16)
        batch = a.sample(200)
        seq = np.array([b.shuffle_once() for _ in range(200)])
        assert np.array_equal(batch, seq)

    def test_sample_valid(self):
        assert_all_permutations(KnuthShuffleCircuit(9).sample(500))

    def test_reset_restarts_stream(self):
        c = KnuthShuffleCircuit(4, m=12)
        first = c.sample(20)
        c.reset()
        again = c.sample(20)
        assert np.array_equal(first, again)

    def test_custom_input_permutation_is_stage0_pool(self):
        pool = (3, 0, 2, 1)
        c = KnuthShuffleCircuit(4, input_permutation=pool)
        out = c.sample(100)
        assert_all_permutations(out)

    def test_sample_ideal_deterministic_for_rng(self):
        c = KnuthShuffleCircuit(5)
        a = c.sample_ideal(50, np.random.default_rng(3))
        b = KnuthShuffleCircuit(5).sample_ideal(50, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert_all_permutations(a)

    @pytest.mark.parametrize("n", [2, 8, 22])  # 22! exceeds int64
    def test_folded_draws_are_the_mirrored_myrvold_ruskey_index(self, n):
        rows = KnuthShuffleCircuit(n).sample(40)
        twin = KnuthShuffleCircuit(n)
        indices = [twin.next_index() for _ in range(40)]
        replay = crossover_cascade(unfold_draws(indices, n), range(n))
        assert np.array_equal(replay, rows)
        for index, row in zip(indices, rows):
            assert 0 <= index < factorial(n)
            assert mr_unrank(index, n) == tuple(n - 1 - row[::-1])


class TestDistribution:
    def test_ideal_uniform_all_reachable(self):
        """Fisher–Yates with ideal draws covers all n! permutations."""
        c = KnuthShuffleCircuit(4)
        perms = c.sample_ideal(20000, np.random.default_rng(0))
        counts = np.bincount(rank_batch(perms), minlength=24)
        assert counts.min() > 0
        # each ~833; allow generous spread
        assert counts.max() < 2 * counts.min()

    def test_lfsr_driven_covers_all(self):
        c = KnuthShuffleCircuit(4, m=20)
        perms = c.sample(20000)
        counts = np.bincount(rank_batch(perms), minlength=24)
        assert counts.min() > 0

    def test_exact_distribution_sums_to_one(self):
        d = KnuthShuffleCircuit(4, m=10).exact_distribution()
        assert len(d) == 24
        assert math.isclose(sum(d.values()), 1.0, abs_tol=1e-12)

    def test_exact_distribution_near_uniform_for_wide_lfsr(self):
        d = KnuthShuffleCircuit(3, m=20).exact_distribution()
        for p in d.values():
            assert math.isclose(p, 1 / 6, rel_tol=1e-4)

    def test_exact_distribution_shows_small_m_bias(self):
        """m = 2 per stage is badly biased — the pigeonhole effect."""
        d = KnuthShuffleCircuit(3, widths=[2, 2], seeds=[1, 2]).exact_distribution()
        probs = sorted(d.values())
        assert probs[-1] > 1.5 * probs[0]


class TestNetlist:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_combinational_matches_functional(self, n):
        got = KnuthShuffleCircuit(n, m=10).simulate_netlist(40)
        ref = KnuthShuffleCircuit(n, m=10)
        want = np.array([ref.shuffle_once() for _ in range(40)])
        assert np.array_equal(got, want)

    def test_pipelined_outputs_are_permutations(self):
        out = KnuthShuffleCircuit(4, m=10).simulate_netlist(30, pipelined=True)
        assert_all_permutations(out)

    def test_netlist_register_counts(self):
        """Unpipelined: only the LFSR registers; pipelined adds pool banks."""
        c = KnuthShuffleCircuit(4, m=10)
        plain = c.build_netlist(pipelined=False)
        piped = c.build_netlist(pipelined=True)
        assert plain.num_registers == sum(c.widths)
        assert piped.num_registers > plain.num_registers

    def test_netlist_has_no_primary_inputs(self):
        nl = KnuthShuffleCircuit(3, m=8).build_netlist()
        assert nl.inputs == {}
        assert set(nl.outputs) == {"out0", "out1", "out2", "word"}
