"""LFSR correctness: maximality, linearity, jump-ahead, netlist parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.simulator import SequentialSimulator
from repro.rng.lfsr import (
    CLOCK_TABLE_SPAN,
    FibonacciLFSR,
    GaloisLFSR,
    _clock_table,
    build_lfsr_netlist,
    dense_seed,
)
from repro.rng.taps import MAXIMAL_TAPS


@pytest.mark.parametrize("cls", [FibonacciLFSR, GaloisLFSR])
@pytest.mark.parametrize("width", list(range(2, 15)))
def test_maximal_period(cls, width):
    """Every nonzero state appears exactly once per period 2^m − 1."""
    lfsr = cls(width, seed=1)
    seen = set()
    for _ in range(lfsr.period):
        s = lfsr.next_word()
        assert s != 0
        assert s not in seen
        seen.add(s)
    assert len(seen) == (1 << width) - 1
    assert lfsr.state == 1  # back to the seed after one full period


@pytest.mark.parametrize("cls", [FibonacciLFSR, GaloisLFSR])
def test_zero_state_is_forbidden_seed(cls):
    with pytest.raises(ValueError):
        cls(8, seed=0)
    with pytest.raises(ValueError):
        cls(8, seed=256)


def test_width_below_two_rejected():
    with pytest.raises(ValueError):
        FibonacciLFSR(1)


def test_reset_returns_to_seed():
    lfsr = FibonacciLFSR(12, seed=77)
    for _ in range(10):
        lfsr.next_word()
    lfsr.reset()
    assert lfsr.state == 77


def test_words_batch_equals_sequential():
    a = FibonacciLFSR(16, seed=5)
    b = FibonacciLFSR(16, seed=5)
    batch = a.words(50)
    seq = [b.next_word() for _ in range(50)]
    assert [int(x) for x in batch] == seq
    assert a.state == b.state


K = CLOCK_TABLE_SPAN


@pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
def test_vectorised_words_bit_exact_every_width(width):
    """The table-driven words() must reproduce the scalar clock loop bit
    for bit and leave the same state, for draws shorter than, equal to
    and longer than one table span, in one call or split across calls."""
    seed = dense_seed(width, salt=3)
    ref = FibonacciLFSR(width, seed=seed)
    expected = np.array(
        [ref.next_word() for _ in range(2 * K + 3)], dtype=np.uint64
    )
    for counts in ([1], [K - 1], [K], [K + 1], [2 * K + 3],
                   [1, K - 1, K + 1, 2], [K + 1, 3, K - 1]):
        fast = FibonacciLFSR(width, seed=seed)
        batch = np.concatenate([fast.words(c) for c in counts])
        drawn = sum(counts)
        assert np.array_equal(batch.astype(np.uint64), expected[:drawn]), counts
        assert fast.state == int(expected[drawn - 1]), counts


def test_clock_table_built_once_per_width_and_taps():
    _clock_table.cache_clear()
    for seed in (1, 5, 99):
        FibonacciLFSR(31, seed=seed).words(K + 7)
    assert _clock_table.cache_info().misses == 1
    FibonacciLFSR(31, taps=(31, 3), seed=1).words(10)  # x^31 + x^3 + 1
    FibonacciLFSR(30, seed=1).words(10)
    FibonacciLFSR(31, seed=2).words(1)
    assert _clock_table.cache_info().misses == 3


def test_vectorised_words_chunked_calls_continue_stream():
    a = FibonacciLFSR(31, seed=dense_seed(31))
    b = FibonacciLFSR(31, seed=dense_seed(31))
    parts = np.concatenate([a.words(7), a.words(1), a.words(120)])
    assert np.array_equal(parts, b.words(128))
    assert a.state == b.state


def test_words_zero_count():
    lfsr = FibonacciLFSR(31, seed=9)
    assert lfsr.words(0).size == 0
    assert lfsr.state == 9


@pytest.mark.parametrize(
    "width,dtype",
    [(5, np.uint8), (8, np.uint8), (9, np.uint32), (31, np.uint32),
     (33, np.uint64), (64, np.uint64)],
)
def test_words_uses_machine_dtype_tiers(width, dtype):
    """words() must stay vectorisable: a uint tier, never object, <= 64 bits."""
    batch = FibonacciLFSR(width, seed=1).words(16)
    assert batch.dtype == dtype


def test_words_wide_register_falls_back_to_object():
    # widths above 64 are not tabulated; x^65 + x^47 + 1 is primitive
    batch = FibonacciLFSR(65, taps=(65, 47), seed=1).words(4)
    assert batch.dtype == object
    ref = FibonacciLFSR(65, taps=(65, 47), seed=1)
    assert [int(x) for x in batch] == [ref.next_word() for _ in range(4)]


def test_iter_words_stream():
    lfsr = FibonacciLFSR(8, seed=9)
    it = lfsr.iter_words()
    ref = FibonacciLFSR(8, seed=9)
    assert [next(it) for _ in range(5)] == [ref.next_word() for _ in range(5)]


def test_next_fraction_in_open_unit_interval():
    lfsr = FibonacciLFSR(10, seed=1)
    for _ in range(200):
        x = lfsr.next_fraction()
        assert 0.0 < x < 1.0


class TestLinearity:
    """The step map must be GF(2)-linear — jump-ahead relies on it."""

    @given(st.integers(1, (1 << 12) - 1), st.integers(1, (1 << 12) - 1))
    def test_step_is_additive(self, x, y):
        lfsr = FibonacciLFSR(12)
        assert lfsr._step(x ^ y) == lfsr._step(x) ^ lfsr._step(y)

    @given(st.integers(1, (1 << 12) - 1), st.integers(1, (1 << 12) - 1))
    def test_galois_step_is_additive(self, x, y):
        lfsr = GaloisLFSR(12)
        assert lfsr._step(x ^ y) == lfsr._step(x) ^ lfsr._step(y)


class TestJump:
    @pytest.mark.parametrize("cls", [FibonacciLFSR, GaloisLFSR])
    @pytest.mark.parametrize("steps", [0, 1, 2, 17, 1000, 123456])
    def test_jump_equals_stepping(self, cls, steps):
        a = cls(20, seed=31337)
        b = cls(20, seed=31337)
        for _ in range(min(steps, 2000)):
            a.next_word()
        if steps > 2000:
            a.jump(steps - 2000)
        b.jump(steps)
        assert a.state == b.state

    def test_jump_full_period_is_identity(self):
        lfsr = FibonacciLFSR(10, seed=99)
        lfsr.jump(lfsr.period)
        assert lfsr.state == 99

    def test_negative_jump_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLFSR(8).jump(-1)


class TestNetlist:
    @pytest.mark.parametrize("width", [4, 7, 13])
    def test_netlist_matches_software(self, width):
        nl = build_lfsr_netlist(width, seed=5)
        sim = SequentialSimulator(nl)
        # cycle 0 emits the seed; cycle c ≥ 1 emits step^c(seed)
        assert int(sim.step({})["state"][0]) == 5
        ref = FibonacciLFSR(width, seed=5)
        for _ in range(min(200, (1 << width) - 1)):
            assert int(sim.step({})["state"][0]) == ref.next_word()

    def test_netlist_register_count(self):
        nl = build_lfsr_netlist(16)
        assert nl.num_registers == 16

    def test_netlist_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            build_lfsr_netlist(8, seed=0)


def test_fibonacci_and_galois_differ_but_both_maximal():
    """Same tap table, different forms: different sequences, same period."""
    f = FibonacciLFSR(9, seed=1)
    g = GaloisLFSR(9, seed=1)
    fw = [f.next_word() for _ in range(20)]
    gw = [g.next_word() for _ in range(20)]
    assert fw != gw
