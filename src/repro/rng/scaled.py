"""The Fig.-2 scaled random-integer generator and its bias analysis.

The block converts an ``m``-bit LFSR word ``x`` (read as a fraction
``0 < x/2^m < 1``) into an integer ``i`` uniform-ish on ``0..k−1``::

    i = floor(k * x / 2^m)          # multiply, right-shift, truncate

The multiplier is a shift-and-add network because ``k`` is a compile-time
constant (``k = n!`` for an index generator, or the number of swap choices
for a Knuth-shuffle stage).

Because a maximal LFSR emits every word in ``1..2^m − 1`` exactly once per
period, the distribution of ``i`` over one period is *exactly* computable —
no sampling required.  :func:`bias_profile` returns those closed-form
counts; the paper's two worked examples fall out directly:

* ``m = 5, k = 24``: 31 words over 24 bins — 7 integers occur twice, 17
  once, a 2× probability ratio ("seven of the random integers are
  generated from two random numbers, while 17 are generated from one");
* ``m = 31, k = 24``: the ratio drops to within ~10⁻⁵ % of uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hdl.netlist import Netlist
from repro.hdl.components import shift_add_mult_const, truncate_high, zero_extend
from repro.rng.lfsr import FibonacciLFSR, LFSRBase, add_lfsr, dense_seed

__all__ = [
    "scale_word",
    "scale_words",
    "ScaledRandomInteger",
    "BiasReport",
    "bias_profile",
    "empirical_bias",
    "build_scaled_netlist",
]


def scale_word(x: int, k: int, m: int) -> int:
    """Map one ``m``-bit word to ``floor(k·x / 2^m)`` ∈ ``0..k−1``."""
    if not (0 <= x < (1 << m)):
        raise ValueError(f"x={x} is not an {m}-bit word")
    return (k * x) >> m


_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def scale_words(words: np.ndarray, k: int, m: int) -> np.ndarray:
    """:func:`scale_word` over a batch of ``m``-bit words, as ``int64``.

    Exact for every ``k < 2^63`` and ``m ≤ 63`` in ``uint64``: when
    ``k·x`` fits 64 bits it is one multiply and shift; otherwise the
    128-bit product is assembled from 32-bit limb products (each partial
    sum stays below ``2^64`` under those bounds) and the shift takes its
    high and low words.  Larger operands go through Python integers.
    """
    if words.dtype == object or k >= 1 << 63 or m > 63:
        return np.fromiter(
            ((k * int(w)) >> m for w in words), dtype=np.int64, count=len(words)
        )
    x = words.astype(np.uint64)
    if k.bit_length() + m <= 64:
        return ((x * np.uint64(k)) >> np.uint64(m)).astype(np.int64)
    k_lo, k_hi = np.uint64(k & 0xFFFFFFFF), np.uint64(k >> 32)
    x_lo, x_hi = x & _LOW32, x >> _U32
    low = x_lo * k_lo
    mid = x_hi * k_lo + x_lo * k_hi + (low >> _U32)
    high = x_hi * k_hi + (mid >> _U32)
    low = (mid << _U32) | (low & _LOW32)
    scaled = (high << np.uint64(64 - m)) | (low >> np.uint64(m))
    return scaled.astype(np.int64)


@dataclass(frozen=True)
class BiasReport:
    """Exact per-integer occurrence counts over one full LFSR period."""

    k: int
    m: int
    counts: tuple[int, ...]  #: counts[i] = #states mapping to integer i

    @property
    def period(self) -> int:
        return (1 << self.m) - 1

    @property
    def min_count(self) -> int:
        return min(self.counts)

    @property
    def max_count(self) -> int:
        return max(self.counts)

    @property
    def ratio(self) -> float:
        """Max/min probability ratio (the paper's pigeonhole headline)."""
        if self.min_count == 0:
            return float("inf")
        return self.max_count / self.min_count

    @property
    def max_relative_error(self) -> float:
        """Largest relative deviation of P(i) from the ideal 1/k."""
        ideal = self.period / self.k
        return max(abs(c - ideal) for c in self.counts) / ideal

    def histogram(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


def bias_profile(k: int, m: int) -> BiasReport:
    """Closed-form output distribution of the Fig.-2 block.

    Integer ``i`` is produced by the words ``x`` with
    ``ceil(i·2^m / k) ≤ x ≤ ceil((i+1)·2^m / k) − 1`` intersected with the
    LFSR's state set ``1..2^m − 1`` (zero never occurs).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    top = 1 << m
    counts = []
    for i in range(k):
        lo = -(-(i * top) // k)  # ceil
        hi = -(-((i + 1) * top) // k) - 1
        lo = max(lo, 1)
        hi = min(hi, top - 1)
        counts.append(max(0, hi - lo + 1))
    if sum(counts) != top - 1:  # pragma: no cover - closed-form invariant
        raise AssertionError(
            f"bias_profile(k={k}, m={m}) lost states: "
            f"{sum(counts)} != {top - 1}"
        )
    return BiasReport(k=k, m=m, counts=tuple(counts))


def empirical_bias(k: int, lfsr: LFSRBase) -> BiasReport:
    """The Fig.-2 output histogram *counted*, not computed.

    Drives ``lfsr`` through one full period from its current state and
    tallies ``floor(k·x / 2^m)`` for every emitted word.  A maximal LFSR
    visits each nonzero state exactly once per period, so this must
    equal :func:`bias_profile` bin for bin — the property test in
    ``tests/rng/test_scaled.py`` holds the closed-form interval
    arithmetic (including the excluded all-zeros state) to exactly that.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = lfsr.width
    counts = [0] * k
    for x in map(int, lfsr.words(lfsr.period)):
        counts[(k * x) >> m] += 1
    return BiasReport(k=k, m=m, counts=tuple(counts))


class ScaledRandomInteger:
    """A software-exact model of the Fig.-2 generator.

    Wraps an LFSR and applies the constant multiply + truncate on each
    draw.  The default LFSR is the 31-bit Fibonacci register the paper
    uses per Knuth-shuffle stage.
    """

    def __init__(
        self, k: int, lfsr: LFSRBase | None = None, m: int = 31, seed: int | None = None
    ):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        if lfsr is None:
            # Default to a dense seed: low-weight seeds sit in a biased
            # stretch of the low-weight-polynomial m-sequence (see
            # repro.rng.lfsr.dense_seed).
            lfsr = FibonacciLFSR(m, seed=seed if seed is not None else dense_seed(m))
        self.lfsr = lfsr
        self.m = self.lfsr.width

    def next_int(self) -> int:
        """Draw one integer in ``0..k−1``."""
        return scale_word(self.lfsr.next_word(), self.k, self.m)

    def ints(self, count: int) -> np.ndarray:
        """Draw ``count`` integers (vectorised over the LFSR word batch)."""
        return scale_words(self.lfsr.words(count), self.k, self.m)

    def bias(self) -> BiasReport:
        """The exact long-run distribution of this generator."""
        return bias_profile(self.k, self.m)


def build_scaled_netlist(m: int, k: int, seed: int = 1) -> Netlist:
    """Gate-level Fig. 2: LFSR → shift-and-add ``k·x`` → truncate.

    The output bus carries the integer ``i`` (``ceil(log2 k)`` bits); used
    for the per-stage RNG resource accounting behind Table IV.
    """
    nl = Netlist(name=f"scaled_rng_m{m}_k{k}")
    state = add_lfsr(nl, m, seed=seed)
    product = shift_add_mult_const(nl, state, k)
    integer = truncate_high(nl, product, m)
    width = max(1, (k - 1).bit_length())
    if integer.width > width:
        integer = integer[:width]
    else:
        integer = zero_extend(nl, integer, width)
    nl.output("i", integer)
    return nl
