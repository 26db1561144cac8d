"""The factorial number system (§II of the paper).

Every integer ``0 ≤ N < n!`` has a unique representation

    N = s_{n−1}·(n−1)! + s_{n−2}·(n−2)! + … + s_1·1! + s_0·0!

with ``0 ≤ s_i ≤ i`` (so ``s_0`` is always 0 — the paper keeps it as a
placeholder and so do we).  Digits are stored **LSB first**: ``digits[i]``
is the coefficient of ``i!``.  The paper's Table I prints vectors MSB
first; :meth:`FactorialDigits.__str__` follows that convention.

Two digit-extraction algorithms are provided and cross-checked in the test
suite: the arithmetic ``divmod`` chain, and the *greedy* subtract-compare
chain of the paper's Observation 3 — which is precisely what the hardware
stages implement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "factorial",
    "subfactorial",
    "max_index",
    "index_width",
    "element_width",
    "word_width",
    "digits_from_index",
    "digits_from_index_greedy",
    "index_from_digits",
    "iter_digit_vectors",
    "FactorialDigits",
]


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """``n!`` with memoisation (exact, arbitrary precision)."""
    if n < 0:
        raise ValueError("factorial of a negative number")
    return 1 if n < 2 else n * factorial(n - 1)


@lru_cache(maxsize=None)
def subfactorial(n: int) -> int:
    """Number of derangements ``d_n`` of ``n`` elements (§III-C).

    Exact recurrence ``d_n = (n−1)(d_{n−1} + d_{n−2})``; ``d_n =
    round(n!/e)``, so ``d_n/n!`` tends to ``1/e`` and ``n!/d_n`` is the
    paper's estimator of ``e``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    if n == 1:
        return 0
    return (n - 1) * (subfactorial(n - 1) + subfactorial(n - 2))


def max_index(n: int) -> int:
    """The largest valid index, ``n! − 1`` (paper Observation 1).

    Equals ``Σ_{i<n} i·i!`` — the all-maximal digit vector ``(n−1)…1 0``.
    """
    return factorial(n) - 1


def index_width(n: int) -> int:
    """Bits needed for the index input: ``ceil(log2 n!)`` (≥ 1)."""
    return max(1, max_index(n).bit_length())


def element_width(n: int) -> int:
    """Bits per permutation element: ``ceil(log2 n)`` (≥ 1)."""
    return max(1, (n - 1).bit_length())


def word_width(n: int) -> int:
    """Bits in the packed output word, ``n·ceil(log2 n)``.

    The paper notes this is 36 for n = 9 — wide for a CPU register but
    trivial for an FPGA word.
    """
    return n * element_width(n)


def digits_from_index(index: int, n: int) -> tuple[int, ...]:
    """Factorial digits of ``index`` via the divmod chain (LSB first)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 <= index < factorial(n)):
        raise ValueError(f"index {index} outside 0..{max_index(n)}")
    digits = []
    for radix in range(1, n + 1):
        index, d = divmod(index, radix)
        digits.append(d)
    return tuple(digits)


def digits_from_index_greedy(index: int, n: int) -> tuple[int, ...]:
    """Factorial digits via the paper's greedy algorithm (Observation 3).

    For each place ``i`` from high to low, the digit is the largest ``s``
    with ``s·i! ≤ N`` — found in hardware by comparing ``N`` against the
    multiples ``i!, 2·i!, …, i·i!`` and subtracting the matched one.  The
    comparator semantics here mirror the circuit stage for stage.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 <= index < factorial(n)):
        raise ValueError(f"index {index} outside 0..{max_index(n)}")
    remaining = index
    out = [0] * n
    for i in range(n - 1, 0, -1):
        weight = factorial(i)
        s = 0
        for j in range(1, i + 1):  # thermometer of comparators N ≥ j·i!
            if remaining >= j * weight:
                s = j
        remaining -= s * weight
        out[i] = s
    assert remaining == 0
    return tuple(out)


def index_from_digits(digits: Sequence[int]) -> int:
    """Evaluate a digit vector back to its integer (paper eq. (1))."""
    total = 0
    for i, d in enumerate(digits):
        if not (0 <= d <= i):
            raise ValueError(f"digit s_{i}={d} violates 0 ≤ s_i ≤ i")
        total += d * factorial(i)
    return total


def iter_digit_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All digit vectors for width ``n``, in increasing index order.

    Implemented as a mixed-radix odometer: place ``i`` has radix ``i+1``,
    so incrementing costs amortised O(1) — the software analogue of
    streaming one index per clock into the converter.
    """
    digits = [0] * n
    while True:
        yield tuple(digits)
        i = 1
        while i < n and digits[i] == i:
            digits[i] = 0
            i += 1
        if i >= n:
            return
        digits[i] += 1


@dataclass(frozen=True)
class FactorialDigits:
    """A validated factorial-number-system value.

    ``digits[i]`` is the coefficient of ``i!`` (LSB first); ``str()``
    renders MSB first to match the paper's Table I.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        for i, d in enumerate(self.digits):
            if not (0 <= d <= i):
                raise ValueError(f"digit s_{i}={d} violates 0 ≤ s_i ≤ i")

    @classmethod
    def from_index(cls, index: int, n: int) -> "FactorialDigits":
        return cls(digits_from_index(index, n))

    @property
    def n(self) -> int:
        return len(self.digits)

    def __int__(self) -> int:
        return index_from_digits(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __str__(self) -> str:
        return " ".join(str(d) for d in reversed(self.digits))

    def expansion(self) -> str:
        """Human-readable ``s·i!`` expansion, e.g. ``2·2!+1·1!+0·0!``."""
        terms = [f"{d}·{i}!" for i, d in reversed(list(enumerate(self.digits)))]
        return " + ".join(terms)
