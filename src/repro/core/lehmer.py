"""Ranking and unranking permutations (Lehmer codes).

The converter's defining function is *unranking*: index ``N`` ↦ the ``N``-th
permutation in lexicographic order (paper Table I).  Four interchangeable
implementations exist in this repo, all proven equal by tests:

========================  =======================  =========================
implementation            complexity               where
========================  =======================  =========================
``unrank_naive``          O(n²)                    here — mirrors the paper's
                                                   C baseline stage for stage
``unrank_fenwick``        O(n log n)               here — Fenwick-tree pool
``unrank_batch``          O(n²·B) vectorised       here — NumPy, B at a time
gate-level circuit        O(n) delay, O(n²) area   :mod:`repro.core.converter`
========================  =======================  =========================

All accept an optional *input pool* — the "input permutation" port of
Fig. 1 — defaulting to the identity, in which case index order coincides
with lexicographic order: index 0 ↦ identity, index n!−1 ↦ reversal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.factorial import factorial, digits_from_index, max_index
from repro.errors import InvalidIndexError, InvalidPermutationError

#: np.bitwise_count arrived in NumPy 2.0; older installs use the
#: (B, n, n) comparison cube in :func:`_digit_rows` (same results, more
#: memory).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

__all__ = [
    "unrank",
    "rank",
    "unrank_naive",
    "rank_naive",
    "unrank_fenwick",
    "rank_fenwick",
    "unrank_batch",
    "rank_batch",
    "lehmer_digit_batch",
    "weighted_digit_sums",
    "lehmer_digits",
    "permutation_from_lehmer",
]

#: Above this size the dispatching front-ends switch to the Fenwick path.
_FENWICK_THRESHOLD = 32


def _validated_pool(n: int, pool: Sequence[int] | None) -> list[int]:
    if pool is None:
        return list(range(n))
    p = [int(x) for x in pool]
    if len(p) != n:
        raise InvalidPermutationError(f"pool has {len(p)} elements, expected {n}")
    return p


def unrank_naive(index: int, n: int, pool: Sequence[int] | None = None) -> tuple[int, ...]:
    """O(n²) unranking by digit extraction + list pop.

    This is the algorithm of the paper's software baseline: compute the
    factorial digits high-to-low and pick the ``s``-th remaining element
    of the pool at each step.
    """
    if not (0 <= index < factorial(n)):
        raise InvalidIndexError(f"index {index} outside 0..{max_index(n)}")
    remaining = _validated_pool(n, pool)
    digits = digits_from_index(index, n)
    out = []
    for i in range(n - 1, -1, -1):
        out.append(remaining.pop(digits[i]))
    return tuple(out)


def rank_naive(perm: Sequence[int], pool: Sequence[int] | None = None) -> int:
    """O(n²) ranking: invert the pool selection to recover each digit."""
    p = list(perm)
    n = len(p)
    remaining = _validated_pool(n, pool)
    index = 0
    for i, v in enumerate(p):
        try:
            d = remaining.index(v)
        except ValueError:
            raise InvalidPermutationError(
                f"{perm!r} is not drawn from the pool"
            ) from None
        index += d * factorial(n - 1 - i)
        remaining.pop(d)
    return index


class _Fenwick:
    """Fenwick (binary indexed) tree over unit counts, with an O(log n)
    'find the k-th live slot' descent."""

    def __init__(self, n: int):
        self.n = n
        # initialise to all-ones counts in O(n)
        self.tree = [0] * (n + 1)
        for i in range(1, n + 1):
            self.tree[i] += 1
            j = i + (i & -i)
            if j <= n:
                self.tree[j] += self.tree[i]
        self.log = max(1, n.bit_length())

    def prefix(self, i: int) -> int:
        """Count of live slots with position < i (positions are 0-based)."""
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return s

    def remove(self, pos: int) -> None:
        i = pos + 1
        while i <= self.n:
            self.tree[i] -= 1
            i += i & -i

    def kth(self, k: int) -> int:
        """0-based position of the (k+1)-th live slot."""
        pos = 0
        rem = k + 1
        for step in range(self.log, -1, -1):
            nxt = pos + (1 << step)
            if nxt <= self.n and self.tree[nxt] < rem:
                pos = nxt
                rem -= self.tree[pos]
        return pos  # 0-based because pos counts fully-skipped slots


def unrank_fenwick(index: int, n: int, pool: Sequence[int] | None = None) -> tuple[int, ...]:
    """O(n log n) unranking via a Fenwick tree over the live pool."""
    if not (0 <= index < factorial(n)):
        raise InvalidIndexError(f"index {index} outside 0..{max_index(n)}")
    base = _validated_pool(n, pool)
    digits = digits_from_index(index, n)
    tree = _Fenwick(n)
    out = []
    for i in range(n - 1, -1, -1):
        pos = tree.kth(digits[i])
        tree.remove(pos)
        out.append(base[pos])
    return tuple(out)


def rank_fenwick(perm: Sequence[int]) -> int:
    """O(n log n) ranking (identity pool): digit_i = live slots below p[i]."""
    p = [int(x) for x in perm]
    n = len(p)
    if sorted(p) != list(range(n)):
        raise InvalidPermutationError(f"{perm!r} is not a permutation of 0..{n - 1}")
    tree = _Fenwick(n)
    index = 0
    for i, v in enumerate(p):
        index += tree.prefix(v) * factorial(n - 1 - i)
        tree.remove(v)
    return index


def unrank_batch(
    indices: Sequence[int] | np.ndarray, n: int, pool: Sequence[int] | None = None
) -> np.ndarray:
    """Vectorised unranking: B indices → a ``(B, n)`` int array.

    All digit extraction and pool compaction is NumPy array arithmetic —
    this is the software throughput champion used by the Table-II harness
    and the Monte-Carlo applications.  Falls back to the Fenwick path for
    ``n > 20`` where indices exceed int64.
    """
    idx_list = [int(i) for i in np.asarray(indices, dtype=object).ravel()]
    limit = factorial(n)
    for i in idx_list:
        if not (0 <= i < limit):
            raise InvalidIndexError(f"index {i} outside 0..{limit - 1}")
    if n > 20:
        return np.array([unrank_fenwick(i, n, pool) for i in idx_list], dtype=np.int64)

    b = len(idx_list)
    idx = np.asarray(idx_list, dtype=np.int64)
    digits = np.zeros((b, n), dtype=np.int64)  # digits[:, i] = s_i
    for i in range(1, n):
        digits[:, i] = idx % (i + 1)
        idx //= i + 1

    base = np.asarray(_validated_pool(n, pool), dtype=np.int64)
    pool_arr = np.broadcast_to(base, (b, n)).copy()
    rows = np.arange(b)
    out = np.empty((b, n), dtype=np.int64)
    for position in range(n):
        d = digits[:, n - 1 - position]
        out[:, position] = pool_arr[rows, d]
        width = n - 1 - position
        if width:
            cols = np.arange(width)
            shifted = cols[None, :] + (cols[None, :] >= d[:, None])
            pool_arr = pool_arr[rows[:, None], shifted]
    return out


#: Rows per pass of the digit sweep, which bounds its ``(n, rows)``
#: temporaries (one default sweep of :mod:`repro.analysis.stream`).
PASS_ROWS = 8192

#: ``1`` in the narrowest unsigned word that holds ``n`` bits, by ``n``.
_WORD_ONES = [np.min_scalar_type((1 << n) - 1).type(1) for n in range(65)]

#: The factorial weights ``(n−1)!, …, 0!`` of a rank, by ``n ≤ 20``.
_RANK_WEIGHTS = [tuple(factorial(n - 1 - i) for i in range(n)) for n in range(21)]


def _perm_rows(perms: np.ndarray, validate: bool) -> np.ndarray:
    """``perms`` as a ``(B, n)`` integer array — in its own integer
    dtype, anything else as int64 — its rows checked to be permutations
    of ``0..n−1`` when ``validate``."""
    p = np.asarray(perms)
    if p.dtype.kind not in "iu":
        p = p.astype(np.int64)
    if p.ndim != 2:
        raise ValueError("expected a (B, n) array")
    if validate:
        b, n = p.shape
        expected = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n))
        if not np.array_equal(np.sort(p, axis=1), expected):
            raise InvalidPermutationError("rows are not permutations of 0..n-1")
    return p


def _elements(perms: np.ndarray, validate: bool) -> np.ndarray:
    """``perms`` as a C-ordered ``(n, B)`` element matrix in the
    narrowest unsigned dtype that holds ``n − 1`` — no copy for a
    stream sweep's rows, the transpose of its ``uint8`` word matrix."""
    p = _perm_rows(perms, validate)
    return np.asarray(p.T, dtype=np.min_scalar_type(max(p.shape[1] - 1, 0)), order="C")


def _digit_rows(elems: np.ndarray) -> np.ndarray:
    """Lehmer digits of an :func:`_elements` matrix, in its dtype: row
    ``i`` is ``p_i`` minus the count of earlier elements below it.

    One matrix-wide pass: ``bits = 1 << p`` in the narrowest word that
    holds ``n`` bits, a running OR down the rows, then ``p −
    popcount(seen & (bits − 1))`` (the OR may include the element's own
    bit: ``bits − 1`` masks it out).  Without ``np.bitwise_count`` or
    past 64 bits, the ``(rows, n, n)`` comparison cube counts instead.
    """
    n = elems.shape[0]
    if not _HAS_BITWISE_COUNT or n > 64:
        p = elems.T
        earlier_smaller = p[:, None, :] < p[:, :, None]  # [b, i, j] = p_j < p_i
        strictly_before = np.tri(n, k=-1, dtype=bool)  # [i, j] = j < i
        return elems - (earlier_smaller & strictly_before).sum(axis=2, dtype=p.dtype).T
    one = _WORD_ONES[n]
    bits = np.left_shift(one, elems)
    seen = bits.copy()
    rows = list(seen)
    for prev, row in zip(rows, rows[1:]):
        np.bitwise_or(prev, row, row)
    bits -= one
    seen &= bits
    return elems - np.bitwise_count(seen)


@lru_cache(maxsize=None)
def _sum_plan(weights: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Typed weights and bound of :func:`weighted_digit_sums`."""
    n = len(weights)
    bound = sum((n - 1 - i) * w for i, w in enumerate(weights))
    return np.array(weights, dtype=np.min_scalar_type(max(bound, n - 1))), bound


def weighted_digit_sums(
    perms: np.ndarray, weights: Sequence[int], *, validate: bool = True
) -> tuple[np.ndarray, int]:
    """``Σᵢ dᵢ·weights[i]`` over the Lehmer digits of each row of a
    ``(B, n)`` array, and its bound ``Σᵢ (n−1−i)·weights[i]``: the
    :func:`_digit_rows` of :data:`PASS_ROWS` columns of the
    :func:`_elements` matrix at a time, cast to the narrowest unsigned
    dtype that holds the bound (NumPy 1.x would wrap ``uint8`` digits
    times a weight that fits a byte in ``uint8``) and summed in it.
    """
    elems = _elements(perms, validate)
    typed, bound = _sum_plan(tuple(weights))
    total = np.zeros(elems.shape[1], dtype=typed.dtype)
    for lo in range(0, len(total), PASS_ROWS):
        digits = _digit_rows(elems[:, lo : lo + PASS_ROWS]).astype(typed.dtype, copy=False)
        out = total[lo : lo + PASS_ROWS]
        for d, w in zip(digits[:-1], typed):  # the last digit is always 0
            out += d * w
    return total, bound


def lehmer_digit_batch(perms: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Vectorised Lehmer digits of a ``(B, n)`` array → ``(B, n)`` int64,
    the paper's high-to-low order (``out[:, 0]`` weighs ``(n−1)!``), for
    any ``n``.  ``validate=False`` skips the rows-are-permutations
    precheck (on arbitrary input the digits mean nothing)."""
    return _digit_rows(_elements(perms, validate)).T.astype(np.int64)


def rank_batch(perms: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Vectorised int64 ranks of a ``(B, n)`` array (identity pool, n ≤ 20).

    :func:`weighted_digit_sums` against the factorial weights — about
    3n NumPy calls at any batch size, so one ranker serves both the
    serving tier's per-batch rank oracle and population blocks.

    ``validate=False`` skips the rows-are-permutations precheck for
    callers that have already established it (the served-batch oracle
    checks bijectivity first to classify the failure).
    """
    p = _perm_rows(perms, validate)
    n = p.shape[1]
    if n > 20:
        raise ValueError("rank_batch supports n ≤ 20 (int64 indices); use rank_fenwick")
    return weighted_digit_sums(p, _RANK_WEIGHTS[n], validate=False)[0].astype(np.int64)


def lehmer_digits(perm: Sequence[int]) -> tuple[int, ...]:
    """Factorial digit vector (LSB first) of a permutation of 0..n−1."""
    p = list(perm)
    n = len(p)
    index = rank_fenwick(p) if n > _FENWICK_THRESHOLD else rank_naive(p)
    return digits_from_index(index, n)


def permutation_from_lehmer(
    digits: Sequence[int], pool: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Apply a digit vector (LSB first) directly to a pool."""
    n = len(digits)
    remaining = _validated_pool(n, pool)
    out = []
    for i in range(n - 1, -1, -1):
        d = digits[i]
        if not (0 <= d <= i):
            raise ValueError(f"digit s_{i}={d} violates 0 ≤ s_i ≤ i")
        out.append(remaining.pop(d))
    return tuple(out)


def unrank(index: int, n: int, pool: Sequence[int] | None = None) -> tuple[int, ...]:
    """Size-dispatching unranking front-end."""
    if n > _FENWICK_THRESHOLD:
        return unrank_fenwick(index, n, pool)
    return unrank_naive(index, n, pool)


def rank(perm: Sequence[int]) -> int:
    """Size-dispatching ranking front-end (identity pool)."""
    if len(perm) > _FENWICK_THRESHOLD:
        return rank_fenwick(perm)
    return rank_naive(perm)
