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

from typing import Iterator, Sequence

import numpy as np

from repro.core.factorial import factorial, digits_from_index, max_index
from repro.errors import InvalidIndexError, InvalidPermutationError

#: np.bitwise_count arrived in NumPy 2.0; older installs use the
#: (B, n, n) comparison-cube path below (same results, more memory).
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
    "lehmer_digit_columns",
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


_RANK_CONSTANTS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rank_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants for :func:`rank_batch`: tril mask and weights."""
    cached = _RANK_CONSTANTS.get(n)
    if cached is None:
        strictly_before = np.tri(n, k=-1, dtype=bool)  # [i, j] = j < i
        weights = np.array(
            [factorial(n - 1 - i) for i in range(n)], dtype=np.int64
        )
        cached = _RANK_CONSTANTS[n] = (strictly_before, weights)
    return cached


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


def _popcount_digits(p: np.ndarray) -> Iterator[np.ndarray]:
    """Digit columns of ``p`` from one O(B·n) popcount sweep: a running
    bitmask of seen elements per row; the digit is ``p_i`` minus the
    count of seen elements below it.  The mask lives in the narrowest
    unsigned dtype that holds ``n`` bits, and each digit column keeps
    ``p``'s dtype (a ``uint8`` block yields ``uint8`` digits).  Needs
    ``np.bitwise_count`` and ``n ≤ 64``."""
    b, n = p.shape
    dtype = np.min_scalar_type((1 << n) - 1).type
    one = dtype(1)
    seen = np.zeros(b, dtype=dtype)
    for i in range(n):
        col = p[:, i]
        bit = one << col.astype(dtype, copy=False)
        yield col - np.bitwise_count(seen & (bit - one))
        seen |= bit


def lehmer_digit_batch(perms: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Vectorised Lehmer digits of a ``(B, n)`` array → ``(B, n)`` int64.

    ``out[b, i]`` is the digit at *position* ``i`` (the paper's
    high-to-low order: ``out[:, 0]`` weighs ``(n−1)!``), i.e. ``p_i``
    minus the count of earlier elements smaller than ``p_i``.  All B·n
    digits come from one ``(B, n, n)`` pairwise comparison masked to the
    strict lower triangle — a handful of NumPy calls regardless of
    ``n``; the cube is ≤ 400·B bytes of bools for n ≤ 20.  Unlike
    :func:`rank_batch` the digits themselves never overflow (each is
    < n), so this works for any ``n`` — the streaming analysis layer
    buckets digits at n where the rank would not fit an int64.

    ``validate=False`` skips the rows-are-permutations precheck for
    callers that have already established it; on arbitrary input the
    digits would still be computed but mean nothing.
    """
    p = _perm_rows(perms, validate)
    b, n = p.shape
    if _HAS_BITWISE_COUNT and n <= 64:
        # the popcount sweep: ~3× the (B, n, n) cube's throughput at
        # population-scale batch sizes (and n² → n memory), bit-identical
        out = np.empty((b, n), dtype=np.int64)
        for i, digits in enumerate(_popcount_digits(p)):
            out[:, i] = digits
        return out
    strictly_before = np.tri(n, k=-1, dtype=bool)  # [i, j] = j < i
    # smaller_used[b, i] = |{j < i : p[b, j] < p[b, i]}|
    earlier_smaller = p[:, None, :] < p[:, :, None]  # [b, i, j] = p_j < p_i
    return p - (earlier_smaller & strictly_before).sum(axis=2)


def lehmer_digit_columns(
    perms: np.ndarray, *, validate: bool = True
) -> Iterator[np.ndarray]:
    """The columns of :func:`lehmer_digit_batch`, position 0 first.

    With ``np.bitwise_count`` (NumPy ≥ 2.0) and ``n ≤ 64`` each column
    is one step of the popcount sweep, so a caller that folds the
    columns as they come never holds the ``(B, n)`` digit matrix;
    otherwise the matrix is built and its columns returned.  Integer
    input keeps its dtype — narrow columns make every step narrow — so a
    consumer that weights a digit column casts it first.  A column-major
    ``perms`` makes every column read contiguous.
    """
    p = _perm_rows(perms, validate)
    if _HAS_BITWISE_COUNT and p.shape[1] <= 64:
        return _popcount_digits(p)
    return iter(lehmer_digit_batch(p, validate=False).T)


def rank_batch(perms: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Vectorised ranking of a ``(B, n)`` array (identity pool, n ≤ 20).

    The digits come from :func:`lehmer_digit_batch`; ranking is then one
    matrix–vector product against the factorial weights — a handful of
    NumPy calls regardless of ``n``, which is what keeps the serving
    tier's per-batch rank oracle a small fraction of a sweep (a
    per-column Python loop costs ~10× more in dispatch overhead at
    n = 8).

    ``validate=False`` skips the rows-are-permutations precheck for
    callers that have already established it (the served-batch oracle
    checks bijectivity first to classify the failure).
    """
    p = np.asarray(perms, dtype=np.int64)
    if p.ndim != 2:
        raise ValueError("expected a (B, n) array")
    n = p.shape[1]
    if n > 20:
        raise ValueError("rank_batch supports n ≤ 20 (int64 indices); use rank_fenwick")
    _, weights = _rank_constants(n)
    digits = lehmer_digit_batch(p, validate=validate)
    return digits @ weights


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
