"""Alternative permutation orders: Myrvold–Ruskey and Johnson–Trotter.

The paper's converter fixes *lexicographic* order because the factorial
number system digits select pool positions high-to-low.  The literature it
draws on (Knuth Vol. 4 Fasc. 2/3, refs. [8]–[10]) standardises two other
orders, both provided here as drop-in comparisons and ablation baselines:

* **Myrvold–Ruskey** ("ranking in linear time"): unranking costs O(n)
  swaps instead of O(n²)/O(n log n) pool compaction — the fastest known
  software unranker, at the price of a non-lexicographic order.  Its swap
  recurrence is, not coincidentally, a derandomised Fisher–Yates: the
  Fig.-3 shuffle circuit with digits instead of random draws computes
  this order up to reversal (positions and values mirrored,
  :func:`repro.core.knuth.fold_draws`), linking the paper's two
  circuits — which is why :func:`mr_rank` is the served shuffle's rank
  oracle.
* **Steinhaus–Johnson–Trotter** (plain changes): enumerates all n!
  permutations so that successive permutations differ by one adjacent
  transposition — the minimal-change property hardware generators use to
  cut output toggling.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.factorial import factorial

__all__ = [
    "mr_unrank",
    "mr_rank",
    "mr_unrank_batch",
    "sjt_permutations",
    "sjt_transposition_sequence",
]


def mr_unrank(index: int, n: int) -> tuple[int, ...]:
    """Myrvold–Ruskey unranking: O(n) time, O(1) extra space.

    Order differs from lexicographic; ``mr_rank`` is its exact inverse.
    """
    if not (0 <= index < factorial(n)):
        raise ValueError(f"index {index} outside 0..{factorial(n) - 1}")
    perm = list(range(n))
    r = index
    for m in range(n, 0, -1):
        r, d = divmod(r, m)
        perm[m - 1], perm[d] = perm[d], perm[m - 1]
    return tuple(perm)


def mr_rank(perm: Sequence[int]) -> int:
    """Myrvold–Ruskey ranking: O(n) with the inverse-permutation trick.

    The classic recursion made iterative: the digit for radix ``m`` is the
    value at slot ``m−1``; value ``m−1`` is then swapped home so the
    prefix is again a permutation of ``0..m−2``.
    """
    p = list(perm)
    n = len(p)
    if sorted(p) != list(range(n)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{n - 1}")
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    digits = []  # d_n first
    for m in range(n, 0, -1):
        s = p[m - 1]
        digits.append(s)
        # swap value m−1 into slot m−1 (undo the unranking swap)
        i = inv[m - 1]
        p[m - 1], p[i] = p[i], p[m - 1]
        inv[s], inv[m - 1] = inv[m - 1], inv[s]
    rank = 0
    for m, d in zip(range(1, n + 1), reversed(digits)):
        rank = rank * m + d
    return rank


def mr_unrank_batch(indices: Sequence[int], n: int) -> np.ndarray:
    """Vectorised Myrvold–Ruskey unranking over a batch (n ≤ 20)."""
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    limit = factorial(n)
    if (idx < 0).any() or (idx >= limit).any():
        raise ValueError(f"indices outside 0..{limit - 1}")
    b = idx.size
    perms = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    rows = np.arange(b)
    r = idx.copy()
    for m in range(n, 0, -1):
        d = r % m
        r //= m
        right = perms[rows, m - 1].copy()
        perms[rows, m - 1] = perms[rows, d]
        perms[rows, d] = right
    return perms


def sjt_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations by plain changes (adjacent transpositions only).

    Classic directed-integer (Even's speedup) implementation: amortised
    O(1) per output after O(n) setup.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    perm = list(range(n))
    # direction: -1 = looking left, +1 = looking right
    direction = [-1] * n
    yield tuple(perm)
    while True:
        # find the largest mobile element
        mobile = -1
        mobile_pos = -1
        for i, v in enumerate(perm):
            j = i + direction[v]
            if 0 <= j < n and perm[j] < v and v > mobile:
                mobile, mobile_pos = v, i
        if mobile < 0:
            return
        j = mobile_pos + direction[mobile]
        perm[mobile_pos], perm[j] = perm[j], perm[mobile_pos]
        # reverse direction of all elements larger than the mobile one
        for v in range(mobile + 1, n):
            direction[v] = -direction[v]
        yield tuple(perm)


def sjt_transposition_sequence(n: int) -> list[int]:
    """Positions ``i`` such that step k swaps slots ``i, i+1``.

    Length n!−1; feeding these to an adjacent-swap network enumerates all
    permutations with single-crossover transitions (minimal toggling).
    """
    seq = []
    prev = None
    for perm in sjt_permutations(n):
        if prev is not None:
            diff = [i for i in range(n) if perm[i] != prev[i]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
            seq.append(diff[0])
        prev = perm
    return seq
