"""Streaming enumeration of all n! permutations in index order.

The hardware use-case behind Table II: feed the converter a counter and
collect one permutation per clock.  In software the amortised-O(1) way is
the mixed-radix odometer over factorial digits plus incremental pool
updates; :class:`PermutationSequence` also exposes NumPy-batched chunks so
downstream analytics stay vectorised.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.factorial import factorial, iter_digit_vectors
from repro.core.lehmer import permutation_from_lehmer, unrank_batch

__all__ = ["all_permutations", "PermutationSequence"]


def all_permutations(
    n: int, pool: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every permutation of ``n`` elements in increasing index order.

    With the identity pool this is lexicographic order, matching both the
    paper's Table I and ``itertools.permutations(range(n))``.
    """
    for digits in iter_digit_vectors(n):
        yield permutation_from_lehmer(digits, pool)


class PermutationSequence:
    """The full index-ordered sequence with batch and slice access."""

    def __init__(self, n: int, pool: Sequence[int] | None = None):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.pool = tuple(pool) if pool is not None else tuple(range(n))
        if sorted(self.pool) != list(range(n)):
            raise ValueError("pool must permute 0..n-1")
        self.length = factorial(n)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> tuple[int, ...]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self.length)
            idx = list(range(start, stop, step))
            return [tuple(r) for r in unrank_batch(idx, self.n, self.pool)]
        if index < 0:
            index += self.length
        if not (0 <= index < self.length):
            raise IndexError(f"index {index} out of range")
        from repro.core.lehmer import unrank

        return unrank(index, self.n, self.pool)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return all_permutations(self.n, self.pool)

    def batches(self, batch_size: int = 4096) -> Iterator[np.ndarray]:
        """Yield ``(≤batch_size, n)`` arrays covering the whole sequence.

        Streams with bounded memory — iterating 10! = 3.6 M permutations
        never materialises more than one chunk.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        for start in range(0, self.length, batch_size):
            stop = min(start + batch_size, self.length)
            yield unrank_batch(range(start, stop), self.n, self.pool)

    def index_of(self, perm: Sequence[int]) -> int:
        """Position of ``perm`` in this sequence (inverse of indexing)."""
        from repro.core.lehmer import rank_naive

        return rank_naive(perm, pool=self.pool)
