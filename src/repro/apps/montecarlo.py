"""The sorting-assessment Monte-Carlo study (paper §I, ref. [14]).

Oommen & Ng: "compared to other sorting algorithms, the Insertion Sort
is known to be efficient when the list is almost sorted, and
inefficient when the list is almost unsorted" — quantified here by
counting Insertion-Sort element moves over permutation ensembles of
controlled sortedness.  (The paper's other Monte-Carlo workload, the
derangement estimate of e, is a ``shuffle``-source campaign of
:mod:`repro.analysis.stream`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.knuth import KnuthShuffleCircuit

__all__ = [
    "insertion_sort_cost",
    "SortednessPoint",
    "sortedness_study",
]


def insertion_sort_cost(perm: Sequence[int]) -> int:
    """Number of element moves Insertion Sort performs on ``perm``.

    Equals the inversion count — 0 for sorted input, ``n(n−1)/2`` for the
    reversal.
    """
    arr = list(perm)
    moves = 0
    for i in range(1, len(arr)):
        key = arr[i]
        j = i - 1
        while j >= 0 and arr[j] > key:
            arr[j + 1] = arr[j]
            moves += 1
            j -= 1
        arr[j + 1] = key
    return moves


def _partial_shuffle(n: int, swaps: int, rng: np.random.Generator) -> np.ndarray:
    """Identity perturbed by ``swaps`` random transpositions."""
    perm = np.arange(n)
    for _ in range(swaps):
        i, j = rng.integers(0, n, size=2)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@dataclass(frozen=True)
class SortednessPoint:
    """Mean Insertion-Sort cost for one sortedness level."""

    n: int
    swaps: int  #: random transpositions applied to the identity
    trials: int
    mean_moves: float
    mean_displacement: float

    @property
    def normalised_cost(self) -> float:
        """Cost relative to the worst case n(n−1)/2."""
        return self.mean_moves / (self.n * (self.n - 1) / 2)


def sortedness_study(
    n: int = 64,
    swap_levels: Sequence[int] = (0, 1, 2, 4, 8, 16, 32, 64, 128),
    trials: int = 50,
    seed: int = 0,
) -> list[SortednessPoint]:
    """Insertion-Sort cost vs distance from sortedness (ref. [14]).

    Almost-sorted ensembles come from lightly-perturbed identities; the
    fully random end uses the Knuth-shuffle circuit.  The cost curve rises
    from ~0 to ~the random-permutation expectation n(n−1)/4.
    """
    rng = np.random.default_rng(seed)
    out = []
    shuffle = KnuthShuffleCircuit(n, m=31)
    for swaps in swap_levels:
        total_moves = 0
        total_disp = 0
        for _ in range(trials):
            if swaps < 0:
                raise ValueError("swap level must be non-negative")
            perm = _partial_shuffle(n, swaps, rng)
            total_moves += insertion_sort_cost(perm)
            total_disp += int(np.abs(perm - np.arange(n)).sum())
        out.append(
            SortednessPoint(
                n=n,
                swaps=swaps,
                trials=trials,
                mean_moves=total_moves / trials,
                mean_displacement=total_disp / trials,
            )
        )
    # fully random reference point from the hardware shuffle model
    perms = shuffle.sample(trials)
    moves = [insertion_sort_cost(row) for row in perms]
    disp = np.abs(perms - np.arange(n)).sum(axis=1)
    out.append(
        SortednessPoint(
            n=n,
            swaps=n * n,  # sentinel level: fully shuffled via the circuit
            trials=trials,
            mean_moves=float(np.mean(moves)),
            mean_displacement=float(disp.mean()),
        )
    )
    return out
