"""Metrics on the symmetric group.

The four classical permutation distances, implemented with their
textbook characterisations (each pinned down by property tests):

=================  ==============================================  =========
metric             definition                                      diameter
=================  ==============================================  =========
Kendall tau        inversions of σ⁻¹π (adjacent-swap distance)     n(n−1)/2
Cayley             n − #cycles of σ⁻¹π (any-swap distance)         n − 1
Hamming            positions where σ, π differ                     n
Spearman footrule  Σ |σ⁻¹(i) − π⁻¹(i)| (total displacement)        ⌊n²/2⌋
=================  ==============================================  =========

Kendall tau and Cayley are exactly the Cayley-graph distances under the
adjacent-transposition and all-transposition generator sets of
:mod:`repro.core.groups` — asserted in the tests, linking the metric and
group views.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.permutation import Permutation

__all__ = [
    "kendall_tau",
    "cayley_distance",
    "hamming_distance",
    "spearman_footrule",
    "normalised",
]


def _as_perms(a: Sequence[int], b: Sequence[int]) -> tuple[Permutation, Permutation]:
    pa = a if isinstance(a, Permutation) else Permutation(a)
    pb = b if isinstance(b, Permutation) else Permutation(b)
    if pa.n != pb.n:
        raise ValueError("permutations act on different sizes")
    return pa, pb


def kendall_tau(a: Sequence[int], b: Sequence[int]) -> int:
    """Minimum adjacent transpositions turning ``a`` into ``b``.

    Equals the inversion count of ``a⁻¹∘b`` (0 when equal, n(n−1)/2 for
    a reversal pair).
    """
    pa, pb = _as_perms(a, b)
    return (pa.inverse() * pb).inversions()


def cayley_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Minimum (arbitrary) transpositions turning ``a`` into ``b``:
    ``n − #cycles(a⁻¹∘b)``."""
    pa, pb = _as_perms(a, b)
    rel = pa.inverse() * pb
    return rel.n - len(rel.cycles())


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Positions at which the one-line forms differ (never exactly 1)."""
    pa, pb = _as_perms(a, b)
    return sum(1 for x, y in zip(pa, pb) if x != y)


def spearman_footrule(a: Sequence[int], b: Sequence[int]) -> int:
    """Total displacement ``Σ_i |pos_a(i) − pos_b(i)|``."""
    pa, pb = _as_perms(a, b)
    inv_a, inv_b = pa.inverse(), pb.inverse()
    return sum(abs(inv_a(i) - inv_b(i)) for i in range(pa.n))


_DIAMETERS = {
    "kendall": lambda n: n * (n - 1) // 2,
    "cayley": lambda n: n - 1,
    "hamming": lambda n: n,
    "footrule": lambda n: (n * n) // 2,
}

_METRICS = {
    "kendall": kendall_tau,
    "cayley": cayley_distance,
    "hamming": hamming_distance,
    "footrule": spearman_footrule,
}


def normalised(metric: str, a: Sequence[int], b: Sequence[int]) -> float:
    """Distance scaled into [0, 1] by the metric's diameter."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    pa, pb = _as_perms(a, b)
    diameter = _DIAMETERS[metric](pa.n)
    if diameter == 0:
        return 0.0
    return _METRICS[metric](pa, pb) / diameter
