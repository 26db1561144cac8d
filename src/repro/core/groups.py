"""Permutation-group machinery over the circuits' swap structures.

The shuffle circuit's correctness rests on a group fact: its per-stage
swaps generate all of S_n, so with uniform stage draws every permutation
is reachable with probability 1/n!.  This module provides the small
group-theoretic toolkit to *check* such facts mechanically rather than
assume them:

* :func:`generated_subgroup` — BFS closure of a generator set (with a
  safety cap), used to verify generator sets reach all n! elements;
* :func:`subgroup_order` / :func:`is_transitive`;
* :func:`cayley_graph` — the Cayley graph as a :mod:`networkx` graph, so
  diameters (worst-case network depth to realise a permutation) and
  distance distributions come from standard graph algorithms;
* conjugacy-class utilities keyed on cycle type.
"""

from __future__ import annotations

from collections import deque
from math import factorial
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.permutation import Permutation

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "generated_subgroup",
    "subgroup_order",
    "is_transitive",
    "generates_symmetric_group",
    "cayley_graph",
    "cayley_diameter",
    "conjugacy_class_sizes",
    "stage_transpositions",
    "adjacent_transpositions",
]


def stage_transpositions(n: int) -> list[Permutation]:
    """The Knuth-shuffle stage swaps: ``(t, j)`` for every stage ``t`` and
    target ``j > t`` — the circuit's generator set."""
    out = []
    for t in range(n - 1):
        for j in range(t + 1, n):
            out.append(Permutation.from_cycles(n, [(t, j)]))
    return out


def adjacent_transpositions(n: int) -> list[Permutation]:
    """The SJT generator set ``(i, i+1)``."""
    return [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(n - 1)]


def generated_subgroup(
    generators: Sequence[Permutation], limit: int | None = None
) -> set[Permutation]:
    """BFS closure of a generator set.

    ``limit`` caps the element count (default n!, the maximum possible);
    exceeding an explicit smaller cap raises, which makes "does this set
    generate more than expected?" checks cheap.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators act on different sizes")
    cap = limit if limit is not None else factorial(n)
    identity = Permutation.identity(n)
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = s * g
            if h not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"subgroup exceeds limit {cap}")
                seen.add(h)
                frontier.append(h)
    return seen


def subgroup_order(generators: Sequence[Permutation]) -> int:
    """Order of the generated subgroup (BFS; fine for n ≤ 8)."""
    return len(generated_subgroup(generators))


def is_transitive(generators: Sequence[Permutation]) -> bool:
    """Does the generated group act transitively on the points?"""
    gens = list(generators)
    n = gens[0].n
    seen = {0}
    frontier = deque([0])
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = g(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def generates_symmetric_group(generators: Sequence[Permutation]) -> bool:
    """True when the generators produce all n! permutations."""
    n = generators[0].n
    return subgroup_order(generators) == factorial(n)


def cayley_graph(n: int, generators: Sequence[Permutation]) -> nx.Graph:
    """Cayley graph of ⟨generators⟩ ≤ S_n (undirected: involutions or
    inverse-closed sets give the usual graph).

    Needs :mod:`networkx`, which the package does not declare, so it is
    imported here and not with the module.
    """
    import networkx as nx

    elements = generated_subgroup(generators)
    g = nx.Graph()
    g.add_nodes_from(elements)
    for x in elements:
        for s in generators:
            g.add_edge(x, s * x)
    return g


def cayley_diameter(n: int, generators: Sequence[Permutation]) -> int:
    """Worst-case generator-steps to reach any group element.

    For adjacent transpositions this is n(n−1)/2 (sorting-network depth
    in single swaps); for the full stage-swap set it is much smaller —
    the trade the two circuits make between wiring and depth.
    """
    import networkx as nx

    graph = cayley_graph(n, generators)
    lengths = nx.single_source_shortest_path_length(graph, Permutation.identity(n))
    if len(lengths) != graph.number_of_nodes():
        raise ValueError("generators do not connect the subgroup")
    return max(lengths.values())


def conjugacy_class_sizes(n: int) -> dict[tuple[int, ...], int]:
    """Size of each conjugacy class of S_n, keyed by cycle type.

    Computed from the standard formula ``n! / Π (k^{m_k} · m_k!)`` over
    partitions; validated in tests against explicit enumeration.
    """

    def partitions(total: int, most: int) -> Iterable[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(min(total, most), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    out: dict[tuple[int, ...], int] = {}
    for part in partitions(n, n):
        size = factorial(n)
        mult: dict[int, int] = {}
        for k in part:
            mult[k] = mult.get(k, 0) + 1
        for k, m in mult.items():
            size //= (k**m) * factorial(m)
        out[tuple(sorted(part))] = size
    return out
