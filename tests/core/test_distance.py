"""Permutation metric tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core.distance import (
    cayley_distance,
    hamming_distance,
    kendall_tau,
    normalised,
    spearman_footrule,
)
from repro.core.groups import adjacent_transpositions, stage_transpositions
from repro.core.permutation import Permutation

perm_pairs = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))).map(Permutation),
        st.permutations(list(range(n))).map(Permutation),
    )
)

ALL_METRICS = [kendall_tau, cayley_distance, hamming_distance, spearman_footrule]


class TestMetricAxioms:
    @given(perm_pairs)
    def test_identity_of_indiscernibles(self, pair):
        a, b = pair
        for metric in ALL_METRICS:
            assert metric(a, a) == 0
            assert (metric(a, b) == 0) == (a == b)

    @given(perm_pairs)
    def test_symmetry(self, pair):
        a, b = pair
        for metric in ALL_METRICS:
            assert metric(a, b) == metric(b, a)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.permutations(list(range(n))).map(Permutation),
        st.permutations(list(range(n))).map(Permutation),
        st.permutations(list(range(n))).map(Permutation))))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        for metric in ALL_METRICS:
            assert metric(a, c) <= metric(a, b) + metric(b, c)

    @given(perm_pairs)
    def test_left_invariance(self, pair):
        """d(σa, σb) = d(a, b) for all four metrics."""
        a, b = pair
        sigma = Permutation.reversal(a.n)
        for metric in (kendall_tau, cayley_distance, hamming_distance, spearman_footrule):
            assert metric(sigma * a, sigma * b) == metric(a, b)


class TestCharacterisations:
    def test_kendall_is_adjacent_swap_graph_distance(self):
        nx = pytest.importorskip("networkx")

        from repro.core.groups import cayley_graph

        n = 4
        g = cayley_graph(n, adjacent_transpositions(n))
        dist = nx.single_source_shortest_path_length(g, Permutation.identity(n))
        for p, d in dist.items():
            assert kendall_tau(Permutation.identity(n), p) == d

    def test_cayley_is_transposition_graph_distance(self):
        nx = pytest.importorskip("networkx")

        from repro.core.groups import cayley_graph

        n = 4
        g = cayley_graph(n, stage_transpositions(n))
        dist = nx.single_source_shortest_path_length(g, Permutation.identity(n))
        for p, d in dist.items():
            assert cayley_distance(Permutation.identity(n), p) == d

    def test_diameters(self):
        ident, rev = Permutation.identity(5), Permutation.reversal(5)
        assert kendall_tau(ident, rev) == 10
        # odd n: the middle element of the reversal is fixed
        assert hamming_distance(ident, rev) == 4
        assert hamming_distance(Permutation.identity(6), Permutation.reversal(6)) == 6

    def test_hamming_never_one(self):
        """No two permutations differ in exactly one position."""
        import itertools

        ident = Permutation.identity(4)
        for p in itertools.permutations(range(4)):
            assert hamming_distance(ident, Permutation(p)) != 1

    def test_footrule_is_displacement(self):
        p = Permutation((1, 0, 2))
        assert spearman_footrule(Permutation.identity(3), p) == 2

    def test_footrule_bounds_kendall(self):
        """Diaconis–Graham: K ≤ F ≤ 2K."""
        import itertools

        ident = Permutation.identity(5)
        for p in itertools.permutations(range(5)):
            k = kendall_tau(ident, Permutation(p))
            f = spearman_footrule(ident, Permutation(p))
            assert k <= f <= 2 * k

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau((0, 1), (0, 1, 2))


class TestNormalised:
    def test_range_and_extremes(self):
        ident, rev = Permutation.identity(6), Permutation.reversal(6)
        assert normalised("kendall", ident, ident) == 0.0
        assert normalised("kendall", ident, rev) == 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            normalised("euclid", (0, 1), (1, 0))

    @given(perm_pairs)
    def test_always_unit_interval(self, pair):
        a, b = pair
        for name in ("kendall", "cayley", "hamming", "footrule"):
            assert 0.0 <= normalised(name, a, b) <= 1.0
