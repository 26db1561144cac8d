"""Group-theory toolkit tests."""

import math

import pytest

from repro.core.groups import (
    adjacent_transpositions,
    cayley_diameter,
    cayley_graph,
    conjugacy_class_sizes,
    generated_subgroup,
    generates_symmetric_group,
    is_transitive,
    stage_transpositions,
    subgroup_order,
)
from repro.core.permutation import Permutation


class TestGenerators:
    def test_stage_swap_count(self):
        assert len(stage_transpositions(6)) == 15  # n(n-1)/2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shuffle_stage_swaps_generate_sn(self, n):
        """The correctness premise of the Fig.-3 circuit."""
        assert generates_symmetric_group(stage_transpositions(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjacent_swaps_generate_sn(self, n):
        """The SJT premise."""
        assert generates_symmetric_group(adjacent_transpositions(n))

    def test_single_cycle_generates_cyclic_group(self):
        rot = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        assert subgroup_order([rot]) == 5

    def test_three_cycles_generate_alternating(self):
        gens = [
            Permutation.from_cycles(4, [(0, 1, 2)]),
            Permutation.from_cycles(4, [(1, 2, 3)]),
        ]
        assert subgroup_order(gens) == 12  # A_4

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            generated_subgroup(stage_transpositions(4), limit=5)

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            generated_subgroup([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generated_subgroup([Permutation.identity(3), Permutation.identity(4)])


class TestTransitivity:
    def test_rotation_is_transitive(self):
        assert is_transitive([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])

    def test_disjoint_swaps_not_transitive(self):
        assert not is_transitive([Permutation.from_cycles(4, [(0, 1)])])


class TestCayley:
    @pytest.fixture(autouse=True)
    def _networkx(self):
        pytest.importorskip("networkx")

    def test_graph_size(self):
        g = cayley_graph(3, adjacent_transpositions(3))
        assert g.number_of_nodes() == 6

    def test_adjacent_diameter_is_max_inversions(self):
        """Distance under adjacent swaps = inversion count, so the
        diameter is n(n−1)/2 (the reversal)."""
        for n in (3, 4, 5):
            assert cayley_diameter(n, adjacent_transpositions(n)) == n * (n - 1) // 2

    def test_all_transpositions_diameter_is_n_minus_1(self):
        """With every transposition available, any permutation needs at
        most n−1 swaps (cycle decomposition) — the Fig.-3 depth."""
        for n in (3, 4, 5):
            assert cayley_diameter(n, stage_transpositions(n)) == n - 1

    def test_disconnected_subgroup_rejected(self):
        # Generators reach only A_4; the graph over A_4 is connected, so
        # this should *work*; a truly disconnected case cannot arise from
        # generated_subgroup.  Assert the A_4 diameter is finite instead.
        gens = [
            Permutation.from_cycles(4, [(0, 1, 2)]),
            Permutation.from_cycles(4, [(1, 2, 3)]),
        ]
        assert cayley_diameter(4, gens) >= 1


class TestConjugacy:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sizes_sum_to_group_order(self, n):
        assert sum(conjugacy_class_sizes(n).values()) == math.factorial(n)

    def test_matches_explicit_enumeration(self):
        import itertools
        from collections import Counter

        explicit = Counter(
            Permutation(p).cycle_type() for p in itertools.permutations(range(5))
        )
        assert dict(explicit) == conjugacy_class_sizes(5)

    def test_known_n4_classes(self):
        sizes = conjugacy_class_sizes(4)
        assert sizes[(1, 1, 1, 1)] == 1  # identity
        assert sizes[(1, 1, 2)] == 6  # transpositions
        assert sizes[(4,)] == 6  # 4-cycles
