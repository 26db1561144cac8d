"""The paper's primary contribution: index ⇄ permutation conversion.

Modules
-------
factorial
    The factorial number system (§II): digit vectors, greedy extraction,
    odometer iteration, bit-width accounting.
permutation
    A :class:`~repro.core.permutation.Permutation` value type: compose,
    invert, apply, cycles, fixed points and the paper's packed-word
    encoding.
lehmer
    Index→permutation (*unranking*) and permutation→index (*ranking*) in
    four interchangeable implementations: naive O(n²), Fenwick-tree
    O(n log n), vectorised NumPy batch, and the gate-level circuit.
converter
    The §II index-to-permutation converter: a stage-accurate functional
    model plus a structural netlist builder (combinational or pipelined).
knuth
    The §III Knuth-shuffle random permutation circuit.
sequences
    Streaming enumeration of all n! permutations in index order.
"""

from repro.core.factorial import (
    factorial,
    subfactorial,
    max_index,
    index_width,
    element_width,
    word_width,
    FactorialDigits,
    digits_from_index,
    digits_from_index_greedy,
    index_from_digits,
    iter_digit_vectors,
)
from repro.core.permutation import Permutation
from repro.core.lehmer import (
    unrank,
    rank,
    unrank_naive,
    rank_naive,
    unrank_fenwick,
    rank_fenwick,
    unrank_batch,
    rank_batch,
    lehmer_digits,
    permutation_from_lehmer,
)
from repro.core.converter import IndexToPermutationConverter, StageSpec
from repro.core.inverse_converter import PermutationToIndexConverter
from repro.core.serial_converter import SerialConverter
from repro.core.orders import (
    mr_rank,
    mr_unrank,
    mr_unrank_batch,
    sjt_permutations,
    sjt_transposition_sequence,
)
from repro.core.benes import BenesNetwork, BenesSettings, route as benes_route
from repro.core.knuth import KnuthShuffleCircuit
from repro.core.sequences import PermutationSequence, all_permutations

__all__ = [
    "factorial",
    "subfactorial",
    "max_index",
    "index_width",
    "element_width",
    "word_width",
    "FactorialDigits",
    "digits_from_index",
    "digits_from_index_greedy",
    "index_from_digits",
    "iter_digit_vectors",
    "Permutation",
    "unrank",
    "rank",
    "unrank_naive",
    "rank_naive",
    "unrank_fenwick",
    "rank_fenwick",
    "unrank_batch",
    "rank_batch",
    "lehmer_digits",
    "permutation_from_lehmer",
    "IndexToPermutationConverter",
    "StageSpec",
    "PermutationToIndexConverter",
    "SerialConverter",
    "mr_rank",
    "mr_unrank",
    "mr_unrank_batch",
    "sjt_permutations",
    "sjt_transposition_sequence",
    "BenesNetwork",
    "BenesSettings",
    "benes_route",
    "KnuthShuffleCircuit",
    "PermutationSequence",
    "all_permutations",
]
