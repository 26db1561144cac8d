"""Cross-implementation consistency: every independent path must agree.

The repository implements the index↔permutation map many times over —
arithmetic (three algorithms), vectorised, two gate-level architectures,
an inverse circuit, a serialised netlist, exported-order enumerations.
This suite drives one shared set of random test points through *all* of
them and insists on a single answer, which is the strongest regression
net the repo has: any future change that breaks one path trips here even
if that path's own unit tests were not updated.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.converter import IndexToPermutationConverter
from repro.core.inverse_converter import PermutationToIndexConverter
from repro.core.lehmer import (
    rank_batch,
    rank_fenwick,
    rank_naive,
    unrank_batch,
    unrank_fenwick,
    unrank_naive,
)
from repro.core.permutation import Permutation
from repro.core.sequences import PermutationSequence
from repro.core.serial_converter import SerialConverter
from repro.hdl.serialize import netlist_from_dict, netlist_to_dict
from repro.hdl.simulator import CombinationalSimulator


cases = st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, math.factorial(n) - 1))
)


@given(cases)
@settings(max_examples=30)
def test_six_software_paths_agree(case):
    n, index = case
    conv = IndexToPermutationConverter(n)
    paths = {
        "naive": unrank_naive(index, n),
        "fenwick": unrank_fenwick(index, n),
        "batch": tuple(int(x) for x in unrank_batch([index], n)[0]),
        "converter": conv.convert(index),
        "converter_batch": tuple(int(x) for x in conv.convert_batch([index])[0]),
        "sequence": PermutationSequence(n)[index],
    }
    assert len(set(paths.values())) == 1, paths


@given(cases)
@settings(max_examples=15)
def test_hardware_paths_agree_with_software(case):
    n, index = case
    want = unrank_naive(index, n)
    conv = IndexToPermutationConverter(n)
    assert tuple(conv.simulate_netlist([index])[0]) == want
    if n >= 2:
        assert tuple(SerialConverter(n).simulate_netlist([index])[0]) == want


@given(cases)
@settings(max_examples=15)
def test_ranking_paths_agree(case):
    n, index = case
    perm = unrank_naive(index, n)
    assert rank_naive(perm) == index
    assert rank_fenwick(perm) == index
    assert int(rank_batch(np.array([perm]))[0]) == index
    assert Permutation(perm).index == index
    inv = PermutationToIndexConverter(n)
    assert inv.convert(perm) == index
    assert int(inv.simulate_netlist(np.array([perm]))[0]) == index


@given(cases)
@settings(max_examples=10)
def test_serialised_netlist_still_converts(case):
    n, index = case
    conv = IndexToPermutationConverter(n)
    nl = netlist_from_dict(netlist_to_dict(conv.build_netlist()))
    outs = CombinationalSimulator(nl).run({"index": index})
    got = tuple(int(outs[f"out{t}"][0]) for t in range(n))
    assert got == conv.convert(index)


@given(st.integers(2, 6))
@settings(max_examples=10)
def test_full_bijection_every_path(n):
    """All n! indices, three paths, one total order."""
    total = math.factorial(n)
    a = [unrank_naive(i, n) for i in range(total)]
    b = [tuple(int(x) for x in row) for row in unrank_batch(range(total), n)]
    c = list(PermutationSequence(n))
    assert a == b == c
    assert len(set(a)) == total


def test_word_and_element_outputs_consistent():
    """The packed word output must equal the packed element outputs."""
    conv = IndexToPermutationConverter(5)
    nl = conv.build_netlist()
    sim = CombinationalSimulator(nl)
    outs = sim.run({"index": list(range(0, 120, 7))})
    for lane in range(len(outs["word"])):
        perm = tuple(int(outs[f"out{t}"][lane]) for t in range(5))
        assert int(outs["word"][lane]) == Permutation(perm).packed_value()


def test_knuth_and_indexed_generator_cover_same_space():
    """Both §III generators, the converter enumeration, and itertools all
    cover exactly the same set of n! permutations."""
    import itertools

    from repro.core.knuth import KnuthShuffleCircuit
    from repro.core.lehmer import unrank_batch
    from repro.rng.scaled import ScaledRandomInteger

    n = 4
    universe = set(itertools.permutations(range(n)))
    knuth = {tuple(int(x) for x in r) for r in KnuthShuffleCircuit(n, m=16).sample(5000)}
    draws = ScaledRandomInteger(24, m=16).ints(5000)
    indexed = {tuple(int(x) for x in r) for r in unrank_batch(draws, n)}
    enumerated = set(IndexToPermutationConverter(n))
    assert knuth == indexed == enumerated == universe
