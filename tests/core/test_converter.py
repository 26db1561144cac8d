"""Index-to-permutation converter: functional model, netlists, pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.converter import IndexToPermutationConverter
from repro.core.factorial import factorial
from repro.core.lehmer import unrank_naive
from repro.hdl.simulator import CombinationalSimulator


class TestFunctional:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_lehmer_unranking(self, n):
        conv = IndexToPermutationConverter(n)
        for i in range(factorial(n)):
            assert conv.convert(i) == unrank_naive(i, n)

    def test_paper_table_one_permutations(self):
        conv = IndexToPermutationConverter(4)
        assert conv.convert(0) == (0, 1, 2, 3)
        assert conv.convert(1) == (0, 1, 3, 2)
        assert conv.convert(23) == (3, 2, 1, 0)

    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, math.factorial(n) - 1))))
    def test_convert_batch_matches_scalar(self, case):
        n, i = case
        conv = IndexToPermutationConverter(n)
        assert tuple(conv.convert_batch([i])[0]) == conv.convert(i)

    def test_out_of_range_rejected(self):
        conv = IndexToPermutationConverter(3)
        with pytest.raises(ValueError):
            conv.convert(6)
        with pytest.raises(ValueError):
            conv.convert(-1)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            IndexToPermutationConverter(0)

    def test_invalid_input_permutation_rejected(self):
        with pytest.raises(ValueError):
            IndexToPermutationConverter(3, input_permutation=(0, 0, 1))

    def test_custom_input_permutation(self):
        pool = (2, 0, 3, 1)
        conv = IndexToPermutationConverter(4, input_permutation=pool)
        assert conv.convert(0) == pool
        for i in range(24):
            assert conv.convert(i) == unrank_naive(i, 4, pool)

    def test_iteration_yields_all(self):
        conv = IndexToPermutationConverter(4)
        perms = list(conv)
        assert len(perms) == 24 and len(set(perms)) == 24


class TestStages:
    def test_stage_specs(self):
        stages = IndexToPermutationConverter(4).stages
        assert [s.pool_size for s in stages] == [4, 3, 2, 1]
        assert [s.weight for s in stages] == [6, 2, 1, 1]
        assert stages[0].thresholds == (6, 12, 18)
        assert [s.comparators for s in stages] == [3, 2, 1, 0]

    def test_index_width_shrinks_through_stages(self):
        stages = IndexToPermutationConverter(6).stages
        widths = [s.index_bits_in for s in stages]
        assert widths == sorted(widths, reverse=True)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_comparator_counts(self, n):
        conv = IndexToPermutationConverter(n)
        assert conv.comparator_count() == n * (n - 1) // 2
        assert conv.paper_comparator_count() == n * (n + 1) // 2
        assert sum(s.comparators for s in conv.stages) == conv.comparator_count()

    def test_latency_and_throughput(self):
        conv = IndexToPermutationConverter(7)
        assert conv.latency == 7
        assert conv.pipeline_register_stages == 6
        assert conv.throughput == 1.0


class TestNetlist:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_combinational_exhaustive(self, n):
        conv = IndexToPermutationConverter(n)
        got = conv.simulate_netlist(range(factorial(n)))
        want = conv.convert_batch(range(factorial(n)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [6, 8])
    def test_combinational_random_sample(self, n, rng):
        conv = IndexToPermutationConverter(n)
        idx = rng.integers(0, factorial(n), size=64)
        got = conv.simulate_netlist(idx)
        want = conv.convert_batch(idx)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pipelined_stream_equals_combinational(self, n):
        conv = IndexToPermutationConverter(n)
        idx = list(range(factorial(n)))
        assert np.array_equal(
            conv.simulate_netlist(idx, pipelined=True),
            conv.simulate_netlist(idx, pipelined=False),
        )

    def test_pipelined_register_count_structure(self):
        """One register bank per stage boundary — latency n−1 banks."""
        conv = IndexToPermutationConverter(5)
        nl = conv.build_netlist(pipelined=True)
        assert nl.num_registers > 0
        assert conv.build_netlist(pipelined=False).num_registers == 0

    def test_netlist_is_combinational_when_unpipelined(self):
        nl = IndexToPermutationConverter(6).build_netlist()
        nl.check()
        assert nl.num_registers == 0

    def test_word_output_packs_msb_first(self):
        nl = IndexToPermutationConverter(4).build_netlist()
        sim = CombinationalSimulator(nl)
        outs = sim.run({"index": [23, 0, 1]})
        # 3 2 1 0 -> 228; 0 1 2 3 -> 0b00011011 = 27; 0 1 3 2 -> 30
        assert [int(v) for v in outs["word"]] == [228, 27, 30]

    def test_custom_pool_netlist(self):
        pool = (3, 1, 0, 2)
        conv = IndexToPermutationConverter(4, input_permutation=pool)
        got = conv.simulate_netlist(range(24))
        want = conv.convert_batch(range(24))
        assert np.array_equal(got, want)

    def test_permutation_input_port(self):
        """The LUT-cascade form: the input permutation as a live port."""
        conv = IndexToPermutationConverter(4)
        nl = conv.build_netlist(permutation_input_port=True)
        sim = CombinationalSimulator(nl)
        pool = (1, 3, 2, 0)
        inputs = {"index": 5}
        inputs.update({f"in{j}": pool[j] for j in range(4)})
        outs = sim.run(inputs)
        want = unrank_naive(5, 4, pool)
        got = tuple(int(outs[f"out{t}"][0]) for t in range(4))
        assert got == want

    def test_netlist_depth_grows_with_n(self):
        depths = [IndexToPermutationConverter(n).build_netlist().depth for n in (3, 5, 7)]
        assert depths == sorted(depths)
