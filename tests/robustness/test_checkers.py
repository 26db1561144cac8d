"""CheckedConverter: input validation, bijectivity, dual-rail, rank oracle."""

import numpy as np
import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.core.factorial import factorial
from repro.core.knuth import KnuthShuffleCircuit, fold_draws
from repro.errors import (
    FaultDetectedError,
    InvalidIndexError,
    SilentCorruptionError,
)
from repro.hdl.components import geq_const
from repro.robustness.checkers import (
    CheckedConverter,
    check_served_batch,
    is_permutation_of,
)
from repro.robustness.faults import FaultOverlay, StuckAtFault, stuck_fault_sites


class TestCleanOperation:
    def test_matches_unchecked(self):
        conv = IndexToPermutationConverter(5)
        checked = CheckedConverter(conv, dual_rail=True)
        for i in (0, 1, 59, 119):
            assert checked.convert(i) == conv.convert(i)
        assert checked.stats.converted == 4
        assert checked.stats.faults_detected == 0

    def test_batch(self):
        conv = IndexToPermutationConverter(4)
        checked = CheckedConverter(conv)
        got = checked.convert_batch(range(24))
        assert np.array_equal(got, conv.convert_batch(range(24)))

    def test_netlist_backend_clean(self):
        conv = IndexToPermutationConverter(4)
        checked = CheckedConverter(conv, use_netlist=True, dual_rail=True)
        assert checked.convert(23) == (3, 2, 1, 0)

    def test_custom_pool(self):
        conv = IndexToPermutationConverter(4, input_permutation=(2, 0, 3, 1))
        checked = CheckedConverter(conv, dual_rail=True)
        for i in range(24):
            assert checked.convert(i) == conv.convert(i)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [-1, 24, 10**6])
    def test_out_of_range(self, bad):
        checked = CheckedConverter(IndexToPermutationConverter(4))
        with pytest.raises(InvalidIndexError):
            checked.convert(bad)
        assert checked.stats.rejected_inputs == 1

    @pytest.mark.parametrize("bad", [1.5, "7", None, True])
    def test_non_integers(self, bad):
        checked = CheckedConverter(IndexToPermutationConverter(4))
        with pytest.raises(InvalidIndexError):
            checked.convert(bad)

    def test_converter_itself_raises_typed(self):
        conv = IndexToPermutationConverter(4)
        with pytest.raises(InvalidIndexError):
            conv.convert(24)
        with pytest.raises(ValueError):  # taxonomy keeps ValueError compat
            conv.convert(-1)


class TestFaultDetection:
    """The acceptance property: no injected fault that changes the output
    escapes a checked conversion."""

    def test_catches_every_corrupting_stuck_fault(self):
        n = 4
        conv = IndexToPermutationConverter(n)
        nl = conv.build_netlist()
        golden = conv.convert_batch(range(factorial(n)))
        escaped = []
        for fault in stuck_fault_sites(nl):
            overlay = FaultOverlay([fault], nl)
            checked = CheckedConverter(conv, use_netlist=True, overlay=overlay)
            try:
                got = checked.convert_batch(range(factorial(n)))
            except FaultDetectedError:
                continue  # caught (SilentCorruptionError is a subclass)
            if not np.array_equal(got, golden):
                escaped.append(fault)
        assert escaped == []

    def test_known_stage_comparator_fault_is_caught(self):
        """Satellite smoke test: stuck-at-1 on the stage-0 ``N >= 1*(n-1)!``
        comparator.  CSE re-derives the existing comparator wire, so the
        fault site is identified structurally, not by magic index."""
        n = 4
        conv = IndexToPermutationConverter(n)
        nl = conv.build_netlist()
        before = len(nl.gates)
        cmp_wire = geq_const(nl, nl.inputs["index"], factorial(n - 1))
        assert len(nl.gates) == before  # pure CSE hit: the real comparator
        overlay = FaultOverlay([StuckAtFault(cmp_wire, True)], nl)
        checked = CheckedConverter(conv, use_netlist=True, overlay=overlay)
        # index 0 now reads digit >= 1: output is a valid but wrong perm
        with pytest.raises(FaultDetectedError):
            checked.convert(0)

    def test_silent_corruption_has_its_own_type(self):
        """A fault yielding a valid-but-wrong permutation must surface as
        SilentCorruptionError specifically (rank oracle, not bijectivity)."""
        n = 4
        conv = IndexToPermutationConverter(n)
        nl = conv.build_netlist()
        cmp_wire = geq_const(nl, nl.inputs["index"], factorial(n - 1))
        overlay = FaultOverlay([StuckAtFault(cmp_wire, True)], nl)
        checked = CheckedConverter(conv, use_netlist=True, overlay=overlay)
        with pytest.raises(SilentCorruptionError):
            checked.convert(0)
        assert checked.stats.silent_caught == 1

    def test_dual_rail_catches_model_divergence(self):
        """Dual-rail compares two independent implementations; a fault in
        the netlist rail trips it even before the rank oracle runs."""
        n = 4
        conv = IndexToPermutationConverter(n)
        nl = conv.build_netlist()
        # pick any corrupting fault
        for fault in stuck_fault_sites(nl):
            overlay = FaultOverlay([fault], nl)
            checked = CheckedConverter(
                conv, use_netlist=True, overlay=overlay, dual_rail=True
            )
            try:
                checked.convert_batch(range(24))
            except FaultDetectedError:
                break
        else:
            pytest.fail("no corrupting fault found")


def test_is_permutation_of():
    assert is_permutation_of([2, 0, 1], [0, 1, 2])
    assert not is_permutation_of([2, 2, 1], [0, 1, 2])
    assert not is_permutation_of([0, 1], [0, 1, 2])


class TestServedBatchOracle:
    """check_served_batch: the supervised serving tier's response check."""

    def _batch(self, n=5, indices=(0, 1, 59, 119)):
        conv = IndexToPermutationConverter(n)
        return np.array([conv.convert(i) for i in indices]), list(indices)

    def test_clean_batch_passes_with_and_without_indices(self):
        perms, indices = self._batch()
        check_served_batch(perms, indices)
        check_served_batch(perms)  # bijectivity-only (shuffle sweeps)

    def test_bit_flip_breaks_bijectivity(self):
        perms, indices = self._batch()
        perms[2, 0] ^= 1
        with pytest.raises(FaultDetectedError):
            check_served_batch(perms, indices)
        with pytest.raises(FaultDetectedError):
            check_served_batch(perms)  # caught even without the oracle

    def test_valid_but_wrong_lane_needs_the_rank_oracle(self):
        perms, indices = self._batch()
        perms[1, 0], perms[1, 1] = perms[1, 1].item(), perms[1, 0].item()
        # still bijective → the structural check alone is blind to it
        check_served_batch(perms)
        with pytest.raises(SilentCorruptionError):
            check_served_batch(perms, indices)

    def test_conviction_names_the_lane(self):
        perms, indices = self._batch()
        perms[3, 0] ^= 1
        with pytest.raises(FaultDetectedError, match="lane 3"):
            check_served_batch(perms, indices)

    def test_bad_shape_rejected(self):
        with pytest.raises(FaultDetectedError):
            check_served_batch(np.arange(5), [0])

    def test_large_n_falls_back_to_naive_ranker(self):
        # n > 20 exceeds the vectorised ranker's factorial range
        n = 24
        identity = np.arange(n)
        perms = np.stack([identity, identity[::-1].copy()])
        check_served_batch(perms, [0, factorial(n) - 1])
        with pytest.raises(SilentCorruptionError):
            check_served_batch(perms, [1, factorial(n) - 1])


class TestServedShuffleOracle:
    """Shuffle lanes: a row is ranked against its folded stage draws."""

    @staticmethod
    def _batch(n, k=64):
        rows = KnuthShuffleCircuit(n).sample(k)
        twin = KnuthShuffleCircuit(n)
        indices = [
            fold_draws([gen.next_int() for gen in twin.generators], n)
            for _ in range(k)
        ]
        return rows, indices

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_sampled_row_matches_its_folded_draws(self, n):
        rows, indices = self._batch(n)
        assert all(0 <= i < factorial(n) for i in indices)
        check_served_batch(rows, indices, "shuffle")

    @pytest.mark.parametrize("n", range(2, 10))
    def test_swapped_row_is_convicted(self, n):
        rows, indices = self._batch(n)
        rows[5, 0], rows[5, n - 1] = rows[5, n - 1].item(), rows[5, 0].item()
        check_served_batch(rows)  # still bijective: indices=None is blind
        with pytest.raises(SilentCorruptionError, match="lane 5"):
            check_served_batch(rows, indices, "shuffle")
