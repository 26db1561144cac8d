"""Combinational and sequential simulation engine tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hdl.gates import Op
from repro.hdl.netlist import Bus, Netlist
from repro.hdl.simulator import (
    CombinationalSimulator,
    SequentialSimulator,
    bits_from_ints,
    ints_from_bits,
)


class TestBitPacking:
    @given(st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=20))
    def test_roundtrip(self, values):
        lanes = bits_from_ints(values, 40)
        back = ints_from_bits(lanes)
        assert [int(v) for v in back] == values

    def test_wide_words_beyond_uint64(self):
        big = (1 << 200) - 7
        lanes = bits_from_ints([big, 0, 1], 201)
        back = ints_from_bits(lanes)
        assert int(back[0]) == big

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            bits_from_ints([8], 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_from_ints([-1], 4)

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            ints_from_bits([])


def _xor_netlist():
    nl = Netlist()
    a = nl.input("a", 4)
    b = nl.input("b", 4)
    nl.output("y", Bus(nl.gate(Op.XOR, x, y) for x, y in zip(a, b)))
    return nl


class TestCombinational:
    def test_scalar_inputs(self):
        sim = CombinationalSimulator(_xor_netlist())
        assert int(sim.run({"a": 12, "b": 10})["y"][0]) == 6

    def test_batch_inputs(self):
        sim = CombinationalSimulator(_xor_netlist())
        out = sim.run({"a": [1, 2, 3], "b": [3, 2, 1]})["y"]
        assert [int(v) for v in out] == [2, 0, 2]

    def test_scalar_broadcasts_against_batch(self):
        sim = CombinationalSimulator(_xor_netlist())
        out = sim.run({"a": [0, 1, 2, 3], "b": 1})["y"]
        assert [int(v) for v in out] == [1, 0, 3, 2]

    @pytest.mark.parametrize("backend", ["interp", "compiled", "vector"])
    def test_broadcast_value_checked_like_a_batch(self, backend):
        """A value broadcast against a batch is refused exactly when the
        same value fed as a whole batch is: floats (NumPy or Python) and
        strings are not truncated or parsed, NumPy integers and bools are
        accepted."""
        sim = CombinationalSimulator(_xor_netlist(), backend=backend)
        batch = [0, 1, 2, 3]
        for bad in (np.array([3.7]), ["3"], [3.7]):
            for lanes in (bad, np.repeat(bad, 4), list(bad) * 4):
                with pytest.raises(TypeError):
                    sim.run({"a": batch, "b": lanes})
        for good in (np.array([3], dtype=np.uint8), np.array([True]), [np.int64(3)]):
            out = sim.run({"a": batch, "b": good})["y"]
            assert [int(v) for v in out] == [int(good[0]) ^ a for a in batch]

    def test_missing_input_rejected(self):
        sim = CombinationalSimulator(_xor_netlist())
        with pytest.raises(ValueError, match="missing"):
            sim.run({"a": 1})

    def test_unknown_input_rejected(self):
        sim = CombinationalSimulator(_xor_netlist())
        with pytest.raises(ValueError, match="unknown"):
            sim.run({"a": 1, "b": 2, "c": 3})

    def test_inconsistent_batches_rejected(self):
        sim = CombinationalSimulator(_xor_netlist())
        with pytest.raises(ValueError, match="batch"):
            sim.run({"a": [1, 2], "b": [1, 2, 3]})

    def test_registers_read_init_value(self):
        nl = Netlist()
        a = nl.input("a", 1)
        q = nl.register(a[0], init=True)
        nl.output("y", Bus([q]))
        sim = CombinationalSimulator(nl)
        assert int(sim.run({"a": 0})["y"][0]) == 1

    def test_register_state_override(self):
        nl = Netlist()
        a = nl.input("a", 1)
        q = nl.register(a[0], init=False)
        nl.output("y", Bus([q]))
        sim = CombinationalSimulator(nl)
        out = sim.run({"a": 0}, reg_state={q: np.array([True])})
        assert int(out["y"][0]) == 1


class TestSequential:
    def _counter(self, width=4):
        """A width-bit binary counter built from registers + incrementer."""
        from repro.hdl.components import ripple_add

        nl = Netlist()
        qs = []
        for i in range(width):
            q = nl._new_wire(Op.REG, ())
            qs.append(q)
        state = Bus(qs)
        inc, _ = ripple_add(nl, state, nl.const_bus(1, width))
        from repro.hdl.netlist import Register

        for q, d in zip(qs, inc):
            nl.registers.append(Register(q=q, d=d, init=False))
        nl.output("count", state)
        return nl

    def test_counter_counts(self):
        sim = SequentialSimulator(self._counter(), batch=1)
        seen = [int(sim.step({})["count"][0]) for _ in range(10)]
        assert seen == list(range(10))

    def test_reset_rewinds(self):
        sim = SequentialSimulator(self._counter())
        for _ in range(5):
            sim.step({})
        sim.reset()
        assert sim.cycle == 0
        assert int(sim.step({})["count"][0]) == 0

    def test_cycle_counter(self):
        sim = SequentialSimulator(self._counter())
        sim.step({})
        sim.step({})
        assert sim.cycle == 2

    def test_run_stream(self):
        nl = Netlist()
        a = nl.input("a", 3)
        q = nl.register_bus(a)
        nl.output("y", q)
        sim = SequentialSimulator(nl)
        outs = sim.run_stream([{"a": v} for v in (3, 5, 7)])
        assert [int(o["y"][0]) for o in outs] == [0, 3, 5]  # one-cycle delay

    def test_batched_lanes_independent(self):
        nl = Netlist()
        a = nl.input("a", 2)
        q = nl.register_bus(a)
        nl.output("y", q)
        sim = SequentialSimulator(nl, batch=3)
        sim.step({"a": [0, 1, 2]})
        out = sim.step({"a": [0, 0, 0]})["y"]
        assert [int(v) for v in out] == [0, 1, 2]
