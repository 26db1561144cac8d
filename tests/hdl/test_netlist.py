"""Unit tests for netlist construction, folding, CSE and analysis."""

import pytest

from repro.hdl.gates import Op
from repro.hdl.netlist import Bus, Netlist, Register


@pytest.fixture
def nl():
    return Netlist("t")


class TestBus:
    def test_width_iter_index(self):
        b = Bus([3, 5, 7])
        assert b.width == len(b) == 3
        assert list(b) == [3, 5, 7]
        assert b[1] == 5

    def test_slice_returns_bus(self):
        b = Bus(range(8))
        assert isinstance(b[2:5], Bus)
        assert list(b[2:5]) == [2, 3, 4]

    def test_concat_low_bits_first(self):
        assert list(Bus([1, 2]) + Bus([3])) == [1, 2, 3]

    def test_equality_and_hash(self):
        assert Bus([1, 2]) == Bus([1, 2])
        assert hash(Bus([1, 2])) == hash(Bus([1, 2]))
        assert Bus([1, 2]) != Bus([2, 1])


class TestConstruction:
    def test_constants_shared(self, nl):
        assert nl.const(0) == nl.const(0)
        assert nl.const(1) == nl.const(1)
        assert nl.const(0) != nl.const(1)

    def test_const_bus_encoding(self, nl):
        b = nl.const_bus(5, 4)
        ops = [nl.gates[w].op for w in b]
        assert ops == [Op.CONST1, Op.CONST0, Op.CONST1, Op.CONST0]

    def test_const_bus_overflow_rejected(self, nl):
        with pytest.raises(ValueError):
            nl.const_bus(16, 4)

    def test_duplicate_input_rejected(self, nl):
        nl.input("a", 2)
        with pytest.raises(ValueError):
            nl.input("a", 2)

    def test_duplicate_output_rejected(self, nl):
        a = nl.input("a", 1)
        nl.output("y", a)
        with pytest.raises(ValueError):
            nl.output("y", a)

    def test_scalar_output_wrapped(self, nl):
        a = nl.input("a", 1)
        nl.output("y", a[0])
        assert nl.outputs["y"].width == 1

    def test_arity_enforced(self, nl):
        a = nl.input("a", 2)
        with pytest.raises(ValueError):
            nl.gate(Op.AND, a[0])


class TestFolding:
    def test_and_identities(self, nl):
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.AND, a, nl.const(1)) == a
        assert nl.gate(Op.AND, a, nl.const(0)) == nl.const(0)
        assert nl.gate(Op.AND, a, a) == a

    def test_or_identities(self, nl):
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.OR, a, nl.const(0)) == a
        assert nl.gate(Op.OR, a, nl.const(1)) == nl.const(1)

    def test_xor_identities(self, nl):
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.XOR, a, a) == nl.const(0)
        assert nl.gate(Op.XOR, a, nl.const(0)) == a
        inv = nl.gate(Op.XOR, a, nl.const(1))
        assert nl.gates[inv].op == Op.NOT

    def test_double_negation_cancels(self, nl):
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.NOT, nl.gate(Op.NOT, a)) == a

    def test_buf_is_transparent(self, nl):
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.BUF, a) == a

    def test_mux_constant_select(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        assert nl.gate(Op.MUX, nl.const(0), a, b) == a
        assert nl.gate(Op.MUX, nl.const(1), a, b) == b

    def test_mux_equal_branches(self, nl):
        s = nl.input("s", 1)[0]
        a = nl.input("a", 1)[0]
        assert nl.gate(Op.MUX, s, a, a) == a

    def test_mux_as_buffer_of_select(self, nl):
        s = nl.input("s", 1)[0]
        assert nl.gate(Op.MUX, s, nl.const(0), nl.const(1)) == s


class TestCSE:
    def test_identical_gates_merged(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        assert nl.gate(Op.AND, a, b) == nl.gate(Op.AND, a, b)

    def test_commutative_canonicalisation(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        assert nl.gate(Op.AND, a, b) == nl.gate(Op.AND, b, a)
        assert nl.gate(Op.XOR, a, b) == nl.gate(Op.XOR, b, a)

    def test_mux_not_commuted(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        s = nl.input("s", 1)[0]
        assert nl.gate(Op.MUX, s, a, b) != nl.gate(Op.MUX, s, b, a)


class TestAnalysis:
    def test_levels_and_depth(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        x = nl.gate(Op.AND, a, b)
        y = nl.gate(Op.OR, x, a)
        nl.output("y", Bus([y]))
        lev = nl.levels()
        assert lev[a] == 0 and lev[x] == 1 and lev[y] == 2
        assert nl.depth == 2

    def test_depth_counts_register_d_paths(self, nl):
        a = nl.input("a", 1)[0]
        x = nl.gate(Op.NOT, a)
        nl.register(x)
        assert nl.depth == 1

    def test_register_breaks_combinational_depth(self, nl):
        a = nl.input("a", 1)[0]
        q = nl.register(nl.gate(Op.NOT, a))
        y = nl.gate(Op.NOT, q)
        nl.output("y", Bus([y]))
        lev = nl.levels()
        assert lev[q] == 0 and lev[y] == 1

    def test_gate_counts_exclude_leaves(self, nl):
        a = nl.input("a", 2)
        nl.gate(Op.AND, a[0], a[1])
        counts = nl.gate_counts()
        assert counts == {Op.AND: 1}
        assert nl.num_logic_gates == 1

    def test_register_bus_inits(self, nl):
        a = nl.input("a", 3)
        q = nl.register_bus(a, init=0b101)
        inits = [r.init for r in nl.registers]
        assert inits == [True, False, True]
        assert q.width == 3

    def test_fanout_counts(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        x = nl.gate(Op.AND, a, b)
        nl.gate(Op.OR, x, a)
        fo = nl.fanout_counts()
        assert fo[a] == 2 and fo[x] == 1

    def test_live_wires_excludes_dangling(self, nl):
        a = nl.input("a", 1)[0]
        b = nl.input("b", 1)[0]
        dead = nl.gate(Op.AND, a, b)
        live = nl.gate(Op.OR, a, b)
        nl.output("y", Bus([live]))
        wires = nl.live_wires()
        assert live in wires and dead not in wires

    def test_check_passes_on_valid(self, nl):
        a = nl.input("a", 2)
        nl.output("y", Bus([nl.gate(Op.AND, a[0], a[1])]))
        nl.check()

    def test_check_holds_only_until_the_next_edit(self, nl):
        """A passing check is remembered, and an edit through the
        builder API (here a direct ``registers`` append) forgets it."""
        a = nl.input("a", 2)
        nl.output("y", Bus([nl.gate(Op.AND, a[0], a[1])]))
        nl.check()
        nl.check()
        nl.registers.append(Register(q=a[0], d=len(nl.gates) + 5))
        with pytest.raises(ValueError, match="register D out of range"):
            nl.check()
        with pytest.raises(ValueError, match="register D out of range"):
            nl.check()  # a failed check is not remembered

    def test_summary_keys(self, nl):
        a = nl.input("a", 2)
        nl.output("y", Bus([nl.gate(Op.XOR, a[0], a[1])]))
        s = nl.summary()
        assert set(s) == {"logic_gates", "registers", "depth", "input_bits", "output_bits"}
        assert s["input_bits"] == 2 and s["output_bits"] == 1

    def test_repr_mentions_counts(self, nl):
        assert "Netlist" in repr(nl)
