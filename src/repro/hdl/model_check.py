"""Formal (BDD-based) verification of combinational netlists.

Simulation-based checking (:mod:`repro.hdl.verify`) samples the input
space; this module *proves* properties by symbolic evaluation: every wire
gets a reduced-ordered BDD (:mod:`repro.hdl.bdd`) over the primary-input
bits, and because ROBDDs are canonical, functional equality is node-id
equality — a complete equivalence check for any input width the BDDs can
absorb (≲ 20 input bits here, which covers the converter up to n = 8's
16-bit index).
"""

from __future__ import annotations

from repro.hdl.bdd import BDD
from repro.hdl.gates import Op
from repro.hdl.netlist import Netlist

__all__ = [
    "input_variable_map",
    "netlist_to_bdds",
    "prove_equivalent",
    "prove_constant_output",
    "find_distinguishing_input",
]


def input_variable_map(nl: Netlist) -> dict[int, int]:
    """Assign a BDD variable index to every primary-input wire.

    Variables are numbered in input-declaration order, LSB first, so two
    netlists with identical port signatures share a numbering.
    """
    mapping: dict[int, int] = {}
    var = 0
    for name in nl.inputs:
        for wire in nl.inputs[name]:
            mapping[wire] = var
            var += 1
    return mapping


def netlist_to_bdds(nl: Netlist, mgr: BDD | None = None) -> tuple[BDD, dict[str, list[int]]]:
    """Symbolically evaluate a combinational netlist.

    Returns the manager and, per output bus, the list of BDD roots (LSB
    first).  Sequential netlists are rejected — unroll or cut registers
    first.
    """
    nl.check()
    if nl.registers:
        raise ValueError("model checking supports combinational netlists only")
    var_of = input_variable_map(nl)
    n_vars = len(var_of)
    mgr = mgr if mgr is not None else BDD(n_vars)
    if mgr.n_vars < n_vars:
        raise ValueError(f"manager has {mgr.n_vars} variables, need {n_vars}")

    node: dict[int, int] = {}
    for w, g in enumerate(nl.gates):
        if g.op is Op.INPUT:
            node[w] = mgr.variable(var_of[w])
        elif g.op is Op.CONST0:
            node[w] = BDD.FALSE
        elif g.op is Op.CONST1:
            node[w] = BDD.TRUE
        elif g.op is Op.BUF:
            node[w] = node[g.fanin[0]]
        elif g.op is Op.NOT:
            node[w] = mgr.negate(node[g.fanin[0]])
        elif g.op is Op.MUX:
            s, a, b = (node[f] for f in g.fanin)
            node[w] = mgr.apply(
                "or", mgr.apply("and", s, b), mgr.apply("and", mgr.negate(s), a)
            )
        elif g.op in (Op.AND, Op.OR, Op.XOR):
            node[w] = mgr.apply(g.op.value, node[g.fanin[0]], node[g.fanin[1]])
        elif g.op is Op.NAND:
            node[w] = mgr.negate(mgr.apply("and", node[g.fanin[0]], node[g.fanin[1]]))
        elif g.op is Op.NOR:
            node[w] = mgr.negate(mgr.apply("or", node[g.fanin[0]], node[g.fanin[1]]))
        elif g.op is Op.XNOR:
            node[w] = mgr.negate(mgr.apply("xor", node[g.fanin[0]], node[g.fanin[1]]))
        elif g.op is Op.ANDN:
            node[w] = mgr.apply("and", node[g.fanin[0]], mgr.negate(node[g.fanin[1]]))
        elif g.op is Op.ORN:
            node[w] = mgr.apply("or", node[g.fanin[0]], mgr.negate(node[g.fanin[1]]))
        else:  # pragma: no cover
            raise AssertionError(g.op)

    outputs = {name: [node[w] for w in bus] for name, bus in nl.outputs.items()}
    return mgr, outputs


def prove_equivalent(a: Netlist, b: Netlist) -> bool:
    """Complete combinational equivalence check.

    Requires identical port signatures (names, widths, declaration
    order); returns True iff every output bit computes the same Boolean
    function — by ROBDD canonicity, a proof, not a sample.
    """
    sig_a = [(n, bus.width) for n, bus in a.inputs.items()]
    sig_b = [(n, bus.width) for n, bus in b.inputs.items()]
    if sig_a != sig_b:
        raise ValueError(f"input signatures differ: {sig_a} vs {sig_b}")
    if set(a.outputs) != set(b.outputs):
        raise ValueError("output names differ")
    mgr = BDD(sum(w for _, w in sig_a))
    _, outs_a = netlist_to_bdds(a, mgr)
    _, outs_b = netlist_to_bdds(b, mgr)
    for name in outs_a:
        if len(outs_a[name]) != len(outs_b[name]):
            return False
        if outs_a[name] != outs_b[name]:
            return False
    return True


def prove_constant_output(nl: Netlist, output: str, value: int) -> bool:
    """Prove an output bus is the constant ``value`` for every input."""
    _, outs = netlist_to_bdds(nl)
    bits = outs[output]
    want = [(value >> i) & 1 for i in range(len(bits))]
    return all(bit == (BDD.TRUE if w else BDD.FALSE) for bit, w in zip(bits, want))


def find_distinguishing_input(a: Netlist, b: Netlist) -> dict[str, int] | None:
    """A counterexample assignment where the two netlists differ.

    Returns None when equivalent.  The witness comes from walking a
    satisfying path of the XOR of the first differing output bits.
    """
    sig = [(n, bus.width) for n, bus in a.inputs.items()]
    mgr = BDD(sum(w for _, w in sig))
    _, outs_a = netlist_to_bdds(a, mgr)
    _, outs_b = netlist_to_bdds(b, mgr)
    for name in outs_a:
        for bit_a, bit_b in zip(outs_a[name], outs_b[name]):
            diff = mgr.apply("xor", bit_a, bit_b)
            if diff == BDD.FALSE:
                continue
            assignment = _satisfying_assignment(mgr, diff)
            out: dict[str, int] = {}
            var = 0
            for in_name, width in sig:
                value = 0
                for i in range(width):
                    value |= assignment.get(var, 0) << i
                    var += 1
                out[in_name] = value
            return out
    return None


def _satisfying_assignment(mgr: BDD, root: int) -> dict[int, int]:
    """One satisfying assignment of a non-FALSE BDD (unset vars free=0)."""
    assert root != BDD.FALSE
    out: dict[int, int] = {}
    nid = root
    while nid != BDD.TRUE:
        var = mgr.var_of(nid)
        lo, hi = mgr.cofactors(nid)
        if lo != BDD.FALSE:
            out[var] = 0
            nid = lo
        else:
            out[var] = 1
            nid = hi
    return out
