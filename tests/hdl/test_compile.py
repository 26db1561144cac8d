"""Compiled engine vs interpreter: bit-exact equivalence, cache behaviour.

The compiled backend (:mod:`repro.hdl.compile`) must be a drop-in for the
interpreter — Hypothesis drives random netlists, random batches and random
stuck-at overlays through both engines and requires identical outputs, for
combinational and sequential circuits alike.  The kernel cache is checked
for hits on recompilation and invalidation after netlist mutation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hdl.compile import (
    PackedFaultPlan,
    clear_kernel_cache,
    compile_netlist,
    kernel_cache_info,
    pack_lanes,
    unpack_lanes,
    words_for,
)
from repro.hdl.gates import Op
from repro.hdl.netlist import Bus, Netlist
from repro.hdl.serialize import netlist_fingerprint
from repro.hdl.simulator import CombinationalSimulator, SequentialSimulator
from repro.robustness.faults import FaultOverlay, SEUFault, StuckAtFault

from .test_fuzz import random_circuit, _build


def _ints(outs):
    return {k: [int(v) for v in vals] for k, vals in outs.items()}


# --------------------------------------------------------------------- #
# packing primitives


class TestPacking:
    def test_roundtrip_multiword(self):
        rng = np.random.default_rng(0)
        for lanes in (1, 63, 64, 65, 200, 4096):
            bits = rng.integers(0, 2, size=lanes).astype(bool)
            value = pack_lanes(bits)
            assert isinstance(value, int)
            assert value.bit_length() <= lanes <= words_for(lanes) * 64
            assert np.array_equal(unpack_lanes(value, lanes), bits)

    def test_lane_order_is_lsb_first(self):
        assert pack_lanes(np.ones(3, dtype=bool)) == 0b111
        assert pack_lanes(np.array([False, True], dtype=bool)) == 0b10


# --------------------------------------------------------------------- #
# combinational equivalence


@given(random_circuit())
@settings(max_examples=100)
def test_compiled_matches_interp_combinational(case):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    interp = CombinationalSimulator(nl, backend="interp").run({"a": vectors})
    compiled = CombinationalSimulator(nl, backend="compiled").run({"a": vectors})
    assert _ints(interp) == _ints(compiled)


@given(random_circuit(), st.data())
@settings(max_examples=80)
def test_compiled_matches_interp_with_stuck_overlay(case, data):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    if not logic:
        return
    n_faults = data.draw(st.integers(1, min(3, len(logic))))
    faults = [
        StuckAtFault(
            wire=data.draw(st.sampled_from(logic)), value=data.draw(st.booleans())
        )
        for _ in range(n_faults)
    ]
    overlay = FaultOverlay(faults, nl)
    interp = CombinationalSimulator(nl, backend="interp").run(
        {"a": vectors}, overlay=overlay
    )
    compiled = CombinationalSimulator(nl, backend="compiled").run(
        {"a": vectors}, overlay=overlay
    )
    assert _ints(interp) == _ints(compiled)


def test_wide_batch_crosses_word_boundary():
    from repro.flow import build_circuit

    nl = build_circuit("converter", 5)
    idx = [i % 120 for i in range(200)]  # 200 lanes -> 4 packed words
    a = CombinationalSimulator(nl, backend="interp").run({"index": idx})
    b = CombinationalSimulator(nl, backend="compiled").run({"index": idx})
    assert _ints(a) == _ints(b)


# --------------------------------------------------------------------- #
# sequential equivalence


def _registered(case):
    """Random combinational DAG with its output bus registered."""
    n_inputs, ops, picks, _ = case
    nl, _ = _build(n_inputs, ops, picks)
    out = nl.outputs.pop("y")
    nl.output("y", nl.register_bus(out, init=0b0101 & ((1 << len(out)) - 1)))
    return nl, n_inputs


@given(random_circuit(), st.data())
@settings(max_examples=60)
def test_compiled_matches_interp_sequential(case, data):
    nl, n_inputs = _registered(case)
    batch = data.draw(st.integers(1, 5))
    cycles = data.draw(st.integers(1, 6))
    streams = [
        [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(batch)]
        for _ in range(cycles)
    ]
    si = SequentialSimulator(nl, batch=batch, backend="interp")
    sc = SequentialSimulator(nl, batch=batch, backend="compiled")
    for vec in streams:
        assert _ints(si.step({"a": vec})) == _ints(sc.step({"a": vec}))


@given(random_circuit(), st.data())
@settings(max_examples=40)
def test_compiled_matches_interp_sequential_with_faults(case, data):
    nl, n_inputs = _registered(case)
    regs = [r.q for r in nl.registers]
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    faults = []
    if logic and data.draw(st.booleans()):
        faults.append(
            StuckAtFault(
                wire=data.draw(st.sampled_from(logic)), value=data.draw(st.booleans())
            )
        )
    faults.append(
        SEUFault(register=data.draw(st.sampled_from(regs)), cycle=data.draw(st.integers(0, 3)))
    )
    vectors = [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(5)]
    outs = []
    for backend in ("interp", "compiled"):
        sim = SequentialSimulator(
            nl, batch=1, overlay=FaultOverlay(faults, nl), backend=backend
        )
        outs.append([_ints(sim.step({"a": v})) for v in vectors])
    assert outs[0] == outs[1]


def test_feedback_counter_compiled():
    """Register feedback loops (built via direct register append) compile."""

    def build():
        nl = Netlist("counter", fold=False, cse=False)
        from repro.hdl.netlist import Register

        q0 = nl._new_wire(Op.REG, ())
        q1 = nl._new_wire(Op.REG, ())
        d0 = nl.gate(Op.NOT, q0)
        carry = q0
        d1 = nl.gate(Op.XOR, q1, carry)
        nl.registers.append(Register(q=q0, d=d0))
        nl.registers.append(Register(q=q1, d=d1))
        nl.output("count", Bus([q0, q1]))
        return nl

    nl = build()
    si = SequentialSimulator(nl, batch=1, backend="interp")
    sc = SequentialSimulator(nl, batch=1, backend="compiled")
    seq_i = [int(si.step({})["count"][0]) for _ in range(8)]
    seq_c = [int(sc.step({})["count"][0]) for _ in range(8)]
    assert seq_i == seq_c == [0, 1, 2, 3, 0, 1, 2, 3]


# --------------------------------------------------------------------- #
# sequential streams on the plain kernel


class TestIncrementalKernel:
    """A compiled sequential stream reuses what it already holds — a
    held input's packed lanes, the register state in its leaf list —
    and must stay equal to the interpreter's full re-evaluation."""

    def test_held_input_stream_matches_interp(self):
        """The pipeline-fill fast path (held input packed once, lazy
        outputs) stays bit-identical to interpreted full re-evaluation
        every cycle."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4, pipelined=True)
        idx = np.arange(24, dtype=np.int64)
        stream = [{"index": idx}] * 7
        si = SequentialSimulator(nl, batch=24, backend="interp")
        sc = SequentialSimulator(nl, batch=24, backend="compiled")
        ref = si.run_stream(stream)
        lazy = sc.run_stream(stream, materialize=False)
        for a, b in zip(ref, lazy):
            assert _ints(a) == _ints(b)

    def test_changing_then_held_then_reset(self):
        """Stale leaf values after input changes or reset() must never
        leak: an input is reused only when it is the same object."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 3, pipelined=True)
        vecs = [[0, 5, 3], [1, 1, 1], [1, 1, 1], [4, 0, 2]]
        si = SequentialSimulator(nl, batch=3, backend="interp")
        sc = SequentialSimulator(nl, batch=3, backend="compiled")
        first = []
        for v in vecs:
            a, b = _ints(si.step({"index": v})), _ints(sc.step({"index": v}))
            assert a == b
            first.append(b)
        sc.reset()
        sc_again = [_ints(sc.step({"index": v})) for v in vecs]
        assert sc_again == first


# --------------------------------------------------------------------- #
# packed fault plans


def test_packed_plan_matches_per_fault_runs():
    from repro.flow import build_circuit
    from repro.robustness.faults import stuck_fault_sites

    nl = build_circuit("converter", 4)
    idx = list(range(24))
    sites = stuck_fault_sites(nl)[:10]
    T, slots = len(idx), len(sites) + 1
    plan = PackedFaultPlan(slots * T)
    for s, f in enumerate(sites, start=1):
        plan.stick(f.wire, f.value, slice(s * T, (s + 1) * T))
    packed = CombinationalSimulator(nl, backend="compiled").run(
        {"index": idx * slots}, overlay=plan
    )
    # slot 0 is golden; slot s is fault s-1 — compare against per-fault runs
    for s in range(slots):
        overlay = None if s == 0 else FaultOverlay([sites[s - 1]], nl)
        ref = CombinationalSimulator(nl, backend="interp").run(
            {"index": idx}, overlay=overlay
        )
        for name in ref:
            got = [int(v) for v in packed[name][s * T : (s + 1) * T]]
            assert got == [int(v) for v in ref[name]], (s, name)


def test_packed_plan_runs_on_interpreter_too():
    """The plan implements the overlay protocol, lane for lane."""
    from repro.flow import build_circuit
    from repro.robustness.faults import stuck_fault_sites

    nl = build_circuit("converter", 3)
    idx = list(range(6))
    f = stuck_fault_sites(nl)[3]
    plan = PackedFaultPlan(2 * 6)
    plan.stick(f.wire, f.value, slice(6, 12))
    a = CombinationalSimulator(nl, backend="interp").run({"index": idx * 2}, overlay=plan)
    b = CombinationalSimulator(nl, backend="compiled").run({"index": idx * 2}, overlay=plan)
    assert _ints(a) == _ints(b)


def test_packed_plan_lane_mismatch_rejected():
    from repro.flow import build_circuit

    nl = build_circuit("converter", 3)
    plan = PackedFaultPlan(12)
    plan.stick(10, True, [1])
    with pytest.raises(ValueError, match="lanes"):
        CombinationalSimulator(nl, backend="compiled").run(
            {"index": list(range(6))}, overlay=plan
        )


class _BoolPlan:
    """Fault-plan lane sets kept as boolean lane vectors, the way plans
    stored them before they were packed: the reference model."""

    def __init__(self, lanes):
        self.lanes = lanes
        self.force0, self.force1, self.seu = {}, {}, {}

    def _sel(self, lanes):
        sel = np.zeros(self.lanes, dtype=bool)
        sel[lanes] = True
        return sel

    def stick(self, wire, value, lanes):
        target = self.force1 if value else self.force0
        prior = target.get(wire)
        sel = self._sel(lanes)
        target[wire] = sel if prior is None else prior | sel

    def upset(self, q, cycle, lanes):
        per_cycle = self.seu.setdefault(cycle, {})
        prior = per_cycle.get(q)
        sel = self._sel(lanes)
        per_cycle[q] = sel if prior is None else prior ^ sel

    def masks(self):
        none = np.zeros(self.lanes, dtype=bool)
        out = {}
        for w in set(self.force0) | set(self.force1):
            f0 = self.force0.get(w, none)
            f1 = self.force1.get(w, none)
            out[w] = (pack_lanes(~(f0 | f1)), pack_lanes(f1))
        return out

    def patch(self, wire, value):
        out = value
        if wire in self.force0:
            out = out & ~self.force0[wire]
        if wire in self.force1:
            out = out | self.force1[wire]
        return out


@st.composite
def lane_selection(draw, lanes):
    """A lane selector of every kind a plan accepts."""
    kind = draw(st.sampled_from(["slice", "list", "array", "mask"]))
    if kind == "slice":
        bound = st.one_of(st.none(), st.integers(-lanes - 2, lanes + 2))
        step = draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
        return slice(draw(bound), draw(bound), step)
    index = st.lists(st.integers(-lanes, lanes - 1), max_size=6)
    if kind == "list":
        return draw(index)
    if kind == "array":
        return np.array(draw(index), dtype=np.int64)
    return np.array(draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)))


@given(st.integers(1, 150), st.data())
@settings(max_examples=120)
def test_packed_plan_lane_sets_match_boolean_reference(lanes, data):
    """Masks, upsets and the interpreter views equal the boolean plan's."""
    plan, ref = PackedFaultPlan(lanes), _BoolPlan(lanes)
    for _ in range(data.draw(st.integers(0, 8))):
        sel = data.draw(lane_selection(lanes))
        if data.draw(st.booleans()):
            wire, value = data.draw(st.integers(0, 3)), data.draw(st.booleans())
            plan.stick(wire, value, sel)
            ref.stick(wire, value, sel)
        else:
            q, cycle = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
            plan.upset(q, cycle, sel)
            ref.upset(q, cycle, sel)
    assert plan.masks == ref.masks()
    assert plan.wires == frozenset(ref.force0) | frozenset(ref.force1)
    for cycle in range(3):
        flips = ref.seu.get(cycle, {})
        assert plan.upsets.get(cycle, {}) == {
            q: pack_lanes(sel) for q, sel in flips.items()
        }
        views = plan.seu_lane_flips(cycle)
        assert views.keys() == flips.keys()
        assert all(np.array_equal(views[q], flips[q]) for q in flips)
    value = np.array(data.draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)))
    for wire in range(5):  # wire 4 is never in the plan
        assert np.array_equal(plan.patch(wire, value, None), ref.patch(wire, value))


def test_packed_plan_rejects_out_of_range_lanes():
    plan = PackedFaultPlan(8)
    for bad in ([8], [-9], np.array([8])):
        with pytest.raises(IndexError):
            plan.stick(3, True, bad)
        with pytest.raises(IndexError):
            plan.upset(3, 0, bad)


#: a chunk with both polarities on wire 2, and one with several upsets
#: of register 1 at cycle 0 and at another cycle (upsets XOR)
_BOTH_POLARITIES = [(2, False), (2, True), (0, True), (2, False)]
_REPEATED_UPSETS = [(1, 0), (1, 0), (3, 1), (1, 2), (1, 0)]
#: a full compiled combinational pass: 511 sites of 64 lanes (32,768
#: lanes with the golden slot), both polarities of each wire in
#: consecutive slots and wires 0-55 hit again in a later run
_WIDE_CHUNK = [(k // 2 % 200, bool(k % 2)) for k in range(511)]
_WIDE_UPSETS = [(k % 7, k % 3) for k in range(511)]


@given(
    width=st.sampled_from([1, 6, 24, 64, 65]),
    stuck=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=12),
    upsets=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=12),
    spare=st.integers(0, 70),
)
@example(width=6, stuck=[], upsets=[], spare=0)  # an empty chunk
@example(width=65, stuck=[], upsets=[], spare=3)
@example(width=1, stuck=_BOTH_POLARITIES, upsets=_REPEATED_UPSETS, spare=0)
@example(width=24, stuck=_BOTH_POLARITIES, upsets=_REPEATED_UPSETS, spare=5)
@example(width=64, stuck=_BOTH_POLARITIES, upsets=_REPEATED_UPSETS, spare=0)
@example(width=65, stuck=_BOTH_POLARITIES, upsets=_REPEATED_UPSETS, spare=1)
@example(width=64, stuck=_WIDE_CHUNK, upsets=[], spare=0)
@example(width=64, stuck=_WIDE_CHUNK, upsets=_WIDE_UPSETS, spare=0)
@settings(max_examples=100)
def test_slotted_plan_matches_per_site_calls(width, stuck, upsets, spare):
    """One ``stick_slots`` / ``upset_slots`` call per chunk builds the
    plan that one ``stick`` / ``upset`` call per site builds on lanes
    ``[k * width, (k + 1) * width)`` for site ``k`` (from 1; slot 0 is
    golden), and both equal the boolean reference."""
    lanes = (max(len(stuck), len(upsets)) + 1) * width + spare
    plan, per_site = PackedFaultPlan(lanes), PackedFaultPlan(lanes)
    ref = _BoolPlan(lanes)
    plan.stick_slots(stuck, width)
    plan.upset_slots(upsets, width)
    for k, (wire, value) in enumerate(stuck, start=1):
        per_site.stick(wire, value, slice(k * width, (k + 1) * width))
        ref.stick(wire, value, slice(k * width, (k + 1) * width))
    for k, (q, cycle) in enumerate(upsets, start=1):
        per_site.upset(q, cycle, slice(k * width, (k + 1) * width))
        ref.upset(q, cycle, slice(k * width, (k + 1) * width))
    assert plan.masks == per_site.masks == ref.masks()
    assert plan.upsets == per_site.upsets
    assert plan.wires == per_site.wires == frozenset(ref.force0) | frozenset(ref.force1)
    for cycle in range(3):
        views, flips = plan.seu_lane_flips(cycle), ref.seu.get(cycle, {})
        assert views.keys() == per_site.seu_lane_flips(cycle).keys() == flips.keys()
        assert all(np.array_equal(views[q], flips[q]) for q in flips)
    value = np.random.default_rng(lanes).integers(0, 2, size=lanes).astype(bool)
    for wire in range(5):  # wire 4 is never in the plan
        got = plan.patch(wire, value, None)
        assert np.array_equal(got, per_site.patch(wire, value, None))
        assert np.array_equal(got, ref.patch(wire, value))


def test_slotted_plan_rejects_chunks_that_do_not_fit():
    plan = PackedFaultPlan(12)
    plan.stick_slots([(1, True), (2, False)], 4)  # golden + 2 slots of 4
    for sites, width in (([(1, True)] * 3, 4), ([(1, True)], 0), ([], 13)):
        with pytest.raises(ValueError, match="do not fit"):
            plan.stick_slots(sites, width)
        with pytest.raises(ValueError, match="do not fit"):
            plan.upset_slots([(q, 0) for q, _ in sites], width)


# --------------------------------------------------------------------- #
# per-kernel leaf layouts


#: SHA-256 over the plain and patchable kernel sources of the converter
#: at n = 2..12, computed from the kernels before registers moved to the
#: front of the leaves and returns: a register-free kernel keeps its
#: source, so the C libraries that validate and serving load keep their
#: cache keys.
CONVERTER_KERNELS_SHA256 = (
    "17fb204740d4681bbf37be650564b655cdb0af16abfed47e7a567206472fd1e6"
)


class TestLeafLayout:
    """Every sweep fills its kernel's leaves from that kernel's layout."""

    def test_register_free_kernels_keep_their_source(self):
        from repro.flow import build_circuit

        digest = hashlib.sha256()
        for n in range(2, 13):
            nl = build_circuit("converter", n)
            for patchable in (False, True):
                digest.update(compile_netlist(nl, patchable=patchable).source.encode())
        assert digest.hexdigest() == CONVERTER_KERNELS_SHA256

    def test_registers_lead_the_leaves_and_the_returns(self):
        """Register i's Q is leaf i and its D is result i, so a clock
        latches with one slice; the output positions count from the
        first result after the register Ds."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4, pipelined=True)
        kern = compile_netlist(nl)
        regs = len(nl.registers)
        assert kern.leaves[:regs] == tuple(r.q for r in nl.registers)
        assert kern.returns[:regs] == tuple(r.d for r in nl.registers)
        assert kern.layout.registers == tuple((r.q, r.init) for r in nl.registers)
        for name, bus in nl.outputs.items():
            positions = kern.layout.outputs[name]
            assert [kern.returns[regs + i] for i in positions] == list(bus)

    def test_incremental_and_patchable_kernels_interleaved(self):
        """One netlist's plain kernel (a stream without faults) and
        patchable kernel (a stream under a stuck-at plan, and a
        combinational simulator switching between the patchable and
        plain kernels) sweep in turn, each stream keeping its register
        state in its own leaf list, and all stay equal to the
        interpreter."""
        from repro.flow import build_circuit
        from repro.robustness.faults import stuck_fault_sites

        nl = build_circuit("converter", 3, pipelined=True)
        fault = stuck_fault_sites(nl)[7]
        plan = PackedFaultPlan(4)
        plan.stick(fault.wire, fault.value, [1, 3])
        engines = ("interp", "compiled")
        plain = {b: SequentialSimulator(nl, batch=4, backend=b) for b in engines}
        patched = {
            b: SequentialSimulator(nl, batch=4, overlay=plan, backend=b)
            for b in engines
        }
        comb = {b: CombinationalSimulator(nl, backend=b) for b in engines}
        for cycle in range(9):
            vec = [(cycle * 5 + lane) % 6 for lane in range(4)]
            for sims in (plain, patched):
                outs = [_ints(sims[b].step({"index": vec})) for b in engines]
                assert outs[0] == outs[1], cycle
            overlay = plan if cycle % 2 else None
            outs = [_ints(comb[b].run({"index": vec}, overlay=overlay)) for b in engines]
            assert outs[0] == outs[1], cycle
        assert plain["compiled"]._leaf_kern is compile_netlist(nl)
        assert not plain["compiled"]._leaf_kern.patchable
        assert patched["compiled"]._leaf_kern.patchable

    def test_netlist_edit_between_sweeps(self):
        """An edit between sweeps (new fingerprint, new kernel and layout)
        keeps the register state already latched, and a new register
        starts at its init value, as on the interpreter."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 3, pipelined=True)
        engines = ("interp", "compiled", "vector")
        seqs = {b: SequentialSimulator(nl, batch=3, backend=b) for b in engines}
        combs = {b: CombinationalSimulator(nl, backend=b) for b in engines}

        def sweep(vec):
            steps = [_ints(seqs[b].step({"index": vec})) for b in engines]
            runs = [_ints(combs[b].run({"index": vec})) for b in engines]
            assert steps[0] == steps[1] == steps[2]
            assert runs[0] == runs[1] == runs[2]
            return steps[0]

        sweep([0, 5, 3])
        sweep([1, 2, 4])
        before = compile_netlist(nl)
        bit = nl.outputs["out0"][0]
        q = nl.register(nl.gate(Op.NOT, bit), init=True)
        nl.output("flag", Bus([q, nl.gate(Op.XOR, q, bit)]))
        assert compile_netlist(nl) is not before
        flags = [sweep(vec)["flag"] for vec in ([5, 5, 0], [2, 3, 1], [4, 0, 2])]
        assert [v & 1 for v in flags[0]] == [1, 1, 1]  # init value


# --------------------------------------------------------------------- #
# kernel cache


class TestKernelCache:
    def setup_method(self):
        clear_kernel_cache()

    def test_recompile_hits_cache(self):
        nl = Netlist("c")
        a = nl.input("a", 2)
        nl.output("y", nl.gate(Op.AND, a[0], a[1]))
        k1 = compile_netlist(nl)
        k2 = compile_netlist(nl)
        assert k1 is k2
        info = kernel_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_structurally_identical_netlists_share_kernels(self):
        def build():
            nl = Netlist("c")
            a = nl.input("a", 2)
            nl.output("y", nl.gate(Op.XOR, a[0], a[1]))
            return nl

        assert compile_netlist(build()) is compile_netlist(build())

    def test_patchable_variants_cached_separately(self):
        nl = Netlist("c")
        a = nl.input("a", 2)
        nl.output("y", nl.gate(Op.OR, a[0], a[1]))
        plain = compile_netlist(nl, patchable=False)
        patch = compile_netlist(nl, patchable=True)
        assert plain is not patch
        assert "P.get" not in plain.source and "_g = P.get" in patch.source

    def test_mutation_invalidates_kernel(self):
        nl = Netlist("c")
        a = nl.input("a", 2)
        nl.output("y", nl.gate(Op.AND, a[0], a[1]))
        before = netlist_fingerprint(nl)
        out1 = CombinationalSimulator(nl, backend="compiled").run({"a": [0b11]})
        assert int(out1["y"][0]) == 1
        # mutate through the builder API: new gate, new output port
        nl.output("z", nl.gate(Op.XOR, a[0], a[1]))
        assert netlist_fingerprint(nl) != before
        out2 = CombinationalSimulator(nl, backend="compiled").run({"a": [0b01]})
        assert int(out2["y"][0]) == 0 and int(out2["z"][0]) == 1
        # both structures compiled: two distinct kernels, no stale reuse
        assert kernel_cache_info()["misses"] == 2

    def test_register_append_invalidates_fingerprint(self):
        from repro.hdl.netlist import Register

        nl = Netlist("c")
        a = nl.input("a", 1)
        q = nl._new_wire(Op.REG, ())
        nl.output("y", q)
        before = netlist_fingerprint(nl)
        nl.registers.append(Register(q=q, d=a[0]))
        assert netlist_fingerprint(nl) != before


# --------------------------------------------------------------------- #
# word packing helpers (satellite: vectorised bits_from_ints)


class TestVectorisedPacking:
    def test_fast_and_wide_paths_agree(self):
        from repro.hdl.simulator import bits_from_ints, ints_from_bits

        rng = np.random.default_rng(1)
        for width in (1, 7, 63, 64, 65, 90):
            vals = [int(x) for x in rng.integers(0, 1 << min(width, 63), size=17)]
            lanes = bits_from_ints(vals, width)
            assert len(lanes) == width
            assert [int(v) for v in ints_from_bits(lanes)] == vals

    def test_bigint_values_beyond_uint64(self):
        from repro.hdl.simulator import bits_from_ints, ints_from_bits

        vals = [(1 << 90) + 5, (1 << 70) - 1, 0]
        lanes = bits_from_ints(vals, 91)
        assert [int(v) for v in ints_from_bits(lanes)] == vals

    def test_validation_messages_preserved(self):
        from repro.hdl.simulator import bits_from_ints

        with pytest.raises(ValueError, match="non-negative"):
            bits_from_ints([-1], 4)
        with pytest.raises(ValueError, match="does not fit"):
            bits_from_ints([8], 3)
        with pytest.raises(ValueError, match="does not fit"):
            bits_from_ints([1 << 70], 64)


class TestKernelQuarantine:
    """evict_kernel: the supervised tier's corrupted-kernel quarantine."""

    def test_evicts_every_variant_of_the_fingerprint(self):
        from repro.hdl.compile import evict_kernel

        clear_kernel_cache()
        nl = Netlist("quarantine")
        a = nl.input("a", 2)
        nl.output("y", nl.gate(Op.AND, a[0], a[1]))
        plain = compile_netlist(nl)
        patchable = compile_netlist(nl, patchable=True)
        assert plain.fingerprint == patchable.fingerprint
        assert evict_kernel(plain.fingerprint) == 2
        assert evict_kernel(plain.fingerprint) == 0  # idempotent
        # the next compile is a fresh build, not the convicted artefact
        rebuilt = compile_netlist(nl)
        assert rebuilt is not plain

    def test_unknown_fingerprint_is_a_noop(self):
        from repro.hdl.compile import evict_kernel

        assert evict_kernel("not-a-real-fingerprint") == 0
