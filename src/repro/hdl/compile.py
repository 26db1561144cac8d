"""Compiled two-state simulation: netlist → straight-line bit-packed kernel.

The interpreting simulators in :mod:`repro.hdl.simulator` walk the gate
list one :class:`~repro.hdl.gates.Op` at a time, paying a Python dispatch
per gate per sweep.  This module removes that interpreter loop the way
Verilator does for Verilog: the levelised netlist is *compiled* — once —
into straight-line Python source with one local variable per live wire,

.. code-block:: python

    def _kernel(L, P, Z, N):
        v12 = L[0]
        v13 = v12 & v7
        v14 = (v13 ^ v9) ^ N
        ...
        return (v97, v98, ...)

and evaluated over **bit-packed lanes**: every wire carries one Python
arbitrary-precision integer holding ``batch`` bits, one *bit* per
Monte-Carlo lane.  A single ``&`` between two wires therefore simulates
the whole batch in one C word-loop, and CPython executes one bytecode
dispatch per gate per sweep instead of one per gate per lane.  Plain
ints beat NumPy word arrays here: a uint64 ufunc call costs ~500 ns of
dispatch regardless of size, while a big-int ``&`` on the same data is
a single malloc-plus-loop an order of magnitude cheaper at the word
counts netlist sweeps see (≤ thousands of lanes).  Two-state semantics
(0/1, no X/Z) match the boolean interpreter exactly, so the engines are
interchangeable bit for bit — asserted by property tests.

Inversion is compiled as ``v ^ N`` where ``N`` is the all-lanes-set
mask, so values never carry bits beyond ``batch`` and Python's signed
``~`` (which would set infinitely many high bits) is never emitted.

Kernel cache
------------
``exec``-compiling costs milliseconds, so kernels are cached in a bounded
LRU keyed by ``(netlist fingerprint, patchable)``.  The fingerprint is
the SHA-256 of the canonical serialised form
(:func:`repro.hdl.serialize.netlist_fingerprint`), so mutating a netlist
through the builder API invalidates its kernel on the next call, while
structurally identical netlists — e.g. the same circuit built by two
independent callers — share one compilation.

Fault patching
--------------
A *patchable* kernel additionally emits, after every wire assignment::

    m = P.get(17)
    if m is not None: v17 = (v17 & m[0]) | m[1]

``P`` maps wire → ``(keep, force)`` packed integer masks: lanes cleared
in ``keep`` are overridden with the corresponding bit of ``force``.  That
expresses *per-lane* stuck-at faults — the basis of fault-parallel
campaigns, where :class:`PackedFaultPlan` gives each fault its own lanes
next to golden lanes and a single sweep evaluates many faults at once.  The
patch hook costs one dict probe per wire, so the unpatched kernel is
compiled without it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.hdl.gates import Op
from repro.hdl.netlist import Netlist, Wire
from repro.hdl.serialize import netlist_fingerprint
from repro.obs import metrics as _metrics

__all__ = [
    "KERNEL_CACHE_LIMIT",
    "SWEEP_LANES",
    "CompiledKernel",
    "LeafLayout",
    "PackedFaultPlan",
    "compile_netlist",
    "kernel_cache_info",
    "clear_kernel_cache",
    "evict_kernel",
    "note_sweep",
    "words_for",
    "ones_mask",
    "pack_lanes",
    "unpack_lanes",
]

#: Maximum number of compiled kernels retained (LRU eviction beyond it).
KERNEL_CACHE_LIMIT = 128

#: Payload lanes per packed sweep quantum: the serving quantum.  63
#: payload lanes plus one spare keep every packed wire value inside a
#: single 64-bit word — the cheapest big-int a sweep can carry — and the
#: serving layer's micro-batcher coalesces up to this many requests into
#: one sweep.  It does not size fault-parallel campaign passes, which
#: take their own measured lane budgets
#: (:mod:`repro.robustness.campaign`).
SWEEP_LANES = 63

_COMPILE_WALL = _metrics.REGISTRY.histogram(
    "repro_sim_compile_seconds",
    "netlist-to-kernel compile time",
    ("patchable",),
)
_CACHE_EVENTS = _metrics.REGISTRY.counter(
    "repro_sim_kernel_cache_total",
    "compiled-kernel cache lookups",
    ("result",),
)
_KERNEL_SWEEPS = _metrics.REGISTRY.counter(
    "repro_kernel_sweeps_total",
    "kernel sweep executions by serving-engine kind and backend",
    ("kind", "engine"),
)
_KERNEL_SWEEP_LANES = _metrics.REGISTRY.counter(
    "repro_kernel_sweep_lanes_total",
    "payload lanes carried by kernel sweeps, by engine kind and backend",
    ("kind", "engine"),
)


def note_sweep(kind: str, lanes: int = 1, engine: str = "compiled") -> None:
    """Count one executed sweep and its payload lanes (batch granularity).

    Called by the serving engines around each kernel sweep; the pair of
    counters gives dashboards the lanes-per-sweep amortisation ratio,
    broken out per simulation backend (``engine`` label — bounded
    cardinality: one series per registered backend per engine kind).
    One guard + two incs per *sweep* (not per lane), so the hot path
    pays nothing measurable.
    """
    if _metrics.REGISTRY.enabled:
        _KERNEL_SWEEPS.inc(kind=kind, engine=engine)
        _KERNEL_SWEEP_LANES.inc(lanes, kind=kind, engine=engine)


def words_for(lanes: int) -> int:
    """Number of 64-bit words needed to hold ``lanes`` bit-lanes."""
    return (max(1, lanes) + 63) // 64


def ones_mask(lanes: int) -> int:
    """The packed value with every one of ``lanes`` lanes set."""
    return (1 << max(1, lanes)) - 1


def pack_lanes(lane: np.ndarray) -> int:
    """Pack a boolean lane vector into one integer, lane ``i`` at bit ``i``."""
    bits = np.ascontiguousarray(lane, dtype=bool)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack_lanes(value: int, lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: the first ``lanes`` bits, as bools."""
    raw = value.to_bytes(words_for(lanes) * 8, "little")
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=lanes, bitorder="little"
    )
    return bits.astype(bool)


class CompiledKernel:
    """One netlist compiled to a straight-line packed-lane sweep.

    Attributes
    ----------
    leaves:
        Wire indices the kernel reads externally: every register Q wire
        in ``nl.registers`` order, then the ``INPUT`` (and unregistered
        ``REG``) gates of the live cone in wire order.  The callable's
        first argument is a list of packed integers in exactly this
        order.
    returns:
        Wire indices the kernel returns, in order: every register's D
        wire in ``nl.registers`` order, then every output-bus wire.
    layout:
        The :class:`LeafLayout` that maps the netlist's ports onto
        ``leaves`` and ``returns``.
    patchable:
        Whether the kernel probes the patch mapping after each wire.
    """

    __slots__ = (
        "fingerprint",
        "patchable",
        "leaves",
        "returns",
        "layout",
        "source",
        "compile_s",
        "fn",
    )

    def __init__(
        self,
        fingerprint: str,
        patchable: bool,
        leaves: tuple[Wire, ...],
        returns: tuple[Wire, ...],
        layout: "LeafLayout",
        source: str,
        compile_s: float,
        fn: Callable[..., tuple[int, ...]],
    ) -> None:
        self.fingerprint = fingerprint
        self.patchable = patchable
        self.leaves = leaves
        self.returns = returns
        self.layout = layout
        self.source = source
        self.compile_s = compile_s
        self.fn = fn

    def __repr__(self) -> str:
        return (
            f"<CompiledKernel {self.fingerprint[:12]} "
            f"leaves={len(self.leaves)} returns={len(self.returns)} "
            f"patchable={self.patchable}>"
        )


class LeafLayout(NamedTuple):
    """Where a kernel's leaves come from and where its results go.

    Worked out once per kernel by :func:`compile_netlist`, so a sweep
    fills the leaf list and reads its results by position, without
    consulting the netlist: the combinational, prepared and sequential
    sweeps of :class:`~repro.hdl.simulator.PackedEngine` all go through
    it.  Registers come first on both sides: register ``i``'s Q is leaf
    ``i`` and its D is result ``i``, so a clock latches the state with
    one slice, ``leaves[:R] = results[:R]``, and the output buses are
    read from the results after the ``R`` register Ds.
    """

    #: per input bus: its name and each bit's leaf slot (``None`` for a
    #: bit outside the kernel's live cone)
    inputs: tuple[tuple[str, tuple[int | None, ...]], ...]
    #: per register, in leaf (and result) order: its Q wire and init value
    registers: tuple[tuple[Wire, bool], ...]
    #: output bus → each bit's position in the results after the
    #: register Ds
    outputs: dict[str, tuple[int, ...]]
    #: leaf wire → leaf slot
    slots: dict[Wire, int]
    #: input wires with a leaf slot that no input bus drives
    undriven: tuple[Wire, ...]


def _leaf_layout(
    nl: Netlist, leaves: tuple[Wire, ...], returns: tuple[Wire, ...]
) -> LeafLayout:
    slots = {w: i for i, w in enumerate(leaves)}
    regs = len(nl.registers)
    index = {w: i for i, w in enumerate(returns[regs:])}
    driven = {w for bus in nl.inputs.values() for w in bus}
    return LeafLayout(
        inputs=tuple(
            (name, tuple(slots.get(w) for w in bus))
            for name, bus in nl.inputs.items()
        ),
        registers=tuple((r.q, bool(r.init)) for r in nl.registers),
        outputs={
            name: tuple(index[w] for w in bus) for name, bus in nl.outputs.items()
        },
        slots=slots,
        undriven=tuple(
            w for w in leaves if nl.gates[w].op is Op.INPUT and w not in driven
        ),
    )


def _live_cone(nl: Netlist) -> list[Wire]:
    """Wires needed to produce outputs and register next-states, sorted.

    Wire indices are created in topological order (fanins precede their
    gate), so the sorted live set *is* a valid evaluation order — gates
    outside the observable cone are simply never emitted.
    """
    stack = [w for bus in nl.outputs.values() for w in bus]
    stack += [r.d for r in nl.registers] + [r.q for r in nl.registers]
    seen: set[Wire] = set()
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        stack.extend(nl.gates[w].fanin)
    return sorted(seen)


def _generate(
    nl: Netlist, patchable: bool
) -> tuple[str, tuple[Wire, ...], tuple[Wire, ...]]:
    """Emit kernel source plus leaf and return wire orders.

    Register Q leaves come first, in ``nl.registers`` order, and so do
    the register D returns; a netlist without registers keeps its leaves
    and returns in wire and output order.
    """
    live = _live_cone(nl)
    leaves = [r.q for r in nl.registers]
    reg_slot = {q: slot for slot, q in enumerate(leaves)}
    lines = ["def _kernel(L, P, Z, N):"]
    if patchable:
        lines.append("    _g = P.get")
    for w in live:
        g = nl.gates[w]
        op = g.op
        if op in (Op.INPUT, Op.REG):
            slot = reg_slot.get(w)
            if slot is None:
                slot = len(leaves)
                leaves.append(w)
            expr = f"L[{slot}]"
        elif op is Op.CONST0:
            expr = "Z"
        elif op is Op.CONST1:
            expr = "N"
        elif op is Op.BUF:
            expr = f"v{g.fanin[0]}"
        elif op is Op.NOT:
            expr = f"v{g.fanin[0]} ^ N"
        elif op is Op.AND:
            expr = f"v{g.fanin[0]} & v{g.fanin[1]}"
        elif op is Op.OR:
            expr = f"v{g.fanin[0]} | v{g.fanin[1]}"
        elif op is Op.XOR:
            expr = f"v{g.fanin[0]} ^ v{g.fanin[1]}"
        elif op is Op.NAND:
            expr = f"(v{g.fanin[0]} & v{g.fanin[1]}) ^ N"
        elif op is Op.NOR:
            expr = f"(v{g.fanin[0]} | v{g.fanin[1]}) ^ N"
        elif op is Op.XNOR:
            expr = f"(v{g.fanin[0]} ^ v{g.fanin[1]}) ^ N"
        elif op is Op.ANDN:
            expr = f"v{g.fanin[0]} & (v{g.fanin[1]} ^ N)"
        elif op is Op.ORN:
            expr = f"v{g.fanin[0]} | (v{g.fanin[1]} ^ N)"
        elif op is Op.MUX:
            s, a, b = g.fanin
            # a ^ (s & (a ^ b)): three ops, no inversion mask
            expr = f"v{a} ^ (v{s} & (v{a} ^ v{b}))"
        else:  # pragma: no cover - exhaustive over Op
            raise ValueError(f"op {op} has no compiled form")
        lines.append(f"    v{w} = {expr}")
        if patchable:
            lines.append(f"    m = _g({w})")
            lines.append(f"    if m is not None: v{w} = (v{w} & m[0]) | m[1]")
    returns = [r.d for r in nl.registers]  # one per register, repeats kept
    seen_ret: set[Wire] = set()
    for w in [w for bus in nl.outputs.values() for w in bus]:
        if w not in seen_ret:
            seen_ret.add(w)
            returns.append(w)
    body = ", ".join(f"v{w}" for w in returns)
    lines.append(f"    return ({body}{',' if len(returns) == 1 else ''})")
    return "\n".join(lines) + "\n", tuple(leaves), tuple(returns)


_CACHE: "OrderedDict[tuple[str, bool], CompiledKernel]" = OrderedDict()
_HITS = 0
_MISSES = 0


def compile_netlist(nl: Netlist, *, patchable: bool = False) -> CompiledKernel:
    """Compile (or fetch from cache) the packed-lane kernel for ``nl``.

    ``patchable=True`` builds the variant with per-wire stuck-at mask
    hooks.  The two variants are cached independently because the hook
    costs a dict probe per wire on every sweep.
    """
    global _HITS, _MISSES
    key = (netlist_fingerprint(nl), patchable)
    kern = _CACHE.get(key)
    if kern is not None:
        _CACHE.move_to_end(key)
        _HITS += 1
        if _metrics.REGISTRY.enabled:
            _CACHE_EVENTS.inc(result="hit")
        return kern
    _MISSES += 1
    t0 = time.perf_counter()
    source, leaves, returns = _generate(nl, patchable)
    namespace: dict[str, Any] = {}
    code = compile(source, f"<kernel {nl.name} {key[0][:12]}>", "exec")
    exec(code, namespace)
    wall = time.perf_counter() - t0
    kern = CompiledKernel(
        fingerprint=key[0],
        patchable=patchable,
        leaves=leaves,
        returns=returns,
        layout=_leaf_layout(nl, leaves, returns),
        source=source,
        compile_s=wall,
        fn=namespace["_kernel"],
    )
    _CACHE[key] = kern
    while len(_CACHE) > KERNEL_CACHE_LIMIT:
        _CACHE.popitem(last=False)
    if _metrics.REGISTRY.enabled:
        _CACHE_EVENTS.inc(result="miss")
        _COMPILE_WALL.observe(wall, patchable=str(patchable).lower())
    return kern


def kernel_cache_info() -> dict[str, int]:
    """Cache statistics: ``{"size", "hits", "misses"}`` (process-wide)."""
    return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_kernel_cache() -> None:
    """Drop every cached kernel and zero the hit/miss counters."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


def evict_kernel(fingerprint: str) -> int:
    """Quarantine: drop every cached variant of one netlist's kernel.

    Removes all cache entries (plain and patchable) whose
    netlist fingerprint matches and returns how many were dropped.  The
    supervised serving tier calls this when a response check convicts a
    worker's output — the compiled artefact can no longer be trusted, so
    the next consumer recompiles from the netlist instead of sharing the
    possibly-corrupted kernel through the process-wide cache.  The
    kernel's native build goes too (:func:`repro.hdl.native.evict_native`
    drops the binding and unlinks the library) and counts as one more.
    """
    from repro.hdl.native import evict_native  # native imports this module

    victims = [key for key in _CACHE if key[0] == fingerprint]
    for key in victims:
        del _CACHE[key]
    return len(victims) + evict_native(fingerprint)


class PackedFaultPlan:
    """Per-lane fault assignment for one fault-parallel packed sweep.

    A plan gives each bit-lane its own fault (or none — the golden
    lane): :meth:`stick` forces a wire to a constant on selected lanes,
    :meth:`upset` flips a register's state on selected lanes at the
    start of one cycle, and :meth:`stick_slots` / :meth:`upset_slots`
    lay a chunk of sites out one per slot of equal width, after a golden
    slot 0, in one call.  Lane sets are kept packed — lane ``i`` at bit
    ``i``, the :func:`pack_lanes` layout — and a stuck-at wire's lanes
    are kept as the ``(keep, force)`` pair the patchable kernel applies,
    so the bigint engine takes :attr:`masks` and :attr:`upsets` as they
    are and the vector engine converts each value once.  The plan also
    implements the interpreter overlay protocol (``wires`` / ``patch`` /
    ``seu``, plus :meth:`seu_lane_flips`), unpacking boolean views on
    demand, so the same plan runs on ``backend="interp"`` lane for lane
    — that is how the engines are cross-checked.  Finish a plan before
    a simulator takes it: the compiled engine sweeps the plan's own
    masks and upsets.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("a fault plan needs at least one lane")
        self.lanes = lanes
        self._full = ones_mask(lanes)
        self._masks: dict[Wire, tuple[int, int]] = {}
        self._upsets: dict[int, dict[Wire, int]] = {}

    def _lane_bits(self, lanes: Any) -> int:
        """The selected lanes as a packed int.

        A unit-step slice is packed by arithmetic; any other NumPy index
        expression selects from a boolean lane vector.
        """
        n = self.lanes
        if isinstance(lanes, slice) and lanes.step in (None, 1):
            start, stop, _ = lanes.indices(n)
            return ((1 << max(0, stop - start)) - 1) << start
        sel = np.zeros(n, dtype=bool)
        sel[lanes] = True
        return pack_lanes(sel)

    def stick(self, wire: Wire, value: bool, lanes: Any) -> None:
        """Force ``wire`` to ``value`` on the selected lanes.

        ``lanes`` is any NumPy index expression over the lane axis
        (boolean mask, index array or list, slice...).  A lane stuck at
        both values reads 1.
        """
        bits = self._lane_bits(lanes)
        keep, force = self._masks.get(wire, (self._full, 0))
        self._masks[wire] = (keep & ~bits, force | bits if value else force)

    def upset(self, register_q: Wire, cycle: int, lanes: Any) -> None:
        """Flip register ``register_q`` on the selected lanes at ``cycle``."""
        per_cycle = self._upsets.setdefault(cycle, {})
        per_cycle[register_q] = per_cycle.get(register_q, 0) ^ self._lane_bits(lanes)

    # -- one call per chunk of fault sites ----------------------------- #

    def _golden_slot(self, sites: int, width: int) -> int:
        """Slot 0's lanes as a packed int, once ``sites`` slots of
        ``width`` lanes after it are known to fit the plan."""
        if width < 1 or (sites + 1) * width > self.lanes:
            raise ValueError(
                f"{sites} sites of {width} lanes after a golden slot "
                f"do not fit {self.lanes} lanes"
            )
        return (1 << width) - 1

    def stick_slots(self, sites: Sequence[tuple[Wire, bool]], width: int) -> None:
        """Force ``sites[k] = (wire, value)`` on slot ``k + 1``.

        Slots are ``width`` lanes wide and slot 0, lanes ``[0, width)``,
        stays golden.  The call builds the plan that a :meth:`stick`
        call per site on lanes ``[(k + 1) * width, (k + 2) * width)``
        builds, making each faulted wire's ``(keep, force)`` pair once.
        Consecutive sites on one wire (its two polarities, as
        :func:`~repro.robustness.faults.stuck_fault_sites` lists them)
        form a run of slots, whose lanes one shift selects; a stuck-at-1
        slot takes one more shift to force.
        """
        block = self._golden_slot(len(sites), width)
        runs: list[list[int]] = []  # [wire, first slot, slots, stuck-at-1 slot bits]
        last: Wire | None = None
        for slot, (wire, value) in enumerate(sites, 1):
            if wire != last:
                run = [wire, slot, 0, 0]
                runs.append(run)
                last = wire
            if value:
                run[3] |= 1 << run[2]
            run[2] += 1
        full, masks = self._full, self._masks
        for wire, first, count, ones in runs:
            # keep first: the shifted run dies before the next wide int
            # is made, which at 32,768 lanes builds a plan ~30 % faster
            keep = full ^ (((1 << count * width) - 1) << first * width)
            force = 0
            while ones:
                low = ones & -ones
                bits = block << (first + low.bit_length() - 1) * width
                force = force | bits if force else bits
                ones ^= low
            held = masks.get(wire)
            if held is not None:  # the wire is stuck on earlier lanes too
                keep, force = held[0] & keep, held[1] | force
            masks[wire] = (keep, force)

    def upset_slots(self, sites: Sequence[tuple[Wire, int]], width: int) -> None:
        """Flip ``sites[k] = (register_q, cycle)`` on slot ``k + 1``,
        laid out as in :meth:`stick_slots`; like :meth:`upset`, repeated
        upsets of one register at one cycle combine by XOR."""
        block = self._golden_slot(len(sites), width)
        upsets = self._upsets
        for register_q, cycle in sites:
            block <<= width
            per_cycle = upsets.setdefault(cycle, {})
            per_cycle[register_q] = per_cycle.get(register_q, 0) ^ block

    # -- packed-engine view -------------------------------------------- #

    @property
    def masks(self) -> dict[Wire, tuple[int, int]]:
        """Wire → packed ``(keep, force)`` masks for the patchable kernel:
        lanes cleared in ``keep`` read ``force``.  The plan's own
        mapping, which callers only read."""
        return self._masks

    @property
    def upsets(self) -> dict[int, dict[Wire, int]]:
        """Cycle → register Q → packed lane-flip mask."""
        return self._upsets

    # -- interpreter overlay protocol ---------------------------------- #

    def seu_lane_flips(self, cycle: int) -> dict[Wire, np.ndarray]:
        """Register Q → boolean lane-flip mask for ``cycle``."""
        return {
            q: unpack_lanes(bits, self.lanes)
            for q, bits in self._upsets.get(cycle, {}).items()
        }

    @property
    def wires(self) -> frozenset[Wire]:
        return frozenset(self._masks)

    def patch(self, wire: Wire, value: np.ndarray, values: Any) -> np.ndarray:
        if value.shape[0] != self.lanes:
            raise ValueError(
                f"fault plan has {self.lanes} lanes but wire {wire} "
                f"carries {value.shape[0]}"
            )
        pair = self._masks.get(wire)
        if pair is None:
            return value
        keep, force = pair
        return (value & unpack_lanes(keep, self.lanes)) | unpack_lanes(force, self.lanes)

    def seu(self, cycle: int) -> Sequence[Wire]:
        # Whole-lane flips are expressed through seu_lane_flips(); the
        # classic protocol hook reports nothing so an engine that only
        # understands it cannot silently half-apply the plan.
        return ()

    def __iter__(self) -> Iterator[Wire]:  # pragma: no cover - convenience
        return iter(self.wires)
