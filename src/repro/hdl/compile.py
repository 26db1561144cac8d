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

Event-driven kernels
--------------------
Sequential streams rarely change every wire every cycle: a pipeline
filling under a held input batch only moves a wavefront of activity one
stage forward per clock.  The *incremental* kernel variant exploits
that — every wire keeps its previous value in a per-simulator state
list ``S`` and a gate re-evaluates only when a fanin's value **object**
changed since the last call.  Identity implies equality for ints, so
skipping on ``is`` can never diverge from full re-evaluation; settled
logic costs two name loads and a branch per gate instead of a big-int
operation.  :class:`~repro.hdl.simulator.SequentialSimulator` uses this
variant whenever no stuck-at masks are active.

Kernel cache
------------
``exec``-compiling costs milliseconds, so kernels are cached in a bounded
LRU keyed by ``(netlist fingerprint, patchable, incremental)``.  The
fingerprint is
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
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.hdl.gates import Op
from repro.hdl.netlist import Netlist, Wire
from repro.hdl.serialize import netlist_fingerprint
from repro.obs import metrics as _metrics

__all__ = [
    "KERNEL_CACHE_LIMIT",
    "SWEEP_LANES",
    "CompiledKernel",
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

#: Payload lanes per packed sweep quantum.  63 payload lanes plus one
#: spare keep every packed wire value inside a single 64-bit word — the
#: cheapest big-int a sweep can carry.  Combinational fault-parallel
#: campaigns pack 63 fault slots plus the golden (fault-free) slot per
#: sweep; the serving layer's micro-batcher coalesces up to this many
#: requests into one sweep.
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
        Wire indices the kernel reads externally (``INPUT`` and ``REG``
        gates in the live cone, in wire order).  The callable's first
        argument is a list of packed integers in exactly this order.
    returns:
        Wire indices the kernel returns, in order: every output-bus wire
        and every register D wire (``index`` maps wire → position).
    patchable:
        Whether the kernel probes the patch mapping after each wire.
    incremental:
        Whether the kernel is event-driven; its callable then takes a
        fifth argument, a mutable state list of ``state_slots`` entries
        (initially all ``None``) holding previous wire values.
    """

    __slots__ = (
        "fingerprint",
        "patchable",
        "incremental",
        "state_slots",
        "leaves",
        "returns",
        "index",
        "source",
        "compile_s",
        "fn",
    )

    def __init__(
        self,
        fingerprint: str,
        patchable: bool,
        incremental: bool,
        state_slots: int,
        leaves: tuple[Wire, ...],
        returns: tuple[Wire, ...],
        source: str,
        compile_s: float,
        fn: Callable[..., tuple[int, ...]],
    ) -> None:
        self.fingerprint = fingerprint
        self.patchable = patchable
        self.incremental = incremental
        self.state_slots = state_slots
        self.leaves = leaves
        self.returns = returns
        self.index: dict[Wire, int] = {w: i for i, w in enumerate(returns)}
        self.source = source
        self.compile_s = compile_s
        self.fn = fn

    def __repr__(self) -> str:
        return (
            f"<CompiledKernel {self.fingerprint[:12]} "
            f"leaves={len(self.leaves)} returns={len(self.returns)} "
            f"patchable={self.patchable} incremental={self.incremental}>"
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
    nl: Netlist, patchable: bool, incremental: bool
) -> tuple[str, tuple[Wire, ...], tuple[Wire, ...], int]:
    """Emit kernel source plus leaf/return wire orders and state size.

    ``incremental=True`` emits the event-driven variant: every wire gets
    a slot in a per-simulator state list ``S`` holding its previous
    value, and a gate re-evaluates only when a fanin's value object
    changed since the last call (identity implies equality for ints, so
    skipping is always sound).  Settled logic — a filled pipeline stage
    under a held input — then costs two name loads and a branch instead
    of a big-int operation.
    """
    live = _live_cone(nl)
    leaves: list[Wire] = []
    sig = "def _kernel(L, P, Z, N, S):" if incremental else "def _kernel(L, P, Z, N):"
    lines = [sig]
    if patchable:
        lines.append("    _g = P.get")
    slot = 0
    for w in live:
        g = nl.gates[w]
        op = g.op
        source_gate = True  # reads the outside world, not other wires
        if op in (Op.INPUT, Op.REG):
            expr = f"L[{len(leaves)}]"
            leaves.append(w)
        elif op is Op.CONST0:
            expr = "Z"
        elif op is Op.CONST1:
            expr = "N"
        else:
            source_gate = False
            if op is Op.BUF:
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
        if not incremental:
            lines.append(f"    v{w} = {expr}")
            if patchable:
                lines.append(f"    m = _g({w})")
                lines.append(f"    if m is not None: v{w} = (v{w} & m[0]) | m[1]")
            continue
        if source_gate:
            lines.append(f"    v{w} = {expr}")
            lines.append(f"    c{w} = v{w} is not S[{slot}]")
            lines.append(f"    if c{w}: S[{slot}] = v{w}")
        else:
            cond = " or ".join(f"c{f}" for f in g.fanin)
            lines.append(f"    if {cond}:")
            lines.append(f"        v{w} = {expr}; c{w} = True; S[{slot}] = v{w}")
            lines.append("    else:")
            lines.append(f"        v{w} = S[{slot}]; c{w} = False")
        slot += 1
    returns: list[Wire] = []
    seen_ret: set[Wire] = set()
    for w in [w for bus in nl.outputs.values() for w in bus] + [
        r.d for r in nl.registers
    ]:
        if w not in seen_ret:
            seen_ret.add(w)
            returns.append(w)
    body = ", ".join(f"v{w}" for w in returns)
    lines.append(f"    return ({body}{',' if len(returns) == 1 else ''})")
    return "\n".join(lines) + "\n", tuple(leaves), tuple(returns), slot


_CACHE: "OrderedDict[tuple[str, bool, bool], CompiledKernel]" = OrderedDict()
_HITS = 0
_MISSES = 0


def compile_netlist(
    nl: Netlist, *, patchable: bool = False, incremental: bool = False
) -> CompiledKernel:
    """Compile (or fetch from cache) the packed-lane kernel for ``nl``.

    ``patchable=True`` builds the variant with per-wire stuck-at mask
    hooks; ``incremental=True`` builds the event-driven variant whose
    gates re-evaluate only on fanin change (sequential streams).  The
    variants are cached independently because each hook costs per-wire
    work on every sweep.
    """
    global _HITS, _MISSES
    if patchable and incremental:
        raise ValueError("patchable and incremental kernels are exclusive")
    key = (netlist_fingerprint(nl), patchable, incremental)
    kern = _CACHE.get(key)
    if kern is not None:
        _CACHE.move_to_end(key)
        _HITS += 1
        if _metrics.REGISTRY.enabled:
            _CACHE_EVENTS.inc(result="hit")
        return kern
    _MISSES += 1
    t0 = time.perf_counter()
    source, leaves, returns, state_slots = _generate(nl, patchable, incremental)
    namespace: dict[str, Any] = {}
    code = compile(source, f"<kernel {nl.name} {key[0][:12]}>", "exec")
    exec(code, namespace)
    wall = time.perf_counter() - t0
    kern = CompiledKernel(
        fingerprint=key[0],
        patchable=patchable,
        incremental=incremental,
        state_slots=state_slots,
        leaves=leaves,
        returns=returns,
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

    Removes all cache entries (plain/patchable/incremental) whose
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
    start of one cycle.  The compiled engines consume the packed
    representations (:attr:`masks`, :meth:`seu_lane_flips`); the plan
    also implements the interpreter overlay protocol (``wires`` /
    ``patch`` / ``seu``), so the same plan runs on ``backend="interp"``
    lane for lane — that is how the engines are cross-checked.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("a fault plan needs at least one lane")
        self.lanes = lanes
        self.n_words = words_for(lanes)
        self._force0: dict[Wire, np.ndarray] = {}
        self._force1: dict[Wire, np.ndarray] = {}
        self._seu: dict[int, dict[Wire, np.ndarray]] = {}
        self._masks: dict[Wire, tuple[int, int]] | None = None

    def _lane_mask(self, lanes: Any) -> np.ndarray:
        sel = np.zeros(self.lanes, dtype=bool)
        sel[lanes] = True
        return sel

    def stick(self, wire: Wire, value: bool, lanes: Any) -> None:
        """Force ``wire`` to ``value`` on the selected lanes.

        ``lanes`` is any NumPy index expression over the lane axis
        (boolean mask, index array, slice...).
        """
        sel = self._lane_mask(lanes)
        target = self._force1 if value else self._force0
        prior = target.get(wire)
        target[wire] = sel if prior is None else (prior | sel)
        self._masks = None

    def upset(self, register_q: Wire, cycle: int, lanes: Any) -> None:
        """Flip register ``register_q`` on the selected lanes at ``cycle``."""
        sel = self._lane_mask(lanes)
        per_cycle = self._seu.setdefault(cycle, {})
        prior = per_cycle.get(register_q)
        per_cycle[register_q] = sel if prior is None else (prior ^ sel)

    # -- compiled-engine view ------------------------------------------ #

    @property
    def masks(self) -> dict[Wire, tuple[int, int]]:
        """Wire → packed ``(keep, force)`` masks for the patchable kernel."""
        if self._masks is None:
            masks: dict[Wire, tuple[int, int]] = {}
            for w in frozenset(self._force0) | frozenset(self._force1):
                f0 = self._force0.get(w)
                f1 = self._force1.get(w)
                forced = (
                    f1
                    if f0 is None
                    else (f0 if f1 is None else (f0 | f1))
                )
                assert forced is not None
                keep = pack_lanes(~forced)
                force = pack_lanes(f1) if f1 is not None else 0
                masks[w] = (keep, force)
            self._masks = masks
        return self._masks

    def seu_lane_flips(self, cycle: int) -> dict[Wire, np.ndarray]:
        """Register Q → boolean lane-flip mask for ``cycle``."""
        return self._seu.get(cycle, {})

    # -- interpreter overlay protocol ---------------------------------- #

    @property
    def wires(self) -> frozenset[Wire]:
        return frozenset(self._force0) | frozenset(self._force1)

    def patch(self, wire: Wire, value: np.ndarray, values: Any) -> np.ndarray:
        if value.shape[0] != self.lanes:
            raise ValueError(
                f"fault plan has {self.lanes} lanes but wire {wire} "
                f"carries {value.shape[0]}"
            )
        out = value
        f0 = self._force0.get(wire)
        if f0 is not None:
            out = out & ~f0
        f1 = self._force1.get(wire)
        if f1 is not None:
            out = out | f1
        return out

    def seu(self, cycle: int) -> Sequence[Wire]:
        # Whole-lane flips are expressed through seu_lane_flips(); the
        # classic protocol hook reports nothing so an engine that only
        # understands it cannot silently half-apply the plan.
        return ()

    def __iter__(self) -> Iterator[Wire]:  # pragma: no cover - convenience
        return iter(self.wires)

