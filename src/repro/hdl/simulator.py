"""Vectorised netlist simulation.

Every simulator ``backend`` knob resolves through the engine registry
(:mod:`repro.hdl.engine`).  This module defines and registers two of
the builtin engines; the third lives in :mod:`repro.hdl.vector`:

* ``"interp"`` (:class:`InterpEngine`) — single-pass interpretation of
  the levelised gate list, one NumPy boolean array per wire.  Fully
  general: supports probes and every fault-overlay kind.
* ``"compiled"`` (:class:`CompiledEngine`) — Verilator-style
  compiled-code simulation (:mod:`repro.hdl.compile`): the netlist is
  code-generated once into straight-line Python over bit-packed integer
  lanes (one *bit* per Monte-Carlo lane), giving order-of-magnitude
  speedups on batched sweeps.  Bit-identical to the interpreter.
* ``"vector"`` (:class:`~repro.hdl.vector.VectorEngine`) — the same
  kernels over NumPy ``uint64`` word arrays, breaking the 63-lane
  quantum for wide sweeps (fault campaigns, bulk serving).
* ``"auto"`` (default) — the highest-priority engine whose declared
  capabilities accept the request (see
  :func:`repro.hdl.engine.resolve_backend`); with the builtin
  priorities that is compiled whenever the request can be served by
  it, interpreter otherwise.  The compiled engine cannot host a probe
  (it keeps no wire-value table) nor arbitrary overlays; stuck-at
  overlays *are* supported, compiled to per-lane masks.  The fallback
  rules are:

  ====================================  ==================
  request                               engine under auto
  ====================================  ==================
  no probe, no overlay                  compiled
  stuck-at overlay (``FaultOverlay``)   compiled (masks)
  :class:`~repro.hdl.compile.
  PackedFaultPlan` overlay              compiled (masks)
  bridging overlay                      interpreter
  any probe attached                    interpreter
  ====================================  ==================

  The resolver never picks the vector engine.  A fault campaign's
  ``engine="auto"`` makes its own choice for SEU passes: it names the
  vector engine for a pass wider than one 64-lane word once the plain
  kernel's C build binds, and that engine's clocked passes sweep it
  (:mod:`repro.robustness.campaign`).

The compiled and vector engines share one driver, :class:`PackedEngine`:
input validation, leaf assembly, register state, fault masks, SEU flips,
the one clocked loop of sequential passes and the lazy outputs
(:class:`PackedOutputs`) are written once over *packed lanes*, and each
engine supplies only its lane format — one Python ``int`` per wire, or
one ``uint64`` word array per wire — and its kernel choices.

Simulator classes:

* :class:`CombinationalSimulator` — single-sweep evaluation.  Register
  outputs are held at a supplied (or reset) state, so a purely
  combinational circuit needs no special handling.
* :class:`SequentialSimulator` — cycle-accurate clocked simulation: each
  :meth:`~SequentialSimulator.step` evaluates the combinational fabric,
  samples every register's D input and advances the state.  This is what
  demonstrates the paper's pipelining claim (latency ``n``, then one
  permutation per clock).

Both engines are *batched*: a single sweep simulates an arbitrary number
of independent input vectors (SIMD over Monte-Carlo lanes).  Word values
at the boundary are plain Python integers of unlimited width, because
the index bus exceeds 64 bits for n ≥ 21 (``log2(21!) ≈ 65.5``).

Fault injection
---------------
Both simulators accept an optional *overlay* — a non-invasive fault
model applied during the sweep, leaving the netlist untouched.  An
overlay is any object with three members (see :class:`repro.robustness.
faults.FaultOverlay` for the concrete implementation):

* ``wires`` — a container of wire indices whose value must be patched;
* ``patch(wire, value, values)`` — returns the faulty lane for ``wire``
  given its healthy ``value`` and the table of already-computed lanes
  (how bridging faults read their aggressor wire);
* ``seu(cycle)`` — register Q wires whose *state* flips at the start of
  the given clock cycle (single-event upsets; sequential engine only).

Overlays exposing ``stuck_assignments()`` (a wire → bool mapping, or
``None`` when not expressible) can run on the compiled engine; per-lane
plans (:class:`~repro.hdl.compile.PackedFaultPlan`) additionally carry
``seu_lane_flips(cycle)`` for lane-selective upsets, which both engines
honour.

Because wires are evaluated in topological order, patching a wire as it
is computed propagates the fault to every downstream gate exactly as a
physical defect would.

Probing
-------
Both simulators also accept an optional *probe* — an observability tap
(see :class:`repro.obs.probes.SimProbe`) whose
``record_sweep(values, batch)`` method is called once per combinational
sweep with the full wire-value table.  A probe forces the interpreter
(the compiled engine never materialises the table); a simulator without
a probe pays exactly one ``is None`` test per sweep.
"""

from __future__ import annotations

import operator
from abc import abstractmethod
from itertools import repeat
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Sequence, cast

import numpy as np

from repro.hdl.compile import (
    SWEEP_LANES,
    CompiledKernel,
    PackedFaultPlan,
    compile_netlist,
    ones_mask,
    pack_lanes,
    unpack_lanes,
    words_for,
)
from repro.hdl.engine import (
    BACKENDS,
    Engine,
    EngineCapabilities,
    register_engine,
    require_backend,
    resolve_backend,
)
from repro.hdl.gates import Op, evaluate_op
from repro.hdl.netlist import Netlist
from repro.obs import metrics as _metrics

__all__ = [
    "bits_from_ints",
    "ints_from_bits",
    "packed_bit_columns",
    "pack_bus",
    "read_buses",
    "unpack_buses",
    "BatchEntry",
    "CombinationalSimulator",
    "SequentialSimulator",
    "InterpEngine",
    "PackedEngine",
    "PackedOutputs",
    "CompiledEngine",
    "BACKENDS",
]

_SWEEPS = _metrics.REGISTRY.counter(
    "repro_sim_sweeps_total",
    "combinational sweeps evaluated",
    ("engine",),
)
_SWEEP_LANES = _metrics.REGISTRY.histogram(
    "repro_sim_lanes_per_sweep",
    "Monte-Carlo lanes per combinational sweep",
    ("engine",),
    buckets=(1.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
)


def bits_from_ints(
    values: "Sequence[int] | np.ndarray", width: int
) -> list[np.ndarray]:
    """Explode integers into ``width`` boolean lanes, LSB first: the
    columns of :func:`_bit_matrix`."""
    return list(np.ascontiguousarray(_bit_matrix(values, width).T))


def _bit_matrix(values: "Sequence[int] | np.ndarray", width: int) -> np.ndarray:
    """Integers as a ``(len(values), width)`` boolean matrix: column
    ``b`` holds bit ``b`` of every value.

    Batches whose values fit a machine word (``width <= 64``) are
    exploded with one ``unpackbits`` over their little-endian bytes;
    wider buses — the index bus for n ≥ 21 exceeds 64 bits — fall back
    to object-dtype bigint arithmetic.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # an int list mixing values above int64 with smaller ones
        # promotes to lossy float64; rebuild exactly from the originals
        # (a Python float is refused, not truncated)
        arr = np.array([operator.index(v) for v in values], dtype=object)
    if width <= 64 and arr.dtype.kind in "iu" and arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise ValueError("bus values must be non-negative")
        hi = int(arr.max())
        if hi.bit_length() > width:
            raise ValueError(f"value {hi} does not fit in {width} bits")
        raw = arr.astype("<u8").view(np.uint8).reshape(arr.size, 8)
        return np.unpackbits(raw, axis=1, count=width, bitorder="little").view(bool)
    obj = arr.astype(object)
    for v in obj:
        if v < 0:
            raise ValueError("bus values must be non-negative")
        if int(v).bit_length() > width:
            raise ValueError(f"value {v} does not fit in {width} bits")
    bits = np.array([((obj >> b) & 1).astype(bool) for b in range(width)])
    return bits.reshape(width, arr.size).T


def ints_from_bits(bits: Sequence[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`bits_from_ints`; returns an integer array.

    Buses up to one byte come back as ``uint8``, machine-word buses as
    ``uint64`` — materialising a Python int object per lane would
    dominate wide sweeps — and wider buses as object arrays of bigints.
    """
    if not bits:
        raise ValueError("empty bit list")

    def _u8(lane: np.ndarray) -> np.ndarray:
        # bool and uint8 share a byte layout, so the common case is free
        return lane.view(np.uint8) if lane.dtype == np.bool_ else lane.astype(np.uint8)

    if len(bits) <= 8:
        byte = _u8(bits[0]).copy()
        for b, lane in enumerate(bits[1:], start=1):
            byte |= _u8(lane) << np.uint8(b)
        return byte
    if len(bits) <= 32:
        word32 = np.zeros(bits[0].shape, dtype=np.uint32)
        for b, lane in enumerate(bits):
            word32 |= lane.astype(np.uint32) << np.uint32(b)
        return word32
    if len(bits) <= 64:
        word = np.zeros(bits[0].shape, dtype=np.uint64)
        for b, lane in enumerate(bits):
            word |= lane.astype(np.uint64) << np.uint64(b)
        return word
    acc = np.zeros(bits[0].shape, dtype=object)
    for b, lane in enumerate(bits):
        acc = acc + lane.astype(object) * (1 << b)
    return acc


#: Row s selects bit s of each of a ``uint64``'s eight bytes.
_BYTE_BITS = (np.uint64(0x0101010101010101) << np.arange(8, dtype=np.uint64))[:, None]

#: The little-endian word dtype that holds a value of ``nb`` bytes.
_LE_WORDS = tuple(np.dtype(f"<u{size}") for size in (1, 1, 2, 4, 4, 8, 8, 8, 8))


def packed_bit_columns(arr: np.ndarray, width: int) -> np.ndarray:
    """Transpose a machine-word batch into packed per-bit lane rows.

    Returns ``(width, 8 * words_for(len(arr)))`` uint8: row j holds bit j
    of every value, packed little-endian and zero-padded to whole 64-lane
    words — the byte layout of both packed lane integers and the vector
    engine's word arrays.  The values' bytes are laid out byte-major (a
    copy an eighth the size of the bit matrix), masked into ``(width,
    lanes)`` bit planes over ``uint64`` views — eight lanes per
    operation — and packed along the lanes in one ``packbits``.
    """
    n_vals, nb = arr.shape[0], (width + 7) // 8
    dtype = _LE_WORDS[nb]
    cols = np.zeros((nb, 1, 64 * words_for(n_vals)), dtype=np.uint8)
    raw = arr.astype(dtype).view(np.uint8).reshape(n_vals, dtype.itemsize)
    cols[:, 0, :n_vals] = raw[:, :nb].T
    planes = cols.view(np.uint64) & _BYTE_BITS  # nonzero bytes are set bits
    bits = planes.view(np.uint8).reshape(nb * 8, -1)[:width]
    return np.packbits(bits, axis=1, bitorder="little")


def _fold_bits(bits: np.ndarray) -> np.ndarray:
    """Fold a ``(width, ..., lanes)`` 0/1 byte array into words over its
    other axes.

    Axis 0 is the bit, LSB first: a ``(width, lanes)`` matrix folds one
    bus, a ``(width, buses, sweeps, lanes)`` stack many at once.  The
    lane axis is contiguous and a multiple of 8 long, as ``unpackbits``
    leaves whole words.  Each group of eight bits ORs into one byte per
    lane over ``uint64`` views of the lanes — eight lanes per shift —
    and the groups are the bytes of the word, whose dtype tracks the
    width like :func:`ints_from_bits`.
    """
    width = bits.shape[0]
    groups = []
    for k in range(0, width, 8):
        acc = bits[k].view(np.uint64).copy()
        for i in range(k + 1, min(k + 8, width)):
            acc |= bits[i].view(np.uint64) << np.uint64(i - k)
        groups.append(acc.view(np.uint8))
    if width <= 8:
        return groups[0]
    dtype = _LE_WORDS[4 if width <= 32 else 8]
    word = np.zeros(groups[0].shape + (dtype.itemsize,), dtype=np.uint8)
    for j, byte in enumerate(groups):
        word[..., j] = byte
    return word.view(dtype)[..., 0].astype(dtype.newbyteorder("="), copy=False)


def pack_bus(
    engine: "type[PackedEngine]",
    values: "Sequence[int] | np.ndarray",
    width: int,
    batch: int,
    words: int,
    zero: Any,
    ones: Any,
) -> list[Any]:
    """Explode one input bus's word batch into per-wire lane values.

    The boundary transpose (values × bits → bits × lanes) must not cost
    more than the sweep it feeds: machine-word buses go through one
    :func:`packed_bit_columns` round trip whose byte rows the engine's
    lane format adopts, a single value broadcasts straight from its
    int's bits to the shared ``zero`` / ``ones`` constants, and wide
    buses fall back to per-wire boolean lanes.
    """
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if len(values) == 1:
        # one word — a one-lane bus, or broadcast against a batch: each
        # bit is one of the shared constants, so nothing is allocated.
        # A NumPy scalar is read as its Python value, so floats and
        # strings are refused here.
        first = values[0]
        value = operator.index(first.item() if isinstance(first, np.generic) else first)
        if value < 0:
            raise ValueError("bus values must be non-negative")
        if value.bit_length() > width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        return [ones if value >> b & 1 else zero for b in range(width)]
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    if width <= 64 and arr.dtype.kind in "iu" and arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise ValueError("bus values must be non-negative")
        hi = int(arr.max())
        if hi.bit_length() > width:
            raise ValueError(f"value {hi} does not fit in {width} bits")
        return engine.pack_rows(packed_bit_columns(arr, width), words)
    return [engine.pack_bools(lane, words) for lane in bits_from_ints(values, width)]


def read_buses(
    sweeps: "Sequence[Mapping[str, np.ndarray]]", names: Sequence[str]
) -> np.ndarray:
    """The named buses of one or more sweeps as one word matrix.

    Returns ``(len(names), len(sweeps), lanes)`` per-lane words whose
    dtype tracks the widest named bus like :func:`ints_from_bits`.  The
    sweeps come from one engine at one lane count — every clock of a
    sequential pass, say.  The interpreter's outputs are words already;
    packed sweeps cross the lane boundary once: every named bus of every
    sweep (narrower ones padded with the zero lane) in one byte matrix,
    one ``unpackbits`` and one :func:`_fold_bits` (or, past 64 bits, one
    :func:`ints_from_bits`).  Sweeps of one kernel whose results are
    word matrices (the native kernel's) give that byte matrix in one
    gather of their rows.
    """
    first = sweeps[0]
    if not isinstance(first, PackedOutputs):
        return np.array([[outs[name] for outs in sweeps] for name in names])
    engine, lanes, pos = first._engine, first._lanes, first._pos
    width = max(len(pos[name]) for name in names)
    words = words_for(lanes)
    if isinstance(first._outs, np.ndarray) and all(s._pos is pos for s in sweeps):
        index = np.array([pos[n] + (0,) * (width - len(pos[n])) for n in names])
        picked = np.stack([s._outs for s in sweeps])[:, index]  # sweeps, names, bits
        for k, name in enumerate(names):
            if len(pos[name]) < width:
                picked[:, k, len(pos[name]) :] = 0
        rows = engine.unpack_rows(picked.swapaxes(0, 1).reshape(-1, words), words)
    else:
        zero = engine.constants(lanes)[0]
        values = []
        for name in names:
            for s in sweeps:
                bus = s._pos[name]
                values += [s._outs[i] for i in bus]
                values += [zero] * (width - len(bus))
        rows = engine.unpack_rows(values, words)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    bits = bits.reshape(len(names), len(sweeps), width, -1).transpose(2, 0, 1, 3)
    if width > 64:  # the index bus past n = 20
        return ints_from_bits(list(bits[..., :lanes]))
    return _fold_bits(bits)[..., :lanes]


def unpack_buses(
    sweeps: "Sequence[PackedOutputs]", names: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Read buses of one or more packed sweeps, bus by name.

    Returns bus name → ``(len(sweeps), lanes)`` per-lane words for each
    of ``names`` (default: every bus of the sweeps), each in its own
    width's dtype: the buses of one width are one :func:`read_buses`.
    """
    first = sweeps[0]
    names = list(first._pos) if names is None else names
    groups: dict[int, list[str]] = {}  # buses by width
    for name in names:
        groups.setdefault(len(first._pos[name]), []).append(name)
    out = {n: w for g in groups.values() for n, w in zip(g, read_buses(sweeps, g))}
    return {name: out[name] for name in names}


class PackedOutputs(Mapping[str, np.ndarray]):
    """Deferred bus materialisation for the packed engines.

    Holds a sweep's results — the lane values the kernel returned after
    its register Ds — and each output bus's positions in them, and
    performs the lane → per-lane-word boundary transpose
    (:func:`read_buses`) the first time a bus is read by name, caching
    the result.  During pipeline fill a batch sweep never looks at the
    outputs, and neither a population nor a fault campaign reads the
    converter's 24-bit ``word`` bus — deferring per bus makes those cost
    nothing, and an output nobody reads costs no per-bus lists either.
    A caller that reads several buses passes the mapping to
    :func:`read_buses`, which reads them, across one or more sweeps, in
    one transpose.  Reading any bus yields exactly the array eager
    materialisation would have produced.
    """

    __slots__ = ("_engine", "_outs", "_pos", "_lanes", "_cache")

    def __init__(
        self,
        engine: "type[PackedEngine]",
        outs: Any,
        positions: dict[str, tuple[int, ...]],
        lanes: int,
    ) -> None:
        """Bus ``name`` is ``outs[i] for i in positions[name]``: a
        kernel's results after its register Ds and its layout's output
        positions."""
        self._engine = engine
        self._outs = outs
        self._pos = positions
        self._lanes = lanes
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            arr = self._cache[name] = read_buses([self], [name])[0, 0]
        return arr

    def __iter__(self) -> Iterator[str]:
        return iter(self._pos)

    def __len__(self) -> int:
        return len(self._pos)


def _bus_values(
    val: "int | Sequence[int] | np.ndarray",
) -> "Sequence[int] | np.ndarray":
    """One bus's input as a sequence of words: a scalar is one word, and
    an ndarray batch is kept as it is (copying 10^4-lane sweeps into
    Python lists would dominate the compiled kernel)."""
    if isinstance(val, (int, np.integer)):
        return [int(val)]
    return val if isinstance(val, np.ndarray) else list(val)


def _check_buses(nl: Netlist, inputs: Mapping[str, Any]) -> None:
    """Refuse an input mapping that misses a bus or names an unknown one."""
    if inputs.keys() != nl.inputs.keys():
        missing = set(nl.inputs) - set(inputs)
        if missing:
            raise ValueError(f"missing inputs: {sorted(missing)}")
        raise ValueError(f"unknown inputs: {sorted(set(inputs) - set(nl.inputs))}")


def _coerce_inputs(
    nl: Netlist, inputs: Mapping[str, int | Sequence[int]]
) -> tuple[dict[str, "Sequence[int] | np.ndarray"], int]:
    """Validate an input mapping; return per-bus sequences and batch size."""
    _check_buses(nl, inputs)
    batch = 1
    seqs: dict[str, "Sequence[int] | np.ndarray"] = {}
    for name, val in inputs.items():
        seqs[name] = _bus_values(val)
        if len(seqs[name]) != 1:
            if batch != 1 and len(seqs[name]) != batch:
                raise ValueError("inconsistent batch sizes")
            batch = max(batch, len(seqs[name]))
    return seqs, batch


def _observe_sweep(engine: str, lanes: int) -> None:
    if _metrics.REGISTRY.enabled:
        _SWEEPS.inc(engine=engine)
        _SWEEP_LANES.observe(float(lanes), engine=engine)


class CombinationalSimulator:
    """Evaluate a netlist's combinational fabric on a batch of inputs."""

    def __init__(
        self, netlist: Netlist, probe: Any = None, backend: str = "auto"
    ) -> None:
        require_backend(backend)
        netlist.check()
        self.netlist = netlist
        self.probe = probe
        self.backend = backend
        self._wire_values: list[np.ndarray | None] = []
        # Interpreter scratch, reused across sweeps (satellite: no
        # per-cycle reallocation): the wire-value table and the shared
        # constant lanes, keyed by batch size.
        self._values_buf: list[Any] = []
        self._const_lanes: dict[tuple[int, bool], np.ndarray] = {}

    # -- public API ----------------------------------------------------- #

    def run(
        self,
        inputs: Mapping[str, int | Sequence[int]],
        reg_state: Mapping[int, np.ndarray] | None = None,
        overlay: Any = None,
    ) -> Mapping[str, np.ndarray]:
        """Evaluate outputs for a batch of input words.

        Parameters
        ----------
        inputs:
            Maps input-bus name to a scalar or sequence of integers.  All
            sequences must share one batch size; scalars broadcast.
        reg_state:
            Optional boolean lane per register Q wire; registers read their
            ``init`` value when omitted.
        overlay:
            Optional fault overlay (see module docstring); faulty wires
            are patched as the sweep reaches them, so downstream logic
            sees the defective value.

        Returns
        -------
        Mapping
            Output-bus name → array of integers (batch-sized).  A packed
            engine returns the lazy :class:`PackedOutputs`, which
            converts a bus the first time it is read.
        """
        seqs, batch = _coerce_inputs(self.netlist, inputs)
        engine = resolve_backend(self.backend, probe=self.probe, overlay=overlay)
        return engine.comb_run(self, seqs, batch, reg_state, overlay)

    # -- interpreter ---------------------------------------------------- #

    def _const_lane(self, batch: int, value: bool) -> np.ndarray:
        """A shared read-only constant lane (callers must not mutate)."""
        key = (batch, value)
        lane = self._const_lanes.get(key)
        if lane is None:
            if any(k[0] != batch for k in self._const_lanes):
                self._const_lanes.clear()  # keep one batch size around
            lane = np.full(batch, value, dtype=bool)
            self._const_lanes[key] = lane
        return lane

    def _run_interp(
        self,
        seqs: Mapping[str, "Sequence[int] | np.ndarray"],
        batch: int,
        reg_state: Mapping[int, np.ndarray] | None,
        overlay: Any,
    ) -> dict[str, np.ndarray]:
        nl = self.netlist
        if len(self._values_buf) != len(nl.gates):
            self._values_buf = [None] * len(nl.gates)
        values = self._values_buf
        preset: set[int] = set()
        for name, bus in nl.inputs.items():
            lanes = bits_from_ints(seqs[name], bus.width)
            for wire, lane in zip(bus, lanes):
                if lane.shape[0] == 1 and batch != 1:
                    lane = np.broadcast_to(lane, (batch,))
                values[wire] = np.ascontiguousarray(lane)
                preset.add(wire)

        faulty = overlay.wires if overlay is not None else ()
        init_state = {r.q: r.init for r in nl.registers}
        for w, g in enumerate(nl.gates):
            if w not in preset:
                if g.op is Op.CONST0:
                    values[w] = self._const_lane(batch, False)
                elif g.op is Op.CONST1:
                    values[w] = self._const_lane(batch, True)
                elif g.op is Op.REG:
                    if reg_state is not None and w in reg_state:
                        lane = np.asarray(reg_state[w], dtype=bool)
                        values[w] = (
                            np.broadcast_to(lane, (batch,))
                            if lane.shape[0] == 1
                            else lane
                        )
                    else:
                        values[w] = self._const_lane(batch, init_state[w])
                elif g.op is Op.INPUT:
                    raise ValueError(f"input wire {w} ({g.name}) left undriven")
                else:
                    values[w] = evaluate_op(g.op, tuple(values[f] for f in g.fanin))
            if w in faulty:
                values[w] = overlay.patch(w, values[w], values)

        self._wire_values = values  # exposed for SequentialSimulator / debug
        if self.probe is not None:
            self.probe.record_sweep(values, batch)
        _observe_sweep("interp", batch)
        return {
            name: ints_from_bits([values[w] for w in bus])
            for name, bus in nl.outputs.items()
        }


class BatchEntry:
    """Prepared batch entry into one netlist's compiled kernel.

    The serving hot path (:mod:`repro.serve`) evaluates the same
    combinational netlist on small request batches thousands of times a
    second.  Going through :meth:`CombinationalSimulator.run` would
    re-resolve the engine and re-fetch the kernel on each call; a
    ``BatchEntry`` freezes both once at construction: the resolved
    engine and the compiled kernel (fetched through the process-wide
    kernel cache, so structurally identical netlists share one
    compilation, and with it the kernel's
    :class:`~repro.hdl.compile.LeafLayout`).

    A sweep then costs one boundary pack per input bus, one kernel call
    and one (lazy) boundary unpack.  Registers are held at their reset
    values — exactly :meth:`CombinationalSimulator.run` with no
    ``reg_state`` — so a purely combinational circuit needs nothing
    special and a pipelined one reads as its reset-state fabric.
    """

    __slots__ = ("netlist", "kernel", "engine", "_interp_sim")

    def __init__(self, netlist: Netlist, backend: str = "compiled") -> None:
        netlist.check()
        self.netlist = netlist
        # Engine resolution happens once, here: the serving hot path
        # must never re-resolve per sweep.  No probe and no overlay ever
        # ride a batch entry, so the resolved engine is final.
        self.engine = resolve_backend(backend)
        self.kernel = compile_netlist(netlist)
        self._interp_sim: "CombinationalSimulator | None" = None

    def run(
        self,
        inputs: Mapping[str, int | Sequence[int]],
        materialize: bool = True,
    ) -> Mapping[str, np.ndarray]:
        """One compiled sweep over a batch of input words.

        Same contract as :meth:`CombinationalSimulator.run` (scalars
        broadcast, sequences must agree on one batch size); with
        ``materialize=False`` the returned mapping defers each output
        bus's boundary transpose until first read
        (:class:`PackedOutputs`).
        """
        seqs, batch = _coerce_inputs(self.netlist, inputs)
        return self.engine.batch_run(self, seqs, batch, materialize)

    def run_stream(
        self,
        input_batches: "Iterable[Mapping[str, int | Sequence[int]]]",
        materialize: bool = False,
    ) -> "Iterator[Mapping[str, np.ndarray]]":
        """Lazily sweep a stream of input batches through one entry.

        A generator over :meth:`run` — one sweep per batch, yielded as
        it completes, with ``materialize=False`` by default so outputs
        stay in the engine's packed lane form until the consumer reads
        a bus.  The input iterable is consumed one batch per sweep, so
        a generator input and a consumer that drops each result before
        asking for the next hold one sweep's inputs and outputs at a
        time.  That is the population-scale analysis contract
        (:mod:`repro.analysis.stream`, whose sweeps carry several
        campaign blocks each): a 10⁸-permutation campaign holds
        O(sweep) memory regardless of length.
        """
        for inputs in input_batches:
            yield self.run(inputs, materialize=materialize)


class SequentialSimulator:
    """Clocked simulation with batched register state.

    Each lane of the batch is an independent copy of the circuit — useful
    for running many Monte-Carlo streams through one pipelined shuffle
    circuit simultaneously, or one fault per lane in fault-parallel
    campaigns.

    Under a packed engine the register state lives in packed lanes, in
    the register slots of the kernel's leaf list; the :attr:`state`
    property unpacks on demand and re-packs after assignment, so callers
    that read or overwrite boolean state keep working unchanged.
    (Mutating the arrays *inside* a read ``state`` dict in place is not
    supported on the packed engines.)
    """

    def __init__(
        self,
        netlist: Netlist,
        batch: int = 1,
        overlay: Any = None,
        probe: Any = None,
        backend: str = "auto",
    ) -> None:
        self.comb = CombinationalSimulator(netlist, probe=probe, backend=backend)
        self.netlist = netlist
        self.batch = batch
        self.overlay = overlay
        self.probe = probe
        self.backend = backend
        self.cycle = 0
        # The overlay and probe are fixed for the simulator's lifetime,
        # so the engine resolves once, here, through the registry.
        self.engine = resolve_backend(backend, probe=probe, overlay=overlay)
        self._bool_state: dict[int, np.ndarray] | None = {}
        # packed engines: the kernel's leaves (register state in its
        # register slots, the last packed inputs after them; a list, or
        # the vector format's word matrix) and the kernel they are laid
        # out for, the overlay's masks and upsets (converted once) and
        # the (zero, ones) constants
        self._leaf_values: Any = None
        self._leaf_kern: CompiledKernel | None = None
        self._masks: Mapping[int, tuple[Any, Any]] | None = None
        self._upsets: Mapping[int, tuple[Sequence[int], Sequence[Any]]] = {}
        self._zero: Any = None
        self._ones: Any = None
        self.reset()

    # -- state access --------------------------------------------------- #

    @property
    def state(self) -> dict[int, np.ndarray]:
        """Register Q wire → boolean lane vector (unpacked on demand)."""
        bool_state = self._bool_state
        if bool_state is None:
            bool_state = self.engine.seq_unpack_state(self)
            self._bool_state = bool_state
        return bool_state

    @state.setter
    def state(self, value: Mapping[int, np.ndarray]) -> None:
        self._bool_state = dict(value)
        self._leaf_values = None

    def reset(self) -> None:
        """Load every register with its init value; rewind the cycle count."""
        self.cycle = 0
        self.engine.seq_reset(self)

    # -- stepping ------------------------------------------------------- #

    def step(
        self, inputs: Mapping[str, int | Sequence[int]]
    ) -> Mapping[str, np.ndarray]:
        """Advance one clock: evaluate, emit outputs, latch register Ds.

        With an overlay attached, any SEU scheduled for this cycle flips
        the stored register state *before* evaluation; the corrupted
        value then propagates (and is re-latched downstream) exactly
        once — a transient upset, not a stuck bit.  A packed engine
        runs a one-cycle :meth:`run_stream` and returns the lazy
        :class:`PackedOutputs`, as ``materialize=False`` does.
        """
        return self.engine.seq_step(self, inputs)

    def _apply_seu_interp(self) -> None:
        if self.overlay is None:
            return
        flips = getattr(self.overlay, "seu_lane_flips", None)
        if flips is not None:
            state = self.state
            for q, lane_mask in flips(self.cycle).items():
                state[q] = state[q] ^ lane_mask
        for q in self.overlay.seu(self.cycle):
            self.state[q] = np.logical_not(self.state[q])

    def _step_interp(
        self, inputs: Mapping[str, int | Sequence[int]]
    ) -> dict[str, np.ndarray]:
        self._apply_seu_interp()
        outputs = self.comb.run(inputs, reg_state=self.state, overlay=self.overlay)
        wire_values = self.comb._wire_values
        next_state: dict[int, np.ndarray] = {}
        for r in self.netlist.registers:
            lane = wire_values[r.d]
            assert lane is not None
            if lane.shape[0] != self.batch:
                lane = np.broadcast_to(lane, (self.batch,)).copy()
            next_state[r.q] = lane
        self.state = next_state
        self.cycle += 1
        return outputs

    def run_stream(
        self,
        input_stream: Sequence[Mapping[str, int | Sequence[int]]],
        materialize: bool = True,
    ) -> list[Mapping[str, np.ndarray]]:
        """Feed a sequence of per-cycle inputs; collect per-cycle outputs.

        Scratch buffers (wire table, packed state) are allocated once and
        reused for every cycle.  Under a packed engine the whole stream
        is checked and packed before the first clock: a bus given one
        word per cycle is packed for every cycle at once, and a batch
        fed as the *same object* on consecutive cycles is packed once.

        With ``materialize=False`` a packed engine defers the lane → word
        boundary transpose: each cycle's mapping converts a bus the
        first time it is read (:class:`PackedOutputs`).  A pipelined
        batch sweep only reads the outputs after the pipeline has
        filled, so fill cycles cost just the kernel call.  The
        interpreter produces output words as a byproduct of gate
        evaluation, so the flag is a no-op there; values read from any
        engine are identical regardless.
        """
        return self.engine.seq_run_stream(self, input_stream, materialize)


# --------------------------------------------------------------------- #
# builtin engine registrations


@register_engine
class InterpEngine(Engine):
    """The boolean interpreter: fully general, one array per wire.

    The only engine that materialises the wire-value table, so it hosts
    probes and arbitrary overlays (bridging faults read their aggressor
    wires from that table).  ``auto_priority`` 0: the fallback every
    other engine defers to.
    """

    name = "interp"
    capabilities = EngineCapabilities(
        name="interp",
        sweep_lanes=4096,
        probes=True,
        patch_masks=True,
        seu_lanes=True,
        general_overlays=True,
        auto_priority=0,
    )

    @classmethod
    def comb_run(cls, sim, seqs, batch, reg_state, overlay):
        return sim._run_interp(seqs, batch, reg_state, overlay)

    @classmethod
    def batch_run(cls, entry, seqs, batch, materialize):
        sim = entry._interp_sim
        if sim is None:
            sim = entry._interp_sim = CombinationalSimulator(
                entry.netlist, backend="interp"
            )
        return sim._run_interp(seqs, batch, None, None)

    @classmethod
    def seq_reset(cls, sim):
        sim.state = {
            r.q: np.full(sim.batch, r.init, dtype=bool)
            for r in sim.netlist.registers
        }

    @classmethod
    def seq_step(cls, sim, inputs):
        return sim._step_interp(inputs)

    @classmethod
    def seq_unpack_state(cls, sim):
        # the interpreter keeps boolean state directly; an unset
        # _bool_state can only mean "no registers"
        return {}


class LeafList:
    """A clocked pass's leaves as a list of lane values, swept by the
    kernel function: how both lane formats' Python kernels run a pass.

    Each :meth:`tick` writes a clock's inputs into the leaves after the
    registers, calls the kernel once, latches the register Ds into the
    register leaves with one slice (register ``i`` is leaf and result
    ``i``) and returns the results after them, the output values of
    that clock.  Lane values are never changed in place — a flip makes
    a new value — so a clock's outputs stay as they were while later
    clocks run.
    """

    __slots__ = ("leaves", "_fn", "_masks", "_zero", "_ones", "_regs")

    def __init__(
        self,
        kern: CompiledKernel,
        masks: Mapping[int, Any],
        leaves: Sequence[Any] | None,
        zero: Any,
        ones: Any,
    ) -> None:
        if leaves is None:  # every register at its init value
            leaves = PackedEngine._leaf_list(kern, {}, zero, ones)
        self.leaves = leaves if isinstance(leaves, list) else list(leaves)
        self._fn = kern.fn
        self._masks = masks
        self._zero, self._ones = zero, ones
        self._regs = len(kern.layout.registers)

    def rows(self, bits: np.ndarray) -> list[list[Any]]:
        """Per cycle, the input leaves a ``(cycles, inputs)`` bit matrix
        sets: each bit as the shared ``zero`` or ``ones``."""
        pair = (self._zero, self._ones)
        return [[pair[b] for b in row] for row in bits.tolist()]

    def flip(self, slots: Sequence[int], values: Sequence[Any]) -> None:
        """XOR ``values[k]`` into register leaf ``slots[k]``."""
        leaves = self.leaves
        for slot, value in zip(slots, values):
            leaves[slot] = leaves[slot] ^ value

    def tick(self, row: Sequence[Any]) -> Sequence[Any]:
        """One clock on the input leaves ``row``: sweep, latch the
        register Ds; the output values."""
        leaves, regs = self.leaves, self._regs
        leaves[regs:] = row
        outs = self._fn(leaves, self._masks, self._zero, self._ones)
        leaves[:regs] = outs[:regs]
        return outs[regs:]


class PackedEngine(Engine):
    """The packed-lane driver shared by the compiled and vector engines.

    Both engines sweep :func:`~repro.hdl.compile.compile_netlist`
    kernels over *packed lanes*: lane ``i`` of a wire is bit ``i % 64``
    of its word ``i // 64``, little-endian, and the kernel source means
    the same over any value type with ``&``, ``|`` and ``^``.  This
    class implements every engine hook once over that layout, filling
    each kernel's leaves and reading its results through the kernel's
    :class:`~repro.hdl.compile.LeafLayout`; a subclass supplies its lane
    format:

    * :meth:`constants` — the shared ``(zero, ones)`` lane values;
    * :meth:`pack_rows` / :meth:`unpack_rows` — lane values from and to
      rows of little-endian bytes, around the shared
      :func:`packed_bit_columns` / :func:`_fold_bits` transposes;
    * :meth:`pack_bools` / :meth:`unpack_bools` — a boolean lane vector
      to and from one lane value (register state, buses wider than 64
      bits);
    * :meth:`fault_lanes` — a
      :class:`~repro.hdl.compile.PackedFaultPlan`'s packed-int masks and
      upsets in the format;

    and may override the kernel choices: :meth:`seq_kernel` for
    sequential passes (both formats sweep the plain kernel, or the
    patchable one under stuck-at masks), :meth:`clock` for the leaves a
    clocked pass keeps and :meth:`prepared_sweep` for
    :class:`BatchEntry` sweeps.
    """

    #: the lazy output mapping sweeps return unless asked to materialize
    lazy_outputs: ClassVar[type[PackedOutputs]] = PackedOutputs

    # -- lane format ---------------------------------------------------- #

    @classmethod
    @abstractmethod
    def constants(cls, lanes: int) -> tuple[Any, Any]:
        """Shared ``(zero, ones)`` lane values; ``ones`` sets exactly
        the first ``lanes`` bits, so kernel inversion (``v ^ N``) never
        sets a bit beyond the last lane."""

    @classmethod
    @abstractmethod
    def pack_rows(cls, rows: np.ndarray, words: int) -> list[Any]:
        """One lane value per row of a little-endian packed
        ``(wires, 8 * words)`` byte matrix."""

    @classmethod
    @abstractmethod
    def unpack_rows(cls, values: Sequence[Any], words: int) -> np.ndarray:
        """Lane values as a ``(len(values), 8 * words)`` uint8 matrix."""

    @classmethod
    @abstractmethod
    def pack_bools(cls, lane: np.ndarray, words: int) -> Any:
        """A boolean lane vector as one lane value."""

    @classmethod
    @abstractmethod
    def unpack_bools(cls, value: Any, lanes: int) -> np.ndarray:
        """The first ``lanes`` bits of a lane value, as bools."""

    @classmethod
    @abstractmethod
    def fault_lanes(
        cls, plan: PackedFaultPlan, words: int
    ) -> tuple[Mapping[int, Any], Mapping[int, tuple[Sequence[int], Sequence[Any]]]]:
        """A fault plan's wire → ``(keep, force)`` masks and cycle →
        ``(register Qs, flips)`` upsets, each packed int (lane ``i`` at
        bit ``i``) as a lane value."""

    # -- kernel choices ------------------------------------------------- #

    @classmethod
    def seq_kernel(cls, nl: Netlist, masks: Mapping[int, Any]) -> CompiledKernel:
        """The kernel a sequential pass sweeps."""
        return compile_netlist(nl, patchable=bool(masks))

    @classmethod
    def clock(
        cls,
        kern: CompiledKernel,
        masks: Mapping[int, Any],
        leaves: Sequence[Any] | None,
        words: int,
        zero: Any,
        ones: Any,
    ) -> Any:
        """The leaves a clocked pass of ``kern`` keeps, starting from
        ``leaves`` (``None``: every register at its init value), and
        their sweep (:class:`LeafList`'s interface)."""
        return LeafList(kern, masks, leaves, zero, ones)

    @classmethod
    def prepared_sweep(
        cls, kern: CompiledKernel, leaves: list[Any], words: int, zero: Any, ones: Any
    ) -> Any:
        """One unpatched sweep of a :class:`BatchEntry`'s kernel; the
        result is indexed by the positions ``kern.layout`` gives."""
        return kern.fn(leaves, {}, zero, ones)

    @classmethod
    def pack(
        cls, values: Any, width: int, batch: int, words: int, zero: Any, ones: Any
    ) -> list[Any]:
        """One input bus's batch as per-wire lane values (:func:`pack_bus`)."""
        return pack_bus(cls, values, width, batch, words, zero, ones)

    # -- shared plumbing ------------------------------------------------ #

    @classmethod
    def _lane_from_bools(cls, lane: Any, batch: int, words: int) -> Any:
        arr = np.asarray(lane, dtype=bool)
        if arr.shape[0] != batch:
            arr = np.broadcast_to(arr, (batch,))
        return cls.pack_bools(arr, words)

    @classmethod
    def _overlay_lanes(
        cls, overlay: Any, batch: int, words: int, zero: Any, ones: Any
    ) -> tuple[Mapping[int, Any], Mapping[int, tuple[Sequence[int], Sequence[Any]]]]:
        """An accepted overlay's per-wire ``(keep, force)`` lane masks
        and, for a fault plan, its per-cycle register flips."""
        if overlay is None:
            return {}, {}
        if isinstance(overlay, PackedFaultPlan):
            if overlay.lanes != batch:
                raise ValueError(
                    f"fault plan has {overlay.lanes} lanes, batch is {batch}"
                )
            return cls.fault_lanes(overlay, words)
        stuck = overlay.stuck_assignments() or {}
        return {w: (zero, ones if v else zero) for w, v in stuck.items()}, {}

    @staticmethod
    def _check_driven(nl: Netlist, kern: CompiledKernel) -> None:
        """Refuse a kernel whose leaves read an input no bus drives."""
        if kern.layout.undriven:
            w = kern.layout.undriven[0]
            raise ValueError(f"input wire {w} ({nl.gates[w].name}) left undriven")

    @staticmethod
    def _leaf_list(
        kern: CompiledKernel, state: Mapping[int, Any], zero: Any, ones: Any
    ) -> list[Any]:
        """A leaf list for ``kern`` with each register at ``state[q]``
        (default: its init value); :meth:`_fill_inputs` fills the input
        slots."""
        leaves = [zero] * len(kern.leaves)
        for slot, (q, init) in enumerate(kern.layout.registers):
            value = state.get(q)
            leaves[slot] = (ones if init else zero) if value is None else value
        return leaves

    @classmethod
    def _fill_inputs(
        cls,
        kern: CompiledKernel,
        leaves: list[Any],
        seqs: Mapping[str, Any],
        batch: int,
        zero: Any,
        ones: Any,
    ) -> None:
        """Pack each input bus into its leaf slots.

        Input bits outside the kernel's live cone have no slot; they are
        packed (validation is per bus) and then dropped.
        """
        words = words_for(batch)
        for name, slots in kern.layout.inputs:
            packed = cls.pack(seqs[name], len(slots), batch, words, zero, ones)
            for slot, value in zip(slots, packed):
                if slot is not None:
                    leaves[slot] = value

    @classmethod
    def _outputs(
        cls, kern: CompiledKernel, outs: Any, lanes: int, materialize: bool
    ) -> Mapping[str, np.ndarray]:
        regs = len(kern.layout.registers)
        lazy = cls.lazy_outputs(cls, outs[regs:], kern.layout.outputs, lanes)
        if materialize:
            return {name: words[0] for name, words in unpack_buses([lazy]).items()}
        return lazy

    # -- combinational sweep -------------------------------------------- #

    @classmethod
    def comb_run(
        cls,
        sim: Any,
        seqs: Mapping[str, Any],
        batch: int,
        reg_state: Any,
        overlay: Any,
    ) -> Mapping[str, Any]:
        nl = sim.netlist
        if reg_state:
            widest = max(np.asarray(v).shape[0] for v in reg_state.values())
            batch = max(batch, widest)
        words = words_for(batch)
        zero, ones = cls.constants(batch)
        masks, _ = cls._overlay_lanes(overlay, batch, words, zero, ones)
        kern = compile_netlist(nl, patchable=bool(masks))
        state = {
            q: cls._lane_from_bools(lane, batch, words)
            for q, lane in (reg_state or {}).items()
        }
        cls._check_driven(nl, kern)
        leaves = cls._leaf_list(kern, state, zero, ones)
        cls._fill_inputs(kern, leaves, seqs, batch, zero, ones)
        outs = kern.fn(leaves, masks, zero, ones)
        sim._wire_values = []  # a packed engine keeps no wire table
        _observe_sweep(cls.name, batch)
        return cls._outputs(kern, outs, batch, materialize=False)

    # -- prepared batch sweep (serving hot path) ------------------------ #

    @classmethod
    def batch_run(
        cls, entry: Any, seqs: Mapping[str, Any], batch: int, materialize: bool
    ) -> Mapping[str, Any]:
        words = words_for(batch)
        zero, ones = cls.constants(batch)
        kern = entry.kernel
        cls._check_driven(entry.netlist, kern)
        leaves = cls._leaf_list(kern, {}, zero, ones)
        cls._fill_inputs(kern, leaves, seqs, batch, zero, ones)
        outs = cls.prepared_sweep(kern, leaves, words, zero, ones)
        _observe_sweep(cls.name, batch)
        return cls._outputs(kern, outs, batch, materialize)

    # -- sequential session --------------------------------------------- #

    @classmethod
    def seq_reset(cls, sim: Any) -> None:
        # constant init values are the shared constants directly — no
        # boolean arrays, no bit shuffles; the next pass lays them out
        sim._zero, sim._ones = cls.constants(sim.batch)
        sim._leaf_values = None
        sim._bool_state = None

    @classmethod
    def seq_unpack_state(cls, sim: Any) -> dict[int, Any]:
        leaves, batch = sim._leaf_values, sim.batch
        if leaves is None:  # reset: every register at its init value
            zero, ones = sim._zero, sim._ones
            return {
                r.q: cls.unpack_bools(ones if r.init else zero, batch)
                for r in sim.netlist.registers
            }
        return {
            q: cls.unpack_bools(leaves[slot], batch)
            for slot, (q, _) in enumerate(sim._leaf_kern.layout.registers)
        }

    @classmethod
    def seq_step(cls, sim: Any, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        return cls.seq_run_stream(sim, [inputs], materialize=False)[0]

    @classmethod
    def seq_run_stream(
        cls, sim: Any, input_stream: Sequence[Mapping[str, Any]], materialize: bool
    ) -> list[Mapping[str, Any]]:
        """The one clocked loop of both lane formats.

        The kernel, the overlay's masks and upsets (once per simulator)
        and every cycle's packed inputs are resolved before the first
        clock.  Each clock then XORs that cycle's upsets into the
        register leaves, writes its inputs into the leaves after the
        registers, and sweeps and latches once (the format's
        :meth:`clock`); the outputs of each clock are its results after
        the register Ds, so a clock nobody reads costs no bus lists.
        """
        if not input_stream:
            return []
        nl, batch = sim.netlist, sim.batch
        words = words_for(batch)
        zero, ones = sim._zero, sim._ones
        if sim._masks is None:
            sim._masks, sim._upsets = cls._overlay_lanes(
                sim.overlay, batch, words, zero, ones
            )
        kern = cls.seq_kernel(nl, sim._masks)
        bits, fed = cls._stream_inputs(nl, kern, input_stream, batch, words, zero, ones)
        leaves = sim._leaf_values
        if leaves is None or sim._leaf_kern is not kern:
            leaves = cls._lay_out(sim, kern)
        clock = cls.clock(kern, sim._masks, leaves, words, zero, ones)
        rows = clock.rows(bits)
        for c, cols, values in fed:
            row = rows[c]
            for col, value in zip(cols, values):
                row[col] = value
        layout, upsets, overlay = kern.layout, sim._upsets, sim.overlay
        slots = layout.slots
        # a fault plan's upsets are all in sim._upsets; another overlay
        # may flip whole registers (the classic protocol's seu hook)
        seu = None
        if overlay is not None and not isinstance(overlay, PackedFaultPlan):
            seu = overlay.seu
        kept = []
        for row in rows:
            flips = upsets.get(sim.cycle)
            if flips is not None:
                clock.flip([slots[q] for q in flips[0]], flips[1])
            if seu is not None:
                whole = seu(sim.cycle)
                if whole:
                    clock.flip([slots[q] for q in whole], [ones] * len(whole))
            kept.append(clock.tick(row))
            sim.cycle += 1
        if _metrics.REGISTRY.enabled:
            for _ in kept:
                _observe_sweep(cls.name, batch)
        sim._leaf_kern, sim._leaf_values, sim._bool_state = kern, clock.leaves, None
        lazy = [cls.lazy_outputs(cls, outs, layout.outputs, batch) for outs in kept]
        if not materialize:
            return lazy
        read = unpack_buses(lazy)
        return [{name: w[c] for name, w in read.items()} for c in range(len(lazy))]

    @classmethod
    def _stream_inputs(
        cls,
        nl: Netlist,
        kern: CompiledKernel,
        stream: Sequence[Mapping[str, Any]],
        batch: int,
        words: int,
        zero: Any,
        ones: Any,
    ) -> tuple[np.ndarray, list[tuple[int, list[int], list[Any]]]]:
        """A stream's inputs, checked and packed before its first clock.

        Returns ``(bits, fed)``.  ``bits[c, j]`` is the bit that a bus
        given one word at cycle ``c`` puts on leaf ``R + j`` (``R``
        registers): one :func:`_bit_matrix` per bus covers every
        cycle.  ``fed`` holds ``(cycle, leaf columns, lane values)`` for
        each bus given a batch, packed per cycle unless the batch is the
        object the bus was given the cycle before (a pipeline filled
        with one batch packs it once).  Bits outside the kernel's live
        cone are checked with their bus and then dropped.
        """
        cls._check_driven(nl, kern)
        keys = nl.inputs.keys()
        for inputs in stream:
            if inputs.keys() != keys:
                _check_buses(nl, inputs)
        # each bus's words and batches, every cycle's checked before any
        # is packed
        buses: dict[str, tuple[list[int], list[Any], list[tuple[int, Any]]]] = {}
        for name in keys:
            words_at: list[int] = []
            given: list[Any] = []
            batches: list[tuple[int, Any]] = []
            for c, inputs in enumerate(stream):
                val = inputs[name]
                if not isinstance(val, (int, np.integer)):
                    val = _bus_values(val)
                    if len(val) != 1:
                        if len(val) != batch:
                            raise ValueError("inconsistent batch sizes")
                        batches.append((c, val))
                        continue
                    val = val[0]
                words_at.append(c)
                given.append(val)
            buses[name] = (words_at, given, batches)
        regs = len(kern.layout.registers)
        bits = np.zeros((len(stream), len(kern.layout.slots) - regs), dtype=bool)
        fed: list[tuple[int, list[int], list[Any]]] = []
        for name, slots in kern.layout.inputs:
            words_at, given, batches = buses[name]
            live = [b for b, slot in enumerate(slots) if slot is not None]
            cols = [cast(int, slots[b]) - regs for b in live]
            if words_at:
                planes = _bit_matrix(given, len(slots))[:, live]
                if len(words_at) == len(stream):
                    bits[:, cols] = planes
                else:
                    bits[np.array(words_at)[:, None], cols] = planes
            held, packed = None, []
            for c, values in batches:
                if values is not held:
                    packed = cls.pack(values, len(slots), batch, words, zero, ones)
                    held = values
                fed.append((c, cols, [packed[b] for b in live]))
        return bits, fed

    @classmethod
    def _lay_out(cls, sim: Any, kern: CompiledKernel) -> list[Any] | None:
        """A leaf list for ``kern`` holding the simulator's register
        state — the previous kernel's register slots (after a netlist
        edit) or an assigned boolean state — or ``None`` when every
        register holds its init value."""
        old = sim._leaf_values
        if old is not None:
            state = {
                q: old[slot]
                for slot, (q, _) in enumerate(sim._leaf_kern.layout.registers)
            }
        elif sim._bool_state:
            words = words_for(sim.batch)
            state = {
                q: cls._lane_from_bools(lane, sim.batch, words)
                for q, lane in sim._bool_state.items()
            }
        else:
            return None
        return cls._leaf_list(kern, state, sim._zero, sim._ones)


@register_engine
class CompiledEngine(PackedEngine):
    """The bit-packed bigint lane format: one Python ``int`` per wire.

    Highest ``auto_priority``: per-sweep dispatch cost is the lowest of
    the three engines at the ≤ 63-payload-lane quantum, so ``auto``
    picks it whenever the request compiles to per-lane masks.
    """

    name = "compiled"
    capabilities = EngineCapabilities(
        name="compiled",
        sweep_lanes=SWEEP_LANES,
        probes=False,
        patch_masks=True,
        seu_lanes=True,
        general_overlays=False,
        auto_priority=100,
    )

    @classmethod
    def constants(cls, lanes: int) -> tuple[int, int]:
        return 0, ones_mask(lanes)

    @classmethod
    def pack_rows(cls, rows: np.ndarray, words: int) -> list[Any]:
        if words == 1:  # one machine word per wire: NumPy makes the ints
            return rows.view("<u8").ravel().tolist()
        return [int.from_bytes(row.tobytes(), "little") for row in rows]

    @classmethod
    def unpack_rows(cls, values: Sequence[Any], words: int) -> np.ndarray:
        if words == 1:
            return np.array(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
        nbytes = words * 8
        buf = b"".join(map(int.to_bytes, values, repeat(nbytes), repeat("little")))
        return np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)

    @classmethod
    def pack_bools(cls, lane: np.ndarray, words: int) -> int:
        return pack_lanes(lane)

    @classmethod
    def unpack_bools(cls, value: Any, lanes: int) -> np.ndarray:
        return unpack_lanes(value, lanes)

    @classmethod
    def fault_lanes(
        cls, plan: PackedFaultPlan, words: int
    ) -> tuple[Mapping[int, Any], Mapping[int, tuple[Sequence[int], Sequence[Any]]]]:
        # a plan's packed ints are this format's lane values
        upsets = {
            cycle: (tuple(flips), tuple(flips.values()))
            for cycle, flips in plan.upsets.items()
        }
        return plan.masks, upsets
