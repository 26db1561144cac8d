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

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.hdl.compile import (
    SWEEP_LANES,
    PackedFaultPlan,
    compile_netlist,
    ones_mask,
    pack_lanes,
    stuck_masks_from_overlay,
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
    "BatchEntry",
    "CombinationalSimulator",
    "SequentialSimulator",
    "InterpEngine",
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
    """Explode integers into ``width`` boolean lanes, LSB first.

    Batches whose values fit a machine word (``width <= 64``) are
    exploded with vectorised ``uint64`` shifts; wider buses — the index
    bus for n ≥ 21 exceeds 64 bits — fall back to object-dtype bigint
    arithmetic.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # an int list mixing values above int64 with smaller ones
        # promotes to lossy float64; rebuild exactly from the originals
        arr = np.array([int(v) for v in values], dtype=object)
    if width <= 64 and arr.dtype.kind in "iu" and arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise ValueError("bus values must be non-negative")
        hi = int(arr.max())
        if hi.bit_length() > width:
            raise ValueError(f"value {hi} does not fit in {width} bits")
        u = arr.astype(np.uint64)
        one = np.uint64(1)
        return [((u >> np.uint64(b)) & one).astype(bool) for b in range(width)]
    obj = arr.astype(object)
    for v in obj:
        if v < 0:
            raise ValueError("bus values must be non-negative")
        if int(v).bit_length() > width:
            raise ValueError(f"value {v} does not fit in {width} bits")
    return [((obj >> b) & 1).astype(bool) for b in range(width)]


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


def _packed_from_ints(
    values: "Sequence[int] | np.ndarray", width: int, batch: int, ones: int
) -> list[int]:
    """Explode a word batch straight into per-wire packed lane integers.

    The boundary transpose (values × bits → bits × lanes) must not cost
    more than the compiled sweep it feeds: machine-word buses are
    transposed byte-wise with one ``unpackbits``/``packbits`` round
    trip, scalars broadcast to the all-lanes mask, and wide buses fall
    back to the per-wire path.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    n_vals = arr.shape[0] if arr.ndim else 1
    if n_vals == 1 and batch != 1:
        # broadcast: each bit of the single word fills every lane
        return [
            ones if bool(lane[0]) else 0 for lane in bits_from_ints(values, width)
        ]
    if width <= 64 and arr.dtype.kind in "iu" and arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise ValueError("bus values must be non-negative")
        hi = int(arr.max())
        if hi.bit_length() > width:
            raise ValueError(f"value {hi} does not fit in {width} bits")
        cols = packed_bit_columns(arr, width)
        return [int.from_bytes(row.tobytes(), "little") for row in cols]
    return [pack_lanes(lane) for lane in bits_from_ints(values, width)]


def packed_bit_columns(arr: np.ndarray, width: int) -> np.ndarray:
    """Transpose a machine-word batch into packed per-bit lane rows.

    Returns ``(width, ceil(len(arr)/8))`` uint8: row j holds bit j of
    every value, packed little-endian — the byte layout of both packed
    lane integers and the vector engine's word arrays.  ``unpackbits``
    runs over the *contiguous* value-major byte matrix (one C sweep)
    and only the 1-byte-per-bit intermediate is transposed; unpacking
    along the strided transpose instead costs ~9× on wide batches.
    """
    n_vals = arr.shape[0]
    nb = (width + 7) // 8
    size = next(s for s in (1, 2, 4, 8) if s >= nb)
    u = arr.astype(f"<u{size}")
    mat = u.view(np.uint8).reshape(n_vals, size)[:, :nb]
    bits = np.unpackbits(
        np.ascontiguousarray(mat), axis=1, bitorder="little"
    )[:, :width]
    return np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")


def _fold_bits(bits: np.ndarray) -> np.ndarray:
    """Fold a ``(width, lanes)`` bit matrix into per-lane words.

    Bits are folded a byte-group at a time — ``uint8`` shifts touch an
    eighth of the memory ``uint64`` shifts would — and the result dtype
    tracks the bus width exactly like :func:`ints_from_bits`.
    """
    width = bits.shape[0]
    if width <= 8:
        acc8 = bits[0].copy()
        for i in range(1, width):
            acc8 |= bits[i] << np.uint8(i)
        return acc8
    dtype = np.uint32 if width <= 32 else np.uint64
    value = np.zeros(bits.shape[1], dtype=dtype)
    for k in range(0, width, 8):
        grp = bits[k : k + 8]
        acc8 = grp[0].copy()
        for i in range(1, grp.shape[0]):
            acc8 |= grp[i] << np.uint8(i)
        value |= acc8.astype(dtype) << dtype(k)
    return value


def _ints_from_packed(wire_values: Sequence[int], lanes: int) -> np.ndarray:
    """Per-wire packed lane integers (LSB-first bus) → per-lane words.

    The inverse boundary transpose of :func:`_packed_from_ints`: unpack
    every wire's lanes in one 2-D ``unpackbits``, then fold bits into
    words with :func:`_fold_bits`.  Wide buses fall back to the bigint
    path.
    """
    width = len(wire_values)
    if width > 64:
        return ints_from_bits([unpack_lanes(v, lanes) for v in wire_values])
    nbytes = words_for(lanes) * 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in wire_values)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(width, nbytes),
        axis=1,
        count=lanes,
        bitorder="little",
    )
    return _fold_bits(bits)


def _outputs_from_packed(
    buses: Sequence[tuple[str, list[int]]], lanes: int
) -> dict[str, np.ndarray]:
    """Convert every output bus of a sweep in one boundary transpose.

    A pipelined converter exposes ~n output buses of a few wires each;
    unpacking them one bus at a time pays the ``unpackbits`` dispatch
    cost per bus per cycle.  Concatenating all machine-word buses into
    a single bit matrix amortises that to one call per sweep.
    """
    out: dict[str, np.ndarray] = {}
    narrow: list[tuple[str, list[int]]] = []
    for name, vals in buses:
        if len(vals) > 64:
            out[name] = ints_from_bits([unpack_lanes(v, lanes) for v in vals])
        else:
            narrow.append((name, vals))
    if narrow:
        nbytes = words_for(lanes) * 8
        buf = b"".join(
            v.to_bytes(nbytes, "little") for _, vals in narrow for v in vals
        )
        total = sum(len(vals) for _, vals in narrow)
        bits = np.unpackbits(
            np.frombuffer(buf, dtype=np.uint8).reshape(total, nbytes),
            axis=1,
            count=lanes,
            bitorder="little",
        )
        row = 0
        for name, vals in narrow:
            out[name] = _fold_bits(bits[row : row + len(vals)])
            row += len(vals)
    return out


class PackedOutputs(Mapping[str, np.ndarray]):
    """Deferred bus materialisation for the compiled engine.

    Holds the raw packed lane integers of every output bus and performs
    the packed → per-lane-word boundary transpose the first time a bus
    is read (caching the result).  During pipeline fill, a batch sweep
    never looks at the outputs — deferring the transpose makes those
    cycles cost only the kernel call.  Reading any bus yields exactly
    the array eager materialisation would have produced.
    """

    __slots__ = ("_buses", "_lanes", "_cache")

    def __init__(self, buses: dict[str, list[int]], lanes: int) -> None:
        self._buses = buses
        self._lanes = lanes
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            vals = self._buses[name]
            if len(vals) > 64:
                arr = ints_from_bits(
                    [unpack_lanes(v, self._lanes) for v in vals]
                )
            else:
                arr = _ints_from_packed(vals, self._lanes)
            self._cache[name] = arr
        return arr

    def __iter__(self) -> Any:
        return iter(self._buses)

    def __len__(self) -> int:
        return len(self._buses)


def _coerce_inputs(
    nl: Netlist, inputs: Mapping[str, int | Sequence[int]]
) -> tuple[dict[str, "Sequence[int] | np.ndarray"], int]:
    """Validate an input mapping; return per-bus sequences and batch size."""
    missing = set(nl.inputs) - set(inputs)
    if missing:
        raise ValueError(f"missing inputs: {sorted(missing)}")
    extra = set(inputs) - set(nl.inputs)
    if extra:
        raise ValueError(f"unknown inputs: {sorted(extra)}")
    batch = 1
    seqs: dict[str, "Sequence[int] | np.ndarray"] = {}
    for name, val in inputs.items():
        if isinstance(val, (int, np.integer)):
            seqs[name] = [int(val)]
        else:
            # keep ndarray batches as-is: copying 10^4-lane sweeps into
            # Python lists would dominate the compiled kernel
            seqs[name] = val if isinstance(val, np.ndarray) else list(val)
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
    ) -> dict[str, np.ndarray]:
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
        dict
            Output-bus name → object array of integers (batch-sized).
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

    # -- compiled engine ------------------------------------------------ #

    def _run_compiled(
        self,
        seqs: Mapping[str, "Sequence[int] | np.ndarray"],
        batch: int,
        reg_state: Mapping[int, np.ndarray] | None,
        overlay: Any,
    ) -> dict[str, np.ndarray]:
        nl = self.netlist
        if reg_state:
            widest = max(np.asarray(v).shape[0] for v in reg_state.values())
            batch = max(batch, widest)
        zero, ones = 0, ones_mask(batch)
        masks: Mapping[int, tuple[int, int]] = {}
        if overlay is not None:
            if isinstance(overlay, PackedFaultPlan):
                if overlay.lanes != batch:
                    raise ValueError(
                        f"fault plan has {overlay.lanes} lanes, batch is {batch}"
                    )
                masks = overlay.masks
            else:
                stuck = overlay.stuck_assignments()
                masks = stuck_masks_from_overlay(stuck, ones) if stuck else {}
        kern = compile_netlist(nl, patchable=bool(masks))

        input_words: dict[int, int] = {}
        for name, bus in nl.inputs.items():
            packed_bus = _packed_from_ints(seqs[name], bus.width, batch, ones)
            for wire, value in zip(bus, packed_bus):
                input_words[wire] = value
        init_state = {r.q: r.init for r in nl.registers}
        leaves: list[int] = []
        for w in kern.leaves:
            g = nl.gates[w]
            if g.op is Op.INPUT:
                if w not in input_words:
                    raise ValueError(f"input wire {w} ({g.name}) left undriven")
                leaves.append(input_words[w])
            else:  # REG
                if reg_state is not None and w in reg_state:
                    lane = np.asarray(reg_state[w], dtype=bool)
                    if lane.shape[0] != batch:
                        lane = np.broadcast_to(lane, (batch,))
                    leaves.append(pack_lanes(lane))
                else:
                    leaves.append(ones if init_state[w] else zero)

        outs = kern.fn(leaves, masks, zero, ones)
        self._wire_values = []  # the compiled engine keeps no wire table
        _observe_sweep("compiled", batch)
        return _outputs_from_packed(
            [
                (name, [outs[kern.index[w]] for w in bus])
                for name, bus in nl.outputs.items()
            ],
            batch,
        )


class BatchEntry:
    """Prepared batch entry into one netlist's compiled kernel.

    The serving hot path (:mod:`repro.serve`) evaluates the same
    combinational netlist on small request batches thousands of times a
    second.  Going through :meth:`CombinationalSimulator.run` would
    re-resolve the engine, re-classify every kernel leaf and rebuild the
    register-init words on each call; a ``BatchEntry`` freezes all of
    that once at construction:

    * the compiled kernel (fetched through the process-wide kernel
      cache, so structurally identical netlists share one compilation);
    * the leaf layout — which kernel argument slots are fed by which
      input-bus bits, and which carry register init values;
    * the per-bus wire positions of every output.

    A sweep then costs one boundary pack per input bus, one kernel call
    and one (lazy) boundary unpack.  Registers are held at their reset
    values — exactly :meth:`CombinationalSimulator.run` with no
    ``reg_state`` — so a purely combinational circuit needs nothing
    special and a pipelined one reads as its reset-state fabric.
    """

    __slots__ = (
        "netlist",
        "kernel",
        "engine",
        "_n_leaves",
        "_reg_slots",
        "_input_slots",
        "_interp_sim",
    )

    def __init__(self, netlist: Netlist, backend: str = "compiled") -> None:
        netlist.check()
        self.netlist = netlist
        # Engine resolution happens once, here: the serving hot path
        # must never re-resolve per sweep.  No probe and no overlay ever
        # ride a batch entry, so the resolved engine is final.
        self.engine = resolve_backend(backend)
        self.kernel = compile_netlist(netlist)
        self._interp_sim: "CombinationalSimulator | None" = None
        kern = self.kernel
        self._n_leaves = len(kern.leaves)
        pos_of = {w: i for i, w in enumerate(kern.leaves)}
        init = {r.q: r.init for r in netlist.registers}
        self._reg_slots: list[tuple[int, bool]] = [
            (pos_of[w], init[w]) for w in kern.leaves if w in init
        ]
        # Input bits outside the kernel's live cone have no leaf slot;
        # they are packed (validation is per-bus) and then dropped.
        self._input_slots: list[tuple[str, int, list[int | None]]] = [
            (name, bus.width, [pos_of.get(w) for w in bus])
            for name, bus in netlist.inputs.items()
        ]

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

    def _run_compiled(
        self,
        seqs: Mapping[str, "Sequence[int] | np.ndarray"],
        batch: int,
        materialize: bool,
    ) -> Mapping[str, np.ndarray]:
        zero, ones = 0, ones_mask(batch)
        leaves = [0] * self._n_leaves
        for pos, init in self._reg_slots:
            leaves[pos] = ones if init else zero
        for name, width, positions in self._input_slots:
            packed_bus = _packed_from_ints(seqs[name], width, batch, ones)
            for pos, value in zip(positions, packed_bus):
                if pos is not None:
                    leaves[pos] = value
        outs = self.kernel.fn(leaves, {}, zero, ones)
        _observe_sweep("compiled", batch)
        index = self.kernel.index
        buses = {
            name: [outs[index[w]] for w in bus]
            for name, bus in self.netlist.outputs.items()
        }
        if materialize:
            return _outputs_from_packed(list(buses.items()), batch)
        return PackedOutputs(buses, batch)


class SequentialSimulator:
    """Clocked simulation with batched register state.

    Each lane of the batch is an independent copy of the circuit — useful
    for running many Monte-Carlo streams through one pipelined shuffle
    circuit simultaneously, or one fault per lane in fault-parallel
    campaigns.

    Under the compiled engine the register state lives in packed
    integers; the :attr:`state` property unpacks on demand and re-packs after
    assignment, so callers that read or overwrite boolean state keep
    working unchanged.  (Mutating the arrays *inside* a read ``state``
    dict in place is not supported on the compiled engine.)
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
        self._packed_state: dict[int, int] | None = None
        self._masks: Mapping[int, tuple[int, int]] | None = None
        self._inc_kern: Any = None
        self._inc_state: list[Any] | None = None
        self._zero = 0
        self._ones = ones_mask(batch)
        #: engine-private session scratch (e.g. the vector engine's
        #: word-array state); cleared by the ``state`` setter
        self._scratch: dict[str, Any] = {}
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
        self._packed_state = None
        self._scratch.pop("state", None)

    def reset(self) -> None:
        """Load every register with its init value; rewind the cycle count."""
        self.cycle = 0
        self.engine.seq_reset(self)

    # -- stepping ------------------------------------------------------- #

    def step(self, inputs: Mapping[str, int | Sequence[int]]) -> dict[str, np.ndarray]:
        """Advance one clock: evaluate, emit outputs, latch register Ds.

        With an overlay attached, any SEU scheduled for this cycle flips
        the stored register state *before* evaluation; the corrupted
        value then propagates (and is re-latched downstream) exactly
        once — a transient upset, not a stuck bit.
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

    def _ensure_masks(self) -> Mapping[int, tuple[int, int]]:
        masks = self._masks
        if masks is None:
            overlay = self.overlay
            if overlay is None:
                masks = {}
            elif isinstance(overlay, PackedFaultPlan):
                if overlay.lanes != self.batch:
                    raise ValueError(
                        f"fault plan has {overlay.lanes} lanes, "
                        f"batch is {self.batch}"
                    )
                masks = overlay.masks
            else:
                stuck = overlay.stuck_assignments()
                masks = (
                    stuck_masks_from_overlay(stuck, self._ones) if stuck else {}
                )
            self._masks = masks
        return masks

    def _ensure_packed_state(self) -> dict[int, int]:
        packed = self._packed_state
        if packed is None:
            batch, ones = self.batch, self._ones
            bool_state = self._bool_state or {}
            packed = {}
            for q, lane in bool_state.items():
                arr = np.asarray(lane, dtype=bool)
                if arr.shape[0] != batch:
                    arr = np.broadcast_to(arr, (batch,))
                # constant lanes (every register right after reset()) pack
                # to the all-ones / all-zeros masks without a bit shuffle
                if not arr.any():
                    packed[q] = 0
                elif arr.all():
                    packed[q] = ones
                else:
                    packed[q] = pack_lanes(arr)
            self._packed_state = packed
        return packed

    def _advance(
        self, input_words: Mapping[int, int]
    ) -> tuple[tuple[int, ...], Any]:
        """One compiled clock tick on pre-packed inputs; returns raw words."""
        nl, batch = self.netlist, self.batch
        masks = self._ensure_masks()
        # without stuck-at hooks the event-driven kernel applies: gates
        # re-evaluate only when a fanin's value changed, so pipeline-fill
        # cycles on a held input touch just the moving wavefront
        kern = (
            compile_netlist(nl, patchable=True)
            if masks
            else compile_netlist(nl, incremental=True)
        )
        zero, ones = self._zero, self._ones
        packed = self._ensure_packed_state()

        if self.overlay is not None:
            flips = getattr(self.overlay, "seu_lane_flips", None)
            if flips is not None:
                for q, lane_mask in flips(self.cycle).items():
                    packed[q] = packed[q] ^ pack_lanes(
                        np.asarray(lane_mask, dtype=bool)
                    )
            for q in self.overlay.seu(self.cycle):
                packed[q] = packed[q] ^ ones

        init_state = {r.q: r.init for r in nl.registers}
        leaves: list[int] = []
        for w in kern.leaves:
            g = nl.gates[w]
            if g.op is Op.INPUT:
                if w not in input_words:
                    raise ValueError(f"input wire {w} ({g.name}) left undriven")
                leaves.append(input_words[w])
            elif w in packed:
                leaves.append(packed[w])
            else:
                leaves.append(ones if init_state[w] else zero)

        if kern.incremental:
            if self._inc_kern is not kern:
                self._inc_state = [None] * kern.state_slots
                self._inc_kern = kern
            outs = kern.fn(leaves, masks, zero, ones, self._inc_state)
        else:
            outs = kern.fn(leaves, masks, zero, ones)
        self._packed_state = {r.q: outs[kern.index[r.d]] for r in nl.registers}
        self._bool_state = None
        self.cycle += 1
        _observe_sweep("compiled", batch)
        return outs, kern

    def _pack_inputs(
        self, inputs: Mapping[str, int | Sequence[int]]
    ) -> dict[int, int]:
        nl, batch, ones = self.netlist, self.batch, self._ones
        seqs, in_batch = _coerce_inputs(nl, inputs)
        if in_batch not in (1, batch):
            raise ValueError("inconsistent batch sizes")
        input_words: dict[int, int] = {}
        for name, bus in nl.inputs.items():
            packed_bus = _packed_from_ints(seqs[name], bus.width, batch, ones)
            for wire, value in zip(bus, packed_bus):
                input_words[wire] = value
        return input_words

    def _step_compiled(
        self, inputs: Mapping[str, int | Sequence[int]]
    ) -> dict[str, np.ndarray]:
        outs, kern = self._advance(self._pack_inputs(inputs))
        return _outputs_from_packed(
            [
                (name, [outs[kern.index[w]] for w in bus])
                for name, bus in self.netlist.outputs.items()
            ],
            self.batch,
        )

    def _run_stream_compiled(
        self,
        input_stream: Sequence[Mapping[str, int | Sequence[int]]],
        materialize: bool,
    ) -> list[Mapping[str, np.ndarray]]:
        nl, batch = self.netlist, self.batch
        results: list[Mapping[str, np.ndarray]] = []
        prev: dict[str, Any] = {}
        words: dict[int, int] = {}
        for inputs in input_stream:
            seqs, in_batch = _coerce_inputs(nl, inputs)
            if in_batch not in (1, batch):
                raise ValueError("inconsistent batch sizes")
            for name, bus in nl.inputs.items():
                val = seqs[name]
                # a held input (the same array object cycle after cycle,
                # as when filling a pipeline with one batch) packs once
                if prev.get(name) is not val:
                    packed_bus = _packed_from_ints(
                        val, bus.width, batch, self._ones
                    )
                    for wire, value in zip(bus, packed_bus):
                        words[wire] = value
                    prev[name] = val
            outs, kern = self._advance(words)
            buses = {
                name: [outs[kern.index[w]] for w in bus]
                for name, bus in nl.outputs.items()
            }
            if materialize:
                results.append(_outputs_from_packed(list(buses.items()), batch))
            else:
                results.append(PackedOutputs(buses, batch))
        return results

    def run_stream(
        self,
        input_stream: Sequence[Mapping[str, int | Sequence[int]]],
        materialize: bool = True,
    ) -> list[Mapping[str, np.ndarray]]:
        """Feed a sequence of per-cycle inputs; collect per-cycle outputs.

        Scratch buffers (wire table, packed state) are allocated once and
        reused for every cycle.  Under the compiled engine, an input bus
        fed the *same object* on consecutive cycles is packed only once.

        With ``materialize=False`` the compiled engine defers the
        packed → word boundary transpose: each cycle's mapping converts a
        bus the first time it is read (:class:`PackedOutputs`).  A
        pipelined batch sweep only reads the outputs after the pipeline
        has filled, so fill cycles cost just the kernel call.  The
        interpreter produces output words as a byproduct of gate
        evaluation, so the flag is a no-op there; values read from either
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
        incremental=False,
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


@register_engine
class CompiledEngine(Engine):
    """The bit-packed bigint kernels of :mod:`repro.hdl.compile`.

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
        incremental=True,
        auto_priority=100,
    )

    @classmethod
    def comb_run(cls, sim, seqs, batch, reg_state, overlay):
        return sim._run_compiled(seqs, batch, reg_state, overlay)

    @classmethod
    def batch_run(cls, entry, seqs, batch, materialize):
        return entry._run_compiled(seqs, batch, materialize)

    @classmethod
    def seq_reset(cls, sim):
        # constant init values pack to the all-ones/all-zeros words
        # directly — no boolean arrays, no bit shuffles
        ones = sim._ones
        sim._packed_state = {
            r.q: ones if r.init else 0 for r in sim.netlist.registers
        }
        sim._bool_state = None

    @classmethod
    def seq_step(cls, sim, inputs):
        return sim._step_compiled(inputs)

    @classmethod
    def seq_unpack_state(cls, sim):
        packed = sim._packed_state or {}
        return {q: unpack_lanes(value, sim.batch) for q, value in packed.items()}

    @classmethod
    def seq_run_stream(cls, sim, input_stream, materialize):
        return sim._run_stream_compiled(input_stream, materialize)
