"""Wide-lane vectorised simulation: the same kernels over NumPy words.

The compiled engine (:mod:`repro.hdl.compile`) packs Monte-Carlo lanes
into Python bigints, which is unbeatable at the 63-payload-lane sweep
quantum but scales linearly in interpreter dispatch beyond it: a bigint
``&`` is one CPython call no matter how wide, yet every *sweep* still
pays one bytecode dispatch per gate, so wider batches only help until
the per-gate word loop dominates.  This module breaks that ceiling by
running the *identical* exec-compiled straight-line kernels over NumPy
``uint64`` arrays of ``W`` words — up to ``64 * W`` lanes per sweep —
one vectorised ufunc per gate:

* The kernel source is dtype-agnostic: ``&``, ``|``, ``^`` and the
  masked inversion ``v ^ N`` mean the same thing whether ``v`` is a
  packed bigint or a ``(W,)`` ``uint64`` array, and the patch hook
  ``(v & keep) | force`` consumes per-wire word *arrays* exactly as it
  consumes packed integers.  :func:`vector_kernel` therefore reuses
  :func:`~repro.hdl.compile.compile_netlist` (and its LRU, fingerprint
  invalidation and :func:`~repro.hdl.compile.evict_kernel` quarantine)
  and only adds a lane-count-keyed tier caching the prepared
  ``(kernel, zero, ones)`` triple per batch width.
* Lane ``i`` lives at bit ``i % 64`` of word ``i // 64`` — the exact
  little-endian layout of :func:`~repro.hdl.compile.pack_lanes` — so a
  packed bigint and a word array holding the same sweep are the same
  bytes, and every boundary helper here round-trips bit-identically
  against the bigint engine (asserted by hypothesis property tests).
* ``N`` (all-lanes-set) masks its tail word to the batch width, so
  inversion never sets bits beyond the last lane and NumPy's ``~``
  (which would) is never emitted — same invariant as the bigint
  kernels.
* Prepared sweeps (:meth:`VectorEngine.batch_run`, which
  :class:`~repro.hdl.simulator.BatchEntry` gives ``repro validate`` and
  ``serve --engine vector``) run the kernel's C build from
  :mod:`repro.hdl.native` over the same words, 16–24× faster, when one
  can be built.  One-off, sequential and fault-patched sweeps keep the
  NumPy kernel: a build costs 0.05–1.3 s and cannot pay for one sweep.

The engine registers as ``backend="vector"`` with a
4096-lane sweep quantum (:data:`VECTOR_SWEEP_LANES`): fault-parallel
campaigns pack thousands of faults next to one golden slot per sweep
(the compiled engine packs 63 per combinational sweep), and the serving
layer admits batches to match.  ``auto``
never picks it — NumPy ufunc dispatch costs more than a one-word bigint
op at small batches — it is an explicit opt-in for wide sweeps.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.hdl.compile import (
    PackedFaultPlan,
    compile_netlist,
    words_for,
)
from repro.hdl.engine import Engine, EngineCapabilities, register_engine
from repro.hdl.gates import Op
from repro.hdl.native import native_kernel
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import (
    _coerce_inputs,
    _fold_bits,
    _observe_sweep,
    bits_from_ints,
    ints_from_bits,
    packed_bit_columns,
)
from repro.obs import metrics as _metrics

__all__ = [
    "VECTOR_CACHE_LIMIT",
    "VECTOR_SWEEP_LANES",
    "VectorEngine",
    "VectorOutputs",
    "clear_vector_cache",
    "lanes_to_words",
    "u64_from_int",
    "vec_from_ints",
    "vector_cache_info",
    "vector_constants",
    "vector_kernel",
    "outputs_from_words",
    "words_to_lanes",
]

#: Payload-lane sweep quantum reported by the vector engine: 64 words of
#: 64 lanes.  Wide enough that a whole stuck-at campaign usually fits in
#: one sweep; small enough that per-wire arrays stay cache-resident.
VECTOR_SWEEP_LANES = 4096

#: Prepared ``(kernel, zero, ones)`` triples retained per (netlist,
#: lanes, patchable) key — one per live circuit × batch width.
VECTOR_CACHE_LIMIT = 64

_VEC_CACHE_EVENTS = _metrics.REGISTRY.counter(
    "repro_vector_kernel_cache_total",
    "vector-engine prepared-kernel cache lookups",
    ("result",),
)

# Word arrays carry native-endian uint64 *values*; every byte-level
# conversion goes through an explicit little-endian ("<u8") astype, so
# the lane layout matches pack_lanes() on any host byte order.
_WORD_LE = "<u8"


@lru_cache(maxsize=128)
def vector_constants(lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only ``(zero, ones)`` word arrays for ``lanes`` lanes.

    ``ones`` masks its tail word to the batch width — the vector
    analogue of :func:`~repro.hdl.compile.ones_mask` — so kernel
    inversion (``v ^ N``) never sets bits beyond the last lane.
    """
    lanes = max(1, lanes)
    words = words_for(lanes)
    zero = np.zeros(words, dtype=np.uint64)
    ones = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = lanes - 64 * (words - 1)
    if tail < 64:
        ones[-1] = np.uint64((1 << tail) - 1)
    zero.setflags(write=False)
    ones.setflags(write=False)
    return zero, ones


_VCACHE: "OrderedDict[tuple[str, int, bool], tuple[Any, np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_VHITS = 0
_VMISSES = 0


def vector_kernel(
    nl: Netlist, *, patchable: bool = False, lanes: int
) -> tuple[Any, np.ndarray, np.ndarray]:
    """The prepared ``(kernel, zero, ones)`` triple for one batch width.

    The kernel object is exactly :func:`~repro.hdl.compile.
    compile_netlist`'s (shared with the bigint engine through its LRU);
    this tier only pins the lane-width constants next to it so the hot
    path pays one dict probe instead of recomputing word counts and tail
    masks per sweep.  Entries are keyed by ``(fingerprint, lanes,
    patchable)`` and checked against the bigint LRU's current object, so
    :func:`~repro.hdl.compile.evict_kernel` quarantine and fingerprint
    invalidation propagate here automatically.
    """
    global _VHITS, _VMISSES
    kern = compile_netlist(nl, patchable=patchable)
    key = (kern.fingerprint, lanes, patchable)
    entry = _VCACHE.get(key)
    if entry is not None and entry[0] is kern:
        _VCACHE.move_to_end(key)
        _VHITS += 1
        if _metrics.REGISTRY.enabled:
            _VEC_CACHE_EVENTS.inc(result="hit")
        return entry
    _VMISSES += 1
    zero, ones = vector_constants(lanes)
    entry = (kern, zero, ones)
    _VCACHE[key] = entry
    while len(_VCACHE) > VECTOR_CACHE_LIMIT:
        _VCACHE.popitem(last=False)
    if _metrics.REGISTRY.enabled:
        _VEC_CACHE_EVENTS.inc(result="miss")
    return entry


def vector_cache_info() -> dict[str, int]:
    """Cache statistics: ``{"size", "hits", "misses"}`` (process-wide)."""
    return {"size": len(_VCACHE), "hits": _VHITS, "misses": _VMISSES}


def clear_vector_cache() -> None:
    """Drop every prepared kernel triple and zero the hit/miss counters."""
    global _VHITS, _VMISSES
    _VCACHE.clear()
    _VHITS = 0
    _VMISSES = 0


# --------------------------------------------------------------------- #
# word <-> lane boundary


def lanes_to_words(lane: np.ndarray, words: int) -> np.ndarray:
    """Pack a boolean lane vector into ``(words,)`` uint64, lane i at bit i.

    The word-array analogue of :func:`~repro.hdl.compile.pack_lanes`:
    both produce the identical little-endian byte stream.
    """
    bits = np.ascontiguousarray(lane, dtype=bool)
    packed = np.packbits(bits, bitorder="little")
    buf = np.zeros(words * 8, dtype=np.uint8)
    buf[: packed.size] = packed
    return buf.view(_WORD_LE).astype(np.uint64, copy=False)


def words_to_lanes(arr: np.ndarray, lanes: int) -> np.ndarray:
    """Inverse of :func:`lanes_to_words`: the first ``lanes`` bits, as bools."""
    raw = np.ascontiguousarray(arr, dtype=_WORD_LE).view(np.uint8)
    bits = np.unpackbits(raw, count=lanes, bitorder="little")
    return bits.astype(bool)


def u64_from_int(value: int, words: int) -> np.ndarray:
    """A packed bigint (``pack_lanes`` layout) as a ``(words,)`` word array.

    How :class:`~repro.hdl.compile.PackedFaultPlan` ``(keep, force)``
    masks cross into the vector engine without re-deriving the plan.
    The result is read-only (it views the immutable bytes).
    """
    raw = np.frombuffer(value.to_bytes(words * 8, "little"), dtype=_WORD_LE)
    return raw.astype(np.uint64, copy=False)


def vec_from_ints(
    values: "Sequence[int] | np.ndarray",
    width: int,
    batch: int,
    words: int,
    zero: np.ndarray,
    ones: np.ndarray,
) -> list[np.ndarray]:
    """Explode a word batch into per-wire ``(words,)`` lane-word arrays.

    The vector analogue of the simulator's packed-int boundary
    transpose: machine-word buses transpose byte-wise with one
    ``unpackbits``/``packbits`` round trip, scalars broadcast to the
    shared all-lanes/no-lanes constants, wide buses fall back to the
    per-wire path.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    n_vals = arr.shape[0] if arr.ndim else 1
    if n_vals == 1 and batch != 1:
        # broadcast: each bit of the single word fills every lane
        return [
            ones if bool(lane[0]) else zero
            for lane in bits_from_ints(values, width)
        ]
    if width <= 64 and arr.dtype.kind in "iu" and arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise ValueError("bus values must be non-negative")
        hi = int(arr.max())
        if hi.bit_length() > width:
            raise ValueError(f"value {hi} does not fit in {width} bits")
        cols = packed_bit_columns(arr, width)
        buf = np.zeros((width, words * 8), dtype=np.uint8)
        buf[:, : cols.shape[1]] = cols
        rows = buf.view(_WORD_LE).astype(np.uint64, copy=False)
        return [rows[i] for i in range(width)]
    return [
        lanes_to_words(lane, words) for lane in bits_from_ints(values, width)
    ]


def outputs_from_words(
    buses: Sequence[tuple[str, list[np.ndarray]]], lanes: int
) -> dict[str, np.ndarray]:
    """Convert every output bus of a vector sweep in one boundary transpose.

    Mirrors the packed-int output path: all machine-word buses stack
    into a single bit matrix so ``unpackbits`` dispatches once per
    sweep, and wide buses fall back to the per-wire bigint path.
    """
    out: dict[str, np.ndarray] = {}
    narrow: list[tuple[str, list[np.ndarray]]] = []
    for name, vals in buses:
        if len(vals) > 64:
            out[name] = ints_from_bits(
                [words_to_lanes(v, lanes) for v in vals]
            )
        else:
            narrow.append((name, vals))
    if narrow:
        words = words_for(lanes)
        total = sum(len(vals) for _, vals in narrow)
        stack = np.empty((total, words), dtype=np.uint64)
        row = 0
        for _, vals in narrow:
            for v in vals:
                stack[row] = v
                row += 1
        raw = stack.astype(_WORD_LE, copy=False).view(np.uint8)
        bits = np.unpackbits(
            raw.reshape(total, words * 8),
            axis=1,
            count=lanes,
            bitorder="little",
        )
        row = 0
        for name, vals in narrow:
            out[name] = _fold_bits(bits[row : row + len(vals)])
            row += len(vals)
    return out


class VectorOutputs(Mapping[str, np.ndarray]):
    """Deferred bus materialisation for the vector engine.

    The word-array analogue of the compiled engine's lazy output
    mapping: holds each output bus's per-wire word arrays and performs
    the word → per-lane boundary transpose the first time a bus is read
    (caching the result).
    """

    __slots__ = ("_buses", "_lanes", "_cache")

    def __init__(self, buses: dict[str, list[np.ndarray]], lanes: int) -> None:
        self._buses = buses
        self._lanes = lanes
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            arr = outputs_from_words([(name, self._buses[name])], self._lanes)[
                name
            ]
            self._cache[name] = arr
        return arr

    def __iter__(self) -> Iterator[str]:
        return iter(self._buses)

    def __len__(self) -> int:
        return len(self._buses)


# --------------------------------------------------------------------- #
# the engine


def _overlay_word_masks(
    overlay: Any,
    batch: int,
    words: int,
    zero: np.ndarray,
    ones: np.ndarray,
) -> Mapping[int, tuple[np.ndarray, np.ndarray]]:
    """An accepted overlay's per-wire ``(keep, force)`` word-array masks."""
    if overlay is None:
        return {}
    if isinstance(overlay, PackedFaultPlan):
        if overlay.lanes != batch:
            raise ValueError(
                f"fault plan has {overlay.lanes} lanes, batch is {batch}"
            )
        return {
            w: (u64_from_int(keep, words), u64_from_int(force, words))
            for w, (keep, force) in overlay.masks.items()
        }
    stuck = overlay.stuck_assignments()
    if not stuck:
        return {}
    return {w: (zero, ones if v else zero) for w, v in stuck.items()}


@register_engine
class VectorEngine(Engine):
    """NumPy ``uint64`` word-array sweeps over the compiled kernels.

    Identical capability surface to the compiled engine (per-lane patch
    masks and SEU flips, no probes, no bridging overlays) but a 4096-lane
    sweep quantum.  ``auto_priority`` sits between compiled and interp:
    auto never reaches it (compiled accepts the same requests at higher
    priority) — wide-sweep callers opt in with ``backend="vector"``.
    """

    name = "vector"
    capabilities = EngineCapabilities(
        name="vector",
        sweep_lanes=VECTOR_SWEEP_LANES,
        probes=False,
        patch_masks=True,
        seu_lanes=True,
        general_overlays=False,
        incremental=False,
        auto_priority=50,
    )

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
        zero, ones = vector_constants(batch)
        masks = _overlay_word_masks(overlay, batch, words, zero, ones)
        kern, zero, ones = vector_kernel(
            nl, patchable=bool(masks), lanes=batch
        )

        input_words: dict[int, np.ndarray] = {}
        for name, bus in nl.inputs.items():
            vec_bus = vec_from_ints(
                seqs[name], bus.width, batch, words, zero, ones
            )
            for wire, value in zip(bus, vec_bus):
                input_words[wire] = value
        init_state = {r.q: r.init for r in nl.registers}
        leaves: list[np.ndarray] = []
        for w in kern.leaves:
            g = nl.gates[w]
            if g.op is Op.INPUT:
                if w not in input_words:
                    raise ValueError(
                        f"input wire {w} ({g.name}) left undriven"
                    )
                leaves.append(input_words[w])
            else:  # REG
                if reg_state is not None and w in reg_state:
                    lane = np.asarray(reg_state[w], dtype=bool)
                    if lane.shape[0] != batch:
                        lane = np.broadcast_to(lane, (batch,))
                    leaves.append(lanes_to_words(lane, words))
                else:
                    leaves.append(ones if init_state[w] else zero)

        outs = kern.fn(leaves, masks, zero, ones)
        sim._wire_values = []  # the vector engine keeps no wire table
        _observe_sweep("vector", batch)
        return outputs_from_words(
            [
                (name, [outs[kern.index[w]] for w in bus])
                for name, bus in nl.outputs.items()
            ],
            batch,
        )

    # -- prepared batch sweep (serving hot path) ------------------------ #

    @classmethod
    def batch_run(
        cls, entry: Any, seqs: Mapping[str, Any], batch: int, materialize: bool
    ) -> Mapping[str, Any]:
        kern = entry.kernel
        words = words_for(batch)
        zero, ones = vector_constants(batch)
        leaves: list[np.ndarray] = [zero] * entry._n_leaves
        for pos, init in entry._reg_slots:
            leaves[pos] = ones if init else zero
        for name, width, positions in entry._input_slots:
            vec_bus = vec_from_ints(seqs[name], width, batch, words, zero, ones)
            for pos, value in zip(positions, vec_bus):
                if pos is not None:
                    leaves[pos] = value
        # A prepared entry sweeps the same kernel again and again, so it
        # is the one path where a native build pays for itself.
        native = native_kernel(kern)
        if native is None:
            outs = kern.fn(leaves, {}, zero, ones)
        else:
            matrix = np.empty((len(leaves), words), dtype=np.uint64)
            for i, leaf in enumerate(leaves):
                matrix[i] = leaf
            outs = native(matrix, ones)
        _observe_sweep("vector", batch)
        index = kern.index
        buses = {
            name: [outs[index[w]] for w in bus]
            for name, bus in entry.netlist.outputs.items()
        }
        if materialize:
            return outputs_from_words(list(buses.items()), batch)
        return VectorOutputs(buses, batch)

    # -- sequential session --------------------------------------------- #

    @classmethod
    def _word_masks(
        cls, sim: Any, words: int, zero: np.ndarray, ones: np.ndarray
    ) -> Mapping[int, tuple[np.ndarray, np.ndarray]]:
        masks = sim._scratch.get("masks")
        if masks is None:
            masks = _overlay_word_masks(
                sim.overlay, sim.batch, words, zero, ones
            )
            sim._scratch["masks"] = masks
        return masks

    @classmethod
    def _word_state(cls, sim: Any, words: int) -> dict[int, np.ndarray]:
        state = sim._scratch.get("state")
        if state is None:
            batch = sim.batch
            bool_state = sim._bool_state or {}
            state = {}
            for q, lane in bool_state.items():
                arr = np.asarray(lane, dtype=bool)
                if arr.shape[0] != batch:
                    arr = np.broadcast_to(arr, (batch,))
                state[q] = lanes_to_words(arr, words)
            sim._scratch["state"] = state
        return state

    @classmethod
    def _pack_inputs(
        cls, sim: Any, inputs: Mapping[str, Any]
    ) -> dict[int, np.ndarray]:
        nl, batch = sim.netlist, sim.batch
        words = words_for(batch)
        zero, ones = vector_constants(batch)
        seqs, in_batch = _coerce_inputs(nl, inputs)
        if in_batch not in (1, batch):
            raise ValueError("inconsistent batch sizes")
        input_words: dict[int, np.ndarray] = {}
        for name, bus in nl.inputs.items():
            vec_bus = vec_from_ints(
                seqs[name], bus.width, batch, words, zero, ones
            )
            for wire, value in zip(bus, vec_bus):
                input_words[wire] = value
        return input_words

    @classmethod
    def _advance(
        cls, sim: Any, input_words: Mapping[int, np.ndarray]
    ) -> tuple[list[np.ndarray], Any]:
        """One vector clock tick on pre-packed inputs; returns raw words."""
        nl, batch = sim.netlist, sim.batch
        words = words_for(batch)
        zero, ones = vector_constants(batch)
        masks = cls._word_masks(sim, words, zero, ones)
        kern, zero, ones = vector_kernel(
            nl, patchable=bool(masks), lanes=batch
        )
        state = cls._word_state(sim, words)

        if sim.overlay is not None:
            flips = getattr(sim.overlay, "seu_lane_flips", None)
            if flips is not None:
                for q, lane_mask in flips(sim.cycle).items():
                    state[q] = state[q] ^ lanes_to_words(
                        np.asarray(lane_mask, dtype=bool), words
                    )
            for q in sim.overlay.seu(sim.cycle):
                state[q] = state[q] ^ ones

        init_state = {r.q: r.init for r in nl.registers}
        leaves: list[np.ndarray] = []
        for w in kern.leaves:
            g = nl.gates[w]
            if g.op is Op.INPUT:
                if w not in input_words:
                    raise ValueError(
                        f"input wire {w} ({g.name}) left undriven"
                    )
                leaves.append(input_words[w])
            elif w in state:
                leaves.append(state[w])
            else:
                leaves.append(ones if init_state[w] else zero)

        outs = kern.fn(leaves, masks, zero, ones)
        sim._scratch["state"] = {
            r.q: outs[kern.index[r.d]] for r in nl.registers
        }
        sim._bool_state = None
        sim.cycle += 1
        _observe_sweep("vector", batch)
        return outs, kern

    @classmethod
    def seq_reset(cls, sim: Any) -> None:
        zero, ones = vector_constants(sim.batch)
        sim._scratch["state"] = {
            r.q: (ones if r.init else zero) for r in sim.netlist.registers
        }
        sim._bool_state = None
        sim._packed_state = None

    @classmethod
    def seq_step(cls, sim: Any, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        outs, kern = cls._advance(sim, cls._pack_inputs(sim, inputs))
        return outputs_from_words(
            [
                (name, [outs[kern.index[w]] for w in bus])
                for name, bus in sim.netlist.outputs.items()
            ],
            sim.batch,
        )

    @classmethod
    def seq_unpack_state(cls, sim: Any) -> dict[int, Any]:
        state = sim._scratch.get("state") or {}
        return {
            q: words_to_lanes(value, sim.batch) for q, value in state.items()
        }

    @classmethod
    def seq_run_stream(
        cls,
        sim: Any,
        input_stream: Sequence[Mapping[str, Any]],
        materialize: bool,
    ) -> list[Mapping[str, Any]]:
        nl, batch = sim.netlist, sim.batch
        words = words_for(batch)
        zero, ones = vector_constants(batch)
        results: list[Mapping[str, np.ndarray]] = []
        prev: dict[str, Any] = {}
        input_words: dict[int, np.ndarray] = {}
        for inputs in input_stream:
            seqs, in_batch = _coerce_inputs(nl, inputs)
            if in_batch not in (1, batch):
                raise ValueError("inconsistent batch sizes")
            for name, bus in nl.inputs.items():
                val = seqs[name]
                # a held input (the same array object cycle after cycle,
                # as when filling a pipeline with one batch) packs once
                if prev.get(name) is not val:
                    vec_bus = vec_from_ints(
                        val, bus.width, batch, words, zero, ones
                    )
                    for wire, value in zip(bus, vec_bus):
                        input_words[wire] = value
                    prev[name] = val
            outs, kern = cls._advance(sim, input_words)
            buses = {
                name: [outs[kern.index[w]] for w in bus]
                for name, bus in nl.outputs.items()
            }
            if materialize:
                results.append(outputs_from_words(list(buses.items()), batch))
            else:
                results.append(VectorOutputs(buses, batch))
        return results
