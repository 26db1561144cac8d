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
  consumes packed integers.  So the engine sweeps
  :func:`~repro.hdl.compile.compile_netlist`'s kernels (its LRU,
  fingerprint invalidation and :func:`~repro.hdl.compile.evict_kernel`
  quarantine included) through the driver it shares with the compiled
  engine (:class:`~repro.hdl.simulator.PackedEngine`): this module
  supplies only the word-array lane format.
* Lane ``i`` lives at bit ``i % 64`` of word ``i // 64`` — the exact
  little-endian layout of :func:`~repro.hdl.compile.pack_lanes` — so a
  packed bigint and a word array holding the same sweep are the same
  bytes, and every boundary helper here round-trips bit-identically
  against the bigint engine (asserted by hypothesis property tests).
* ``N`` (all-lanes-set) masks its tail word to the batch width, so
  inversion never sets bits beyond the last lane and NumPy's ``~``
  (which would) is never emitted — same invariant as the bigint
  kernels.
* Prepared sweeps (:class:`~repro.hdl.simulator.BatchEntry`, which
  ``repro validate`` and ``serve --engine vector`` use) run the
  kernel's C build from :mod:`repro.hdl.native` over the same words,
  16–24× faster, when one can be built.  One-off, sequential and
  fault-patched sweeps keep the NumPy kernel: a build costs 0.05–1.3 s
  and cannot pay for one sweep.

The engine registers as ``backend="vector"`` with a
4096-lane sweep quantum (:data:`VECTOR_SWEEP_LANES`): fault-parallel
campaigns pack thousands of faults next to one golden slot per sweep
(the compiled engine packs 63 per combinational sweep), and the serving
layer admits batches to match.  ``auto``
never picks it — NumPy ufunc dispatch costs more than a one-word bigint
op at small batches — it is an explicit opt-in for wide sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np

from repro.hdl.compile import CompiledKernel, PackedFaultPlan, words_for
from repro.hdl.engine import EngineCapabilities, register_engine
from repro.hdl.native import native_kernel
from repro.hdl.simulator import PackedEngine, PackedOutputs, pack_bus

__all__ = [
    "VECTOR_SWEEP_LANES",
    "VectorEngine",
    "VectorOutputs",
    "lanes_to_words",
    "u64_from_int",
    "vec_from_ints",
    "vector_constants",
    "words_to_lanes",
]

#: Payload-lane sweep quantum reported by the vector engine: 64 words of
#: 64 lanes.  Wide enough that a whole stuck-at campaign usually fits in
#: one sweep; small enough that per-wire arrays stay cache-resident.
VECTOR_SWEEP_LANES = 4096

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

    :func:`~repro.hdl.simulator.pack_bus` in the word-array format: the
    vector engine's input pack stage (``hdl.pack``).
    """
    return pack_bus(VectorEngine, values, width, batch, words, zero, ones)


class VectorOutputs(PackedOutputs):
    """Lazy outputs of vector sweeps: the shared mapping, whose bus reads
    are the vector engine's unpack stage (``hdl.unpack``).  The class
    binds ``__getitem__`` itself, so a tracer can time word-array
    unpacks apart from bigint ones."""

    __slots__ = ()

    __getitem__ = PackedOutputs.__getitem__


# --------------------------------------------------------------------- #
# the engine


@register_engine
class VectorEngine(PackedEngine):
    """The NumPy ``uint64`` word-array lane format: one ``(W,)`` array
    per wire.

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

    lazy_outputs = VectorOutputs

    # -- lane format ---------------------------------------------------- #

    @classmethod
    def constants(cls, lanes: int) -> tuple[np.ndarray, np.ndarray]:
        return vector_constants(lanes)

    @classmethod
    def pack_rows(cls, rows: np.ndarray, words: int) -> list[Any]:
        buf = np.zeros((rows.shape[0], words * 8), dtype=np.uint8)
        buf[:, : rows.shape[1]] = rows
        return list(buf.view(_WORD_LE).astype(np.uint64, copy=False))

    @classmethod
    def unpack_rows(cls, values: Sequence[Any], words: int) -> np.ndarray:
        stack = np.empty((len(values), words), dtype=np.uint64)
        for row, value in enumerate(values):
            stack[row] = value
        return stack.astype(_WORD_LE, copy=False).view(np.uint8)

    @classmethod
    def pack_bools(cls, lane: np.ndarray, words: int) -> np.ndarray:
        return lanes_to_words(lane, words)

    @classmethod
    def unpack_bools(cls, value: Any, lanes: int) -> np.ndarray:
        return words_to_lanes(value, lanes)

    @classmethod
    def plan_masks(cls, plan: PackedFaultPlan, words: int) -> Mapping[int, Any]:
        return {
            w: (u64_from_int(keep, words), u64_from_int(force, words))
            for w, (keep, force) in plan.masks.items()
        }

    @classmethod
    def pack(
        cls, values: Any, width: int, batch: int, words: int, zero: Any, ones: Any
    ) -> list[Any]:
        # vec_from_ints is the vector engine's named pack stage (hdl.pack)
        return vec_from_ints(values, width, batch, words, zero, ones)

    # -- kernel choice -------------------------------------------------- #

    @classmethod
    def prepared_sweep(
        cls, kern: CompiledKernel, leaves: list[Any], words: int, zero: Any, ones: Any
    ) -> Any:
        # A prepared entry sweeps the same kernel again and again, so it
        # is the one path where a native build pays for itself.
        native = native_kernel(kern)
        if native is None:
            return kern.fn(leaves, {}, zero, ones)
        matrix = np.empty((len(leaves), words), dtype=np.uint64)
        for i, leaf in enumerate(leaves):
            matrix[i] = leaf
        return native(matrix, ones)
