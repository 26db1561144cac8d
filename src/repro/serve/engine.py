"""Execution engines behind the serving layer's batch sweeps.

One engine per batch group key:

* :class:`ConverterEngine` — the §II index-to-permutation converter as a
  prepared :class:`~repro.hdl.BatchEntry`: each request's index becomes
  one lane of a single compiled sweep, and the per-lane ``out0..out{n−1}``
  element buses are read back as permutations.  ``unrank`` and
  ``random_perm`` requests share this engine (and therefore each other's
  batches) because a ``random_perm`` is an unrank of a server-drawn
  index.
* :class:`ShuffleEngine` — the §III Knuth-shuffle cascade via its
  vectorised functional model.  The gate-level shuffle netlist embeds
  its LFSRs *in* the circuit, so every lane of a packed sweep would see
  identical register streams and produce the same permutation; the
  functional model draws one stream and deals consecutive words across
  the batch, which is exactly what distinct hardware clocks would do.

Engines are constructed lazily and memoised per ``(kind, n)`` by
:class:`EngineBank` — construction compiles the converter netlist (a
one-time cost amortised through the process-wide kernel cache), after
which every sweep is pure hot path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.converter import IndexToPermutationConverter
from repro.core.knuth import KnuthShuffleCircuit
from repro.hdl.compile import CompiledKernel, note_sweep
from repro.hdl.simulator import BatchEntry

__all__ = ["ConverterEngine", "ShuffleEngine", "EngineBank"]


class ConverterEngine:
    """Batched unranking through one prepared converter sweep.

    ``backend`` selects the simulation engine through the registry
    (:mod:`repro.hdl.engine`): ``"compiled"`` (bigint lanes, the
    63-payload-lane quantum) by default, ``"vector"`` for wide-lane
    NumPy sweeps when the service admits batches beyond 63.
    """

    kind = "converter"

    def __init__(self, n: int, backend: str = "compiled"):
        self.n = n
        self.converter = IndexToPermutationConverter(n)
        self._entry = BatchEntry(self.converter.build_netlist(), backend=backend)
        self.backend = self._entry.engine.name

    @property
    def sweep_lanes(self) -> int:
        """Lane capacity of one sweep, as reported by the engine."""
        return self._entry.engine.capabilities.sweep_lanes

    @property
    def kernel(self) -> CompiledKernel:
        """The compiled kernel this engine sweeps through."""
        return self._entry.kernel

    @property
    def kernel_fingerprint(self) -> str:
        """Fingerprint of :attr:`kernel`.

        The supervised tier uses it to quarantine the process-wide
        kernel-cache entry when a response check convicts this engine's
        output (:func:`repro.hdl.compile.evict_kernel`).
        """
        return self.kernel.fingerprint

    def run(self, indices: Sequence[int]) -> np.ndarray:
        """Unrank a batch of indices in one sweep → ``(B, n)`` array."""
        note_sweep("converter", len(indices), engine=self.backend)
        outs = self._entry.run({"index": list(indices)}, materialize=False)
        perms = np.empty((len(indices), self.n), dtype=np.int64)
        for t in range(self.n):
            perms[:, t] = outs[f"out{t}"]
        return perms

    def run_single(self, index: int) -> np.ndarray:
        """The unbatched comparison path: one request, one sweep.

        Identical work to a one-lane :meth:`run`; exists so the serving
        benchmark can measure exactly what batching amortises.
        """
        return self.run([index])[0]


class ShuffleEngine:
    """Batched random permutations from the Knuth-shuffle cascade."""

    kind = "shuffle"

    def __init__(self, n: int, m: int = 31, seed_salt: int = 0):
        self.n = n
        seeds = None
        if seed_salt:
            # re-seed each stage deterministically from the salt so two
            # services configured differently draw distinct streams
            circuit = KnuthShuffleCircuit(n, m=m)
            seeds = [
                (s * 0x9E3779B9 + seed_salt) % ((1 << w) - 1) + 1
                for s, w in zip(circuit.seeds, circuit.widths)
            ]
        self.circuit = KnuthShuffleCircuit(n, m=m, seeds=seeds)

    def run(self, count: int) -> np.ndarray:
        """Draw ``count`` random permutations → ``(B, n)`` array."""
        note_sweep("shuffle", count, engine="functional")
        return self.circuit.sample(count)


class EngineBank:
    """Lazy per-``(kind, n)`` engine memo.

    Not thread-safe on its own; the service constructs engines under its
    lock (construction is rare — once per distinct ``n``) and sweeps
    outside it (engines' run methods touch no shared mutable state
    except the shuffle LFSRs, which the service serialises per batch).
    """

    def __init__(
        self,
        shuffle_m: int = 31,
        shuffle_seed_salt: int = 0,
        backend: str = "compiled",
    ):
        self._engines: dict[tuple[str, int], object] = {}
        self._shuffle_m = shuffle_m
        self._shuffle_seed_salt = shuffle_seed_salt
        self._backend = backend

    def converter(self, n: int) -> ConverterEngine:
        key = ("converter", n)
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = ConverterEngine(
                n, backend=self._backend
            )
        return engine  # type: ignore[return-value]

    def shuffle(self, n: int) -> ShuffleEngine:
        key = ("shuffle", n)
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = ShuffleEngine(
                n, m=self._shuffle_m, seed_salt=self._shuffle_seed_salt
            )
        return engine  # type: ignore[return-value]

    def for_key(self, key: tuple[str, int]):
        kind, n = key
        return self.converter(n) if kind == "converter" else self.shuffle(n)
