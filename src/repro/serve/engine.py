"""Execution engines behind the serving layer's batch sweeps.

Every served lane is an index resolved at admission, and every engine a
pure function of its batch's indices, so any engine built for a shard —
in a thread, a process or the fallback rung — serves the same rows.
:func:`make_engine` builds the one per batch group key:

* :class:`ConverterEngine` — the §II index-to-permutation converter as a
  prepared :class:`~repro.hdl.BatchEntry`: each request's index becomes
  one lane of a single compiled sweep, and the per-lane ``out0..out{n−1}``
  element buses are read back as permutations.  ``unrank`` and
  ``random_perm`` requests share this engine (and therefore each other's
  batches) because a ``random_perm`` is an unrank of a server-drawn
  index.
* :class:`ShuffleEngine` — the §III Knuth-shuffle crossover cascade
  applied to the stage draws each lane's index folds
  (:func:`~repro.core.knuth.unfold_draws`); it owns no LFSR.  The
  gate-level shuffle netlist embeds its LFSRs, so it cannot take draws
  as lane inputs; the engine runs the functional swap network instead.

Holders memoise engines per ``(kind, n)``: building one compiles the
converter netlist (amortised through the process-wide kernel cache).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.converter import IndexToPermutationConverter
from repro.core.knuth import crossover_cascade, unfold_draws
from repro.hdl.compile import CompiledKernel, note_sweep
from repro.hdl.simulator import BatchEntry, read_buses

__all__ = ["ConverterEngine", "ShuffleEngine", "make_engine"]


class ConverterEngine:
    """Batched unranking through one prepared converter sweep.

    ``backend`` selects the simulation engine through the registry
    (:mod:`repro.hdl.engine`): ``"compiled"`` (bigint lanes, the
    63-payload-lane quantum) by default, ``"vector"`` for wide-lane
    NumPy sweeps when the service admits batches beyond 63.
    """

    def __init__(self, n: int, backend: str = "compiled"):
        self.n = n
        self.converter = IndexToPermutationConverter(n)
        self._entry = BatchEntry(self.converter.build_netlist(), backend=backend)
        self.backend = self._entry.engine.name
        self._names = [f"out{t}" for t in range(n)]

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
        """Unrank a batch of indices in one sweep → ``(B, n)`` int64
        array; the element buses are read in one
        :func:`~repro.hdl.simulator.read_buses`."""
        note_sweep("converter", len(indices), engine=self.backend)
        outs = self._entry.run({"index": list(indices)}, materialize=False)
        return read_buses([outs], self._names)[:, 0].T.astype(np.int64, order="C")


class ShuffleEngine:
    """Batched shuffles of the identity from admitted stage draws."""

    def __init__(self, n: int):
        self.n = n

    def run(self, indices: Sequence[int]) -> np.ndarray:
        """Shuffle each lane by its index's folded draws → ``(B, n)``."""
        note_sweep("shuffle", len(indices), engine="functional")
        return crossover_cascade(unfold_draws(indices, self.n), range(self.n))


def make_engine(kind: str, n: int, backend: str = "compiled"):
    """The engine for shard ``(kind, n)``, on every tier and rung;
    ``backend`` (``ServiceConfig.engine``) applies to converters only."""
    if kind == "shuffle":
        return ShuffleEngine(n)
    return ConverterEngine(n, backend=backend)
