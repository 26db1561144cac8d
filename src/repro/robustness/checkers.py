"""Online self-checking wrappers (concurrent error detection).

A permutation output is nearly self-validating: checking that it is a
bijection costs O(n) and catches every fault that knocks an output off
the permutation group.  It does **not** catch a *valid but wrong*
permutation — for that, the exact end-to-end oracle is inversion:
``rank(unrank(N)) == N``, computed by the independent Lehmer-code
implementation in :mod:`repro.core.lehmer` (a different algorithm and
different code path from the stage-accurate datapath, so a common-mode
bug cannot hide).  The same invertibility trick underpins hardware
self-checking in the unranking literature (Blekos; Vaez et al.), and
covers served Knuth shuffles too (:func:`check_served_batch`).

:class:`CheckedConverter` layers these checks over any converter
backend, in escalating strength:

1. **input validation** — indices outside ``0..n!−1`` raise
   :class:`~repro.errors.InvalidIndexError` before touching hardware;
2. **bijectivity** — every output must permute the input pool, else
   :class:`~repro.errors.FaultDetectedError`;
3. **dual-rail** (optional) — a second, independent evaluation is
   compared element-wise; any disagreement raises
   :class:`~repro.errors.FaultDetectedError`;
4. **rank oracle** — ``rank(output) != index`` raises
   :class:`~repro.errors.SilentCorruptionError` (the output passed
   every structural check yet is the wrong permutation).

The wrapper can drive the *gate-level netlist* instead of the
functional model (``use_netlist=True``), optionally with a
:class:`~repro.robustness.faults.FaultOverlay` attached — which is how
the test-suite proves the checker catches injected hardware faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.converter import IndexToPermutationConverter
from repro.core.lehmer import rank_batch, rank_naive, unrank_fenwick
from repro.core.orders import mr_rank
from repro.errors import FaultDetectedError, InvalidIndexError, SilentCorruptionError
from repro.hdl.simulator import CombinationalSimulator

__all__ = [
    "CheckStats",
    "CheckedConverter",
    "is_permutation_of",
    "check_served_batch",
]


def check_served_batch(
    perms, indices: Sequence[int] | None = None, kind: str = "converter"
) -> None:
    """End-to-end oracle for a served sweep: bijectivity, then rank.

    The supervised serving tier (:mod:`repro.serve.supervisor`) runs
    every batch through this before resolving any future — the
    serving-layer analogue of :class:`CheckedConverter`'s checks:

    1. every row of ``perms`` (a ``(B, n)`` array over the identity
       pool) must be a permutation of ``0..n−1``, else
       :class:`~repro.errors.FaultDetectedError` — this catches any
       corruption that knocks a result off the permutation group
       (bit-flips, stuck lanes);
    2. with ``indices`` given, each row must be the one its lane's index
       names, else :class:`~repro.errors.SilentCorruptionError` — the
       valid-but-wrong class a structural check cannot see.  A
       ``"converter"`` batch is ranked by the independent, vectorised
       Lehmer ranker; a ``"shuffle"`` row, whose index folds its stage
       draws (:func:`repro.core.knuth.fold_draws`), must satisfy
       ``mr_rank(n − 1 − row[::-1]) == index`` (Myrvold–Ruskey, Python
       ints, no code shared with the swap network).  Without
       ``indices`` (a socket client's shuffle rows) only 1. runs.

    A failure means the batch must **not** be served: the supervisor
    quarantines the producing worker's kernel and fails the sweep over
    to the next ladder rung.
    """
    p = np.asarray(perms, dtype=np.int64)
    if p.ndim != 2:
        raise FaultDetectedError(f"served batch has shape {p.shape}, expected (B, n)")
    b, n = p.shape
    expected = np.arange(n, dtype=np.int64)
    sorted_rows = np.sort(p, axis=1)
    bad_rows = np.nonzero((sorted_rows != expected).any(axis=1))[0]
    if bad_rows.size:
        lane = int(bad_rows[0])
        idx = None if indices is None else int(indices[lane])
        raise FaultDetectedError(
            f"served lane {lane} is not a permutation: {p[lane].tolist()}",
            index=idx,
            output=tuple(int(x) for x in p[lane]),
        )
    if indices is None:
        return
    # indices stay Python ints until the vectorised branch: n! overflows
    # int64 from n = 21, and the serving layer's max_n is a config knob
    want = [int(i) for i in indices]
    if kind == "shuffle":
        mirrored = (n - 1 - p[:, ::-1]).tolist()
        lane = next(
            (k for k, (i, row) in enumerate(zip(want, mirrored)) if mr_rank(row) != i),
            None,
        )
    elif n <= 20:
        got = rank_batch(p, validate=False)  # bijectivity already held
        mismatch = np.nonzero(got != np.asarray(want, dtype=np.int64))[0]
        lane = int(mismatch[0]) if mismatch.size else None
    else:
        lane = None
        pool = list(range(n))
        for k, (i, row) in enumerate(zip(want, p)):
            if rank_naive([int(x) for x in row], pool) != i:
                lane = k
                break
    if lane is not None:
        raise SilentCorruptionError(
            f"rank oracle: served lane {lane} is the valid permutation "
            f"{p[lane].tolist()}, but not the one for index {want[lane]}",
            index=want[lane],
            output=tuple(int(x) for x in p[lane]),
        )


def is_permutation_of(row: Sequence[int], pool: Sequence[int]) -> bool:
    """True when ``row`` is a rearrangement of ``pool``."""
    return sorted(row) == sorted(pool)


@dataclass
class CheckStats:
    """Counters kept by a :class:`CheckedConverter` instance."""

    converted: int = 0  #: outputs that passed every check
    rejected_inputs: int = 0  #: indices refused by validation
    faults_detected: int = 0  #: bijectivity / dual-rail failures
    silent_caught: int = 0  #: rank-oracle failures (valid-but-wrong)

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class CheckedConverter:
    """Self-checking front-end over :class:`IndexToPermutationConverter`.

    Parameters
    ----------
    converter:
        The wrapped converter (defines ``n`` and the input pool).
    dual_rail:
        Evaluate twice through independent paths and compare.  With the
        model backend the second rail is the Fenwick-tree unranker; with
        the netlist backend it is the functional model — either way the
        rails share no code with the primary evaluation.
    use_netlist:
        Drive the gate-level combinational netlist instead of the
        functional model (slower; used to exercise simulated hardware).
    overlay:
        Optional fault overlay forwarded to the netlist simulator —
        only meaningful with ``use_netlist=True``.
    """

    converter: IndexToPermutationConverter
    dual_rail: bool = False
    use_netlist: bool = False
    overlay: object = None
    stats: CheckStats = field(default_factory=CheckStats)

    def __post_init__(self):
        self._sim = None
        if self.use_netlist:
            self._netlist = self.converter.build_netlist(pipelined=False)
            self._sim = CombinationalSimulator(self._netlist)
        pool = self.converter.input_permutation
        self._identity_pool = pool == tuple(range(self.converter.n))

    # ------------------------------------------------------------------ #
    # evaluation rails

    def _evaluate(self, indices: list[int]) -> np.ndarray:
        if self._sim is not None:
            outs = self._sim.run({"index": indices}, overlay=self.overlay)
            return self.converter._unpack(outs, len(indices))
        return self.converter.convert_batch(indices)

    def _second_rail(self, indices: list[int]) -> np.ndarray:
        n, pool = self.converter.n, self.converter.input_permutation
        if self._sim is not None:
            return self.converter.convert_batch(indices)
        return np.asarray(
            [unrank_fenwick(i, n, pool) for i in indices], dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # public API

    def convert(self, index: int) -> tuple[int, ...]:
        """Convert one index with every configured check applied."""
        return tuple(int(x) for x in self.convert_batch([index])[0])

    def convert_batch(self, indices: Sequence[int]) -> np.ndarray:
        """Convert a batch; raises on the first failed check."""
        idx = self._validate(indices)
        perms = self._evaluate(idx)
        self._check_bijectivity(idx, perms)
        if self.dual_rail:
            self._check_dual_rail(idx, perms)
        self._check_rank_oracle(idx, perms)
        self.stats.converted += len(idx)
        return perms

    # ------------------------------------------------------------------ #
    # the checks

    def _validate(self, indices: Sequence[int]) -> list[int]:
        limit = self.converter.index_limit
        out = []
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                self.stats.rejected_inputs += 1
                raise InvalidIndexError(f"index {i!r} is not an integer")
            i = int(i)
            if not (0 <= i < limit):
                self.stats.rejected_inputs += 1
                raise InvalidIndexError(
                    f"index {i} outside 0..{limit - 1} (n = {self.converter.n})"
                )
            out.append(i)
        return out

    def _check_bijectivity(self, idx: list[int], perms: np.ndarray) -> None:
        pool = self.converter.input_permutation
        for i, row in zip(idx, perms):
            if not is_permutation_of(row, pool):
                self.stats.faults_detected += 1
                raise FaultDetectedError(
                    f"output for index {i} is not a permutation: {list(row)}",
                    index=i,
                    output=tuple(int(x) for x in row),
                )

    def _check_dual_rail(self, idx: list[int], perms: np.ndarray) -> None:
        other = self._second_rail(idx)
        if perms.shape != other.shape or not np.array_equal(perms, other):
            bad = next(
                i for i, (a, b) in enumerate(zip(perms, other)) if not np.array_equal(a, b)
            )
            self.stats.faults_detected += 1
            raise FaultDetectedError(
                f"dual-rail mismatch for index {idx[bad]}: "
                f"{list(perms[bad])} vs {list(other[bad])}",
                index=idx[bad],
                output=tuple(int(x) for x in perms[bad]),
            )

    def _check_rank_oracle(self, idx: list[int], perms: np.ndarray) -> None:
        if self._identity_pool and self.converter.n <= 20:
            got = rank_batch(perms)
            mismatch = np.nonzero(got != np.asarray(idx, dtype=np.int64))[0]
            bad = int(mismatch[0]) if mismatch.size else None
        else:
            pool = self.converter.input_permutation
            bad = None
            for k, (i, row) in enumerate(zip(idx, perms)):
                if rank_naive([int(x) for x in row], pool) != i:
                    bad = k
                    break
        if bad is not None:
            self.stats.silent_caught += 1
            raise SilentCorruptionError(
                f"rank oracle: output for index {idx[bad]} is the valid "
                f"permutation {list(perms[bad])}, but it is the wrong one",
                index=idx[bad],
                output=tuple(int(x) for x in perms[bad]),
            )
