"""The index-to-permutation converter circuit (paper §II, Fig. 1).

The converter is a cascade of ``n`` stages.  Stage ``t`` (0-based, left to
right) sees the running index ``N_t`` and the pool of ``m = n − t``
still-unassigned elements.  With ``w = (m−1)!``:

1. a bank of ``m − 1`` constant comparators computes the thermometer code
   ``[N_t ≥ 1·w, N_t ≥ 2·w, …, N_t ≥ (m−1)·w]`` — the factorial digit
   ``s`` is the number of true lines (the Fig.-1 ``>`` column);
2. a one-hot MUX routes ``pool[s]`` to output position ``t``;
3. an ``A−B`` subtractor forms ``N_{t+1} = N_t − s·w`` (the subtrahend is
   itself a one-hot MUX over the constant multiples ``j·w``);
4. a row of 2:1 muxes compacts the pool by squeezing out slot ``s``.

The final stage has one comparator and either swaps or passes the last two
elements — exactly the paper's description.

Pipelining (``pipelined=True``) inserts a register bank at every stage
boundary, giving latency ``n`` clocks and throughput one permutation per
clock (§II-B).  Both the combinational and pipelined netlists are verified
against the functional model in the test suite, and the functional model
against :mod:`repro.core.lehmer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.factorial import element_width, factorial, index_width, word_width
from repro.core.lehmer import unrank_batch
from repro.errors import InvalidIndexError, InvalidPermutationError
from repro.hdl.components import (
    geq_const,
    mux2_bus,
    onehot_mux,
    ripple_sub,
    thermometer_to_onehot,
    zero_extend,
)
from repro.hdl.netlist import Bus, Netlist
from repro.hdl.simulator import CombinationalSimulator, SequentialSimulator
from repro.obs import metrics as _metrics

__all__ = ["StageSpec", "IndexToPermutationConverter"]

#: Functional-model conversions served, by permutation size.  Guarded by
#: the registry's enabled flag; a no-op unless telemetry is switched on.
_CONVERT_TOTAL = _metrics.REGISTRY.counter(
    "repro_convert_total", "index->permutation conversions served", ("n",)
)


@dataclass(frozen=True)
class StageSpec:
    """Static description of one cascade stage."""

    position: int  #: 0-based stage number (left = 0)
    pool_size: int  #: elements still unassigned at the stage input
    weight: int  #: factorial weight (pool_size − 1)!
    comparators: int  #: structural comparator count: pool_size − 1
    thresholds: tuple[int, ...]  #: the constants j·weight compared against
    index_bits_in: int  #: running-index width entering the stage
    index_bits_out: int  #: running-index width leaving the stage


class IndexToPermutationConverter:
    """Index → permutation converter: functional + structural models.

    Parameters
    ----------
    n:
        Number of permutation elements (n ≥ 1).
    input_permutation:
        The Fig.-1 "input permutation" applied at the pool inputs.  The
        default identity makes index order lexicographic.
    """

    def __init__(self, n: int, input_permutation: Sequence[int] | None = None):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        if input_permutation is None:
            self.input_permutation = tuple(range(n))
        else:
            pool = tuple(int(x) for x in input_permutation)
            if sorted(pool) != list(range(n)):
                raise InvalidPermutationError("input permutation must permute 0..n-1")
            self.input_permutation = pool
        self.index_limit = factorial(n)
        self.index_width = index_width(n)
        self.element_width = element_width(n)
        self.word_width = word_width(n)

    # ------------------------------------------------------------------ #
    # static structure

    @property
    def stages(self) -> list[StageSpec]:
        """Per-stage structural description (drives Fig.-1/Table-III rows)."""
        out = []
        bits_in = self.index_width
        for t in range(self.n):
            m = self.n - t
            w = factorial(m - 1)
            bits_out = max(1, (w - 1).bit_length()) if m > 1 else 1
            out.append(
                StageSpec(
                    position=t,
                    pool_size=m,
                    weight=w,
                    comparators=m - 1,
                    thresholds=tuple(j * w for j in range(1, m)),
                    index_bits_in=bits_in,
                    index_bits_out=bits_out,
                )
            )
            bits_in = bits_out
        return out

    def comparator_count(self) -> int:
        """Structural comparators: Σ (m−1) = n(n−1)/2."""
        return self.n * (self.n - 1) // 2

    def paper_comparator_count(self) -> int:
        """The paper's §II-D accounting: n + (n−1) + … + 1 = n(n+1)/2.

        The paper counts one comparator per *choice* (including the
        always-true ``N ≥ 0`` line we constant-fold away); both counts are
        Θ(n²).
        """
        return self.n * (self.n + 1) // 2

    @property
    def latency(self) -> int:
        """Pipeline latency in clocks: one per stage (§II-B)."""
        return self.n

    @property
    def pipeline_register_stages(self) -> int:
        """Register banks in the pipelined netlist: one after each of the
        first n−1 stages (the last stage feeds outputs directly)."""
        return max(0, self.n - 1)

    @property
    def throughput(self) -> float:
        """Permutations per clock once the pipeline is full."""
        return 1.0

    # ------------------------------------------------------------------ #
    # functional model (stage-accurate software reference)

    def convert(self, index: int) -> tuple[int, ...]:
        """Unrank one index through the stage-accurate datapath.

        Raises :class:`~repro.errors.InvalidIndexError` (a
        :class:`ValueError` subclass) for non-integers and indices
        outside ``0..n!−1``.
        """
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise InvalidIndexError(f"index {index!r} is not an integer")
        if not (0 <= index < self.index_limit):
            raise InvalidIndexError(
                f"index {index} outside 0..{self.index_limit - 1}"
            )
        if _metrics.REGISTRY.enabled:
            _CONVERT_TOTAL.inc(n=self.n)
        pool = list(self.input_permutation)
        remaining = index
        out = []
        for m in range(self.n, 0, -1):
            w = factorial(m - 1)
            # thermometer of comparators; digit = number of true lines
            s = 0
            for j in range(1, m):
                if remaining >= j * w:
                    s = j
            remaining -= s * w
            out.append(pool.pop(s))
        assert remaining == 0
        return tuple(out)

    def convert_batch(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised conversion of a batch of indices → ``(B, n)`` array."""
        return unrank_batch(indices, self.n, pool=self.input_permutation)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """All n! permutations in index order."""
        for i in range(self.index_limit):
            yield self.convert(i)

    # ------------------------------------------------------------------ #
    # structural model (gate-level netlist)

    def build_netlist(
        self,
        pipelined: bool = False,
        permutation_input_port: bool = False,
        with_stage_probes: bool = False,
    ) -> Netlist:
        """Construct the Fig.-1 circuit as a gate-level netlist.

        Parameters
        ----------
        pipelined:
            Insert a register bank at every stage boundary (§II-B).
        permutation_input_port:
            Expose the input permutation as a primary input bus instead of
            hard-wiring :attr:`input_permutation` as constants.  The fixed
            form is what the paper synthesises; the port form is the LUT
            cascade generalisation.
        with_stage_probes:
            Additionally expose each stage's factorial digit as a debug
            output bus ``dbg_digit{t}`` (a binary encoding of the
            thermometer column), giving waveform-level visibility into
            the stage-by-stage digit extraction.  Off by default: the
            encoder gates would otherwise perturb resource counts.

        Outputs: ``out0..out{n-1}`` (element buses) and ``word`` — the
        packed MSB-first word of :meth:`Permutation.packed_value` — plus
        the ``dbg_digit*`` buses when ``with_stage_probes`` is set.
        """
        n = self.n
        ew = self.element_width
        nl = Netlist(
            name=f"idx2perm_n{n}" + ("_pipe" if pipelined else "")
        )
        index = nl.input("index", self.index_width)
        if permutation_input_port:
            pool = [nl.input(f"in{j}", ew) for j in range(n)]
        else:
            pool = [nl.const_bus(self.input_permutation[j], ew) for j in range(n)]

        assigned: list[Bus] = []
        debug_buses: list[tuple[str, Bus]] = []
        running = index
        for spec in self.stages:
            m = spec.pool_size
            w = spec.weight
            if m == 1:
                assigned.append(pool[0])
                break
            # 1. comparator bank → thermometer code of the digit
            therm = [geq_const(nl, running, j * w) for j in range(1, m)]
            onehot = thermometer_to_onehot(nl, therm)
            if with_stage_probes:
                # binary-encode the digit for the waveform probe taps
                dw = max(1, (m - 1).bit_length())
                digit = onehot_mux(
                    nl, onehot, [nl.const_bus(j, dw) for j in range(m)]
                )
                debug_buses.append((f"dbg_digit{spec.position}", digit))
            # 2. element select
            assigned.append(onehot_mux(nl, onehot, pool))
            # 3. subtract s·w from the running index
            subtrahend = onehot_mux(
                nl, onehot, [nl.const_bus(j * w, running.width) for j in range(m)]
            )
            diff, _ = ripple_sub(nl, running, subtrahend)
            running = diff[: spec.index_bits_out]
            # 4. pool compaction: squeeze out slot s.  Slot j keeps its
            # element while j < s (therm[j] high), else shifts j+1 down.
            pool = [
                mux2_bus(nl, therm[j], pool[j + 1], pool[j]) for j in range(m - 1)
            ]
            if pipelined:
                running = nl.register_bus(running, name=f"s{spec.position}.idx")
                pool = [
                    nl.register_bus(b, name=f"s{spec.position}.pool{j}")
                    for j, b in enumerate(pool)
                ]
                assigned = [
                    nl.register_bus(b, name=f"s{spec.position}.out{j}")
                    for j, b in enumerate(assigned)
                ]

        word_bits: list[int] = []
        for t, bus in enumerate(assigned):
            nl.output(f"out{t}", bus)
        # MSB-first packing: out0 occupies the top element slot
        for bus in reversed(assigned):
            word_bits.extend(zero_extend(nl, bus, ew))
        nl.output("word", Bus(word_bits))
        for name, bus in debug_buses:
            nl.output(name, bus)
        return nl

    # ------------------------------------------------------------------ #
    # structural simulation helpers

    def simulate_netlist(
        self, indices: Sequence[int], pipelined: bool = False
    ) -> np.ndarray:
        """Run indices through the gate-level circuit; returns ``(B, n)``.

        For the pipelined netlist this performs a cycle-accurate run and
        strips the ``latency``-cycle fill; the caller sees the same
        permutation stream the combinational circuit would produce, which
        is exactly the §II-B claim being demonstrated.
        """
        nl = self.build_netlist(pipelined=pipelined)
        idx = [int(i) for i in indices]
        if not pipelined:
            sim = CombinationalSimulator(nl)
            outs = sim.run({"index": idx})
            return self._unpack(outs, len(idx))
        # Cycle-accurate pipeline run: one new index per clock.  Register
        # banks sit after stages 0..n−2, so every output path crosses
        # exactly n−1 registers and the first permutation emerges after
        # n−1 fill cycles; thereafter one per clock.
        seq = SequentialSimulator(nl, batch=1)
        fill = self.pipeline_register_stages
        results = []
        stream = idx + [0] * fill
        for cycle, value in enumerate(stream):
            outs = seq.step({"index": value})
            if cycle >= fill:
                results.append([int(outs[f"out{t}"][0]) for t in range(self.n)])
        return np.asarray(results, dtype=np.int64)

    def _unpack(self, outs: dict, batch: int) -> np.ndarray:
        arr = np.empty((batch, self.n), dtype=np.int64)
        for t in range(self.n):
            arr[:, t] = [int(v) for v in outs[f"out{t}"]]
        return arr
