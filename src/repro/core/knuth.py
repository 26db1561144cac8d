"""The Knuth-shuffle random permutation circuit (paper §III, Fig. 3).

An ``n``-element shuffle is a cascade of ``n − 1`` stages.  Stage ``t``
(0-based) holds positions ``0..t−1`` fixed and swaps position ``t`` with a
uniformly random position in ``t..n−1`` — ``n − t`` choices, drawn by a
per-stage scaled-LFSR random integer generator (Fig. 2 with ``k = n − t``).
With ideal uniform draws every permutation of the input appears with
probability exactly ``1/n!`` (Fisher–Yates).

Three views are provided:

* :meth:`KnuthShuffleCircuit.shuffle_once` / :meth:`sample` — functional
  model driven by the same LFSR bitstreams as the hardware (used for the
  Fig.-4 histogram and the derangement experiment);
* :meth:`sample_ideal` — draws from a NumPy ``Generator`` instead, to
  separate shuffle-structure effects from LFSR bias in the analysis;
* :meth:`build_netlist` — the gate-level Fig.-3 cascade, each stage with
  its own embedded LFSR + shift-and-add scaler, one register bank per
  stage when pipelined.  This netlist feeds the Table-IV resource model.

Both sampling views run one swap network, :func:`crossover_cascade`,
over a draw matrix; :func:`fold_draws` packs one shuffle's draws into
an index that :func:`repro.core.orders.mr_rank` recovers from the row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.factorial import element_width
from repro.hdl.components import equals_const, mux2_bus, onehot_mux, shift_add_mult_const, zero_extend
from repro.hdl.netlist import Bus, Netlist
from repro.hdl.simulator import SequentialSimulator
from repro.rng.lfsr import FibonacciLFSR, add_lfsr
from repro.rng.scaled import ScaledRandomInteger

__all__ = ["KnuthShuffleCircuit", "crossover_cascade", "fold_draws", "unfold_draws"]


def crossover_cascade(draws: np.ndarray, pool: Sequence[int]) -> np.ndarray:
    """The Fig.-3 swap network over a ``(B, n − 1)`` draw matrix → ``(B, n)``.

    Row ``b`` starts as ``pool``; stage ``t`` swaps its position ``t``
    with position ``t + draws[b, t]``, column-parallel over the batch.
    """
    draws = np.asarray(draws, dtype=np.int64)
    count = draws.shape[0]
    perms = np.broadcast_to(
        np.asarray(pool, dtype=np.int64), (count, len(pool))
    ).copy()
    rows = np.arange(count)
    for t in range(draws.shape[1]):
        j = t + draws[:, t]
        left = perms[rows, t].copy()
        perms[rows, t] = perms[rows, j]
        perms[rows, j] = left
    return perms


def fold_draws(draws: Sequence[int], n: int) -> int:
    """One shuffle's ``n − 1`` stage draws as its index in ``0..n!−1``.

    Draw ``r_t`` is the digit ``n − 1 − t − r_t`` at weight
    ``n!/(n − t)!``, stage 0 least significant: the Myrvold–Ruskey
    digits in mirrored coordinates (a shuffle driven by given draws is
    unranking in transposition order; Blekos, arXiv 0806.1371).  So the
    identity shuffled by index ``I`` is ``n − 1 − mr_unrank(I, n)[::-1]``
    and ``mr_rank(n − 1 − row[::-1]) == I``.
    """
    index = 0
    for t in range(n - 2, -1, -1):
        index = index * (n - t) + (n - 1 - t - int(draws[t]))
    return index


def unfold_draws(indices: Sequence[int], n: int) -> np.ndarray:
    """Inverse of :func:`fold_draws` over a batch → ``(B, n − 1)`` draws
    (past int64, NumPy holds the indices as Python ints)."""
    rest = np.asarray(list(indices))
    draws = np.empty((rest.size, n - 1), dtype=np.int64)
    for t in range(n - 1):
        draws[:, t] = n - 1 - t - rest % (n - t)
        rest = rest // (n - t)
    return draws


class KnuthShuffleCircuit:
    """Knuth (Fisher–Yates) shuffle as an ``n−1``-stage hardware cascade.

    Parameters
    ----------
    n:
        Permutation size.
    m:
        Nominal LFSR width of the per-stage random integer generators.
        The paper uses 31-bit generators ("a 31-bit random integer
        generator similar to that shown in Fig. 2 was included in each
        stage").  Stages are assigned *distinct* widths stepping down
        from ``m`` (see ``widths``): two maximal LFSRs with the same
        feedback polynomial emit phase shifts of one and the same
        m-sequence, making every stage a deterministic function of stage
        0 and visibly skewing the joint permutation distribution; giving
        each stage its own primitive polynomial (here: its own width)
        decorrelates them, which is what a careful hardware design does.
    seeds:
        Optional per-stage LFSR seeds (defaults to distinct values).
    widths:
        Optional explicit per-stage LFSR widths, overriding the default
        descending assignment.  Passing ``[m]*(n−1)`` reproduces the
        naive identical-polynomial design (useful for the ablation bench
        that demonstrates the correlation artefact).
    input_permutation:
        The fixed input applied at the left of the cascade (identity by
        default, as in the Fig.-4 experiment).
    """

    def __init__(
        self,
        n: int,
        m: int = 31,
        seeds: Sequence[int] | None = None,
        input_permutation: Sequence[int] | None = None,
        widths: Sequence[int] | None = None,
    ):
        if n < 2:
            raise ValueError("shuffle needs n ≥ 2")
        self.n = n
        self.m = m
        if input_permutation is None:
            self.input_permutation = tuple(range(n))
        else:
            pool = tuple(int(x) for x in input_permutation)
            if sorted(pool) != list(range(n)):
                raise ValueError("input permutation must permute 0..n-1")
            self.input_permutation = pool
        if widths is None:
            widths = self.default_widths(n, m)
        if len(widths) != n - 1:
            raise ValueError(f"need {n - 1} widths, got {len(widths)}")
        self.widths = tuple(int(w) for w in widths)
        if seeds is None:
            seeds = [
                (0x9E3779B9 * (t + 1)) % ((1 << self.widths[t]) - 1) + 1
                for t in range(n - 1)
            ]
        if len(seeds) != n - 1:
            raise ValueError(f"need {n - 1} seeds, got {len(seeds)}")
        self.seeds = tuple(int(s) for s in seeds)
        self.generators = [
            ScaledRandomInteger(
                n - t, lfsr=FibonacciLFSR(self.widths[t], seed=self.seeds[t])
            )
            for t in range(n - 1)
        ]

    @staticmethod
    def default_widths(n: int, m: int) -> list[int]:
        """Distinct widths ``m, m−1, …`` per stage (cycling if n is huge).

        Distinct widths mean distinct primitive polynomials, so stage
        streams are genuinely independent m-sequences rather than phase
        shifts of one another.  The span runs from ``m`` down to
        ``max(8, m − 15)``, so it is distinct only while ``n − 1 ≤
        min(16, m − 7)``; past that, stages ``t`` and ``t + span`` share
        a polynomial — the correlated design of
        ``results/ablation_polynomial_reuse.txt``.  The constructor keeps
        that cycling so the ``shuffle`` and ``synth`` commands still build
        circuits past that ``n``; the validation campaign's ``shuffle``
        source refuses it.
        """
        if m < 8:
            raise ValueError(
                f"default stage widths need m ≥ 8, got m={m}; pass widths= explicitly"
            )
        lo = max(8, m - 15)
        span = list(range(m, lo - 1, -1))
        return [span[t % len(span)] for t in range(n - 1)]

    # ------------------------------------------------------------------ #
    # structure

    @property
    def num_stages(self) -> int:
        return self.n - 1

    def crossover_count(self) -> int:
        """Crossover cells: Σ_{t} (n−1−t) = n(n−1)/2 — the §III-C count."""
        return self.n * (self.n - 1) // 2

    def stage_choices(self) -> tuple[int, ...]:
        """Number of swap choices per stage: n, n−1, …, 2."""
        return tuple(self.n - t for t in range(self.num_stages))

    @property
    def latency(self) -> int:
        """Pipelined latency in clocks: one per stage."""
        return self.num_stages

    # ------------------------------------------------------------------ #
    # functional model

    def reset(self) -> None:
        """Rewind every per-stage LFSR to its seed."""
        for g in self.generators:
            g.lfsr.reset()

    def shuffle_once(self) -> tuple[int, ...]:
        """Produce one random permutation (advances every stage LFSR)."""
        perm = list(self.input_permutation)
        for t, gen in enumerate(self.generators):
            r = gen.next_int()
            j = t + r
            perm[t], perm[j] = perm[j], perm[t]
        return tuple(perm)

    def next_index(self) -> int:
        """The next shuffle's stage draws, folded (:func:`fold_draws`)."""
        return fold_draws([gen.next_int() for gen in self.generators], self.n)

    def sample(self, count: int) -> np.ndarray:
        """Vectorised sampling: ``count`` permutations as ``(B, n)``."""
        draws = np.stack([gen.ints(count) for gen in self.generators], axis=1)
        return crossover_cascade(draws, self.input_permutation)

    def sample_ideal(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Sampling with ideal uniform stage draws (no LFSR bias)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        draws = np.stack(
            [rng.integers(0, self.n - t, size=count) for t in range(self.num_stages)],
            axis=1,
        )
        return crossover_cascade(draws, self.input_permutation)

    def exact_distribution(self) -> dict[tuple[int, ...], float]:
        """Exact output law under the *actual* per-period LFSR biases.

        Convolves the per-stage :class:`~repro.rng.scaled.BiasReport`
        distributions through the swap network; feasible for small n.
        """
        dist: dict[tuple[int, ...], float] = {self.input_permutation: 1.0}
        for t, gen in enumerate(self.generators):
            bias = gen.bias()
            total = bias.period
            nxt: dict[tuple[int, ...], float] = {}
            for perm, p in dist.items():
                for r, c in enumerate(bias.counts):
                    if c == 0:
                        continue
                    q = list(perm)
                    j = t + r
                    q[t], q[j] = q[j], q[t]
                    key = tuple(q)
                    nxt[key] = nxt.get(key, 0.0) + p * (c / total)
            dist = nxt
        return dist

    # ------------------------------------------------------------------ #
    # structural model

    def build_netlist(self, pipelined: bool = False) -> Netlist:
        """The Fig.-3 cascade as a gate-level netlist.

        Every stage embeds its own Fibonacci LFSR and shift-and-add scaler
        (``k·x >> m``), decodes the random integer to one-hot, and swaps
        position ``t`` with position ``t + r`` through a crossover row.
        The LFSRs advance every clock; outputs are ``out0..out{n-1}`` and
        the packed ``word``.
        """
        n = self.n
        ew = element_width(n)
        nl = Netlist(name=f"knuth_shuffle_n{n}" + ("_pipe" if pipelined else ""))
        pool: list[Bus] = [nl.const_bus(self.input_permutation[j], ew) for j in range(n)]

        for t in range(self.num_stages):
            k = n - t
            mw = self.widths[t]
            state = add_lfsr(nl, mw, seed=self.seeds[t], name=f"s{t}.lfsr")
            product = shift_add_mult_const(nl, state, k)
            r_bus = product[mw:]  # right shift & truncate
            r_width = max(1, (k - 1).bit_length())
            r_bus = r_bus[:r_width] if r_bus.width >= r_width else zero_extend(nl, r_bus, r_width)
            onehot = [equals_const(nl, r_bus, r) for r in range(k)]
            # element landing at position t: pool[t + r]
            new_t = onehot_mux(nl, onehot, pool[t:])
            # each position j > t receives pool[t] when r selects it
            new_rest = [
                mux2_bus(nl, onehot[j - t], pool[j], pool[t]) for j in range(t + 1, n)
            ]
            pool = pool[:t] + [new_t] + new_rest
            if pipelined:
                pool = [
                    nl.register_bus(b, name=f"s{t}.pool{j}") for j, b in enumerate(pool)
                ]

        for j, bus in enumerate(pool):
            nl.output(f"out{j}", bus)
        word_bits: list[int] = []
        for bus in reversed(pool):
            word_bits.extend(zero_extend(nl, bus, ew))
        nl.output("word", Bus(word_bits))
        return nl

    def simulate_netlist(self, count: int, pipelined: bool = False) -> np.ndarray:
        """Clock the gate-level circuit ``count`` times; one perm per clock.

        The circuit's embedded LFSRs step each clock, so successive clocks
        yield successive random permutations.  For the pipelined variant
        the first :attr:`latency` outputs are fill and are discarded.

        Alignment: the functional model advances each LFSR *before*
        reading, so the combinational netlist's cycle-0 output (seed
        states) is discarded and cycles 1.. match :meth:`shuffle_once`
        draw for draw.  The pipelined netlist needs ``n−1`` fill cycles
        for real data to traverse the register banks; each stage then
        consumes its own LFSR stream at a different pipeline depth, so
        the stream is equidistributed but not clock-aligned with the
        functional model.
        """
        nl = self.build_netlist(pipelined=pipelined)
        sim = SequentialSimulator(nl, batch=1)
        fill = self.num_stages if pipelined else 1
        out = []
        for cycle in range(count + fill):
            outs = sim.step({})
            if cycle >= fill:
                out.append([int(outs[f"out{j}"][0]) for j in range(self.n)])
        return np.asarray(out, dtype=np.int64)
