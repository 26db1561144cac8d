"""Streaming statistical validation: the paper's §IV statistics at any scale.

The paper validates its generators with two statistics over 2²⁰
permutations: the Fig.-4 histogram (uniformity) and the §III-C
derangement count (→ e).  This module is the one path that computes
them, from the paper's scale to 10⁸+: a pipeline that consumes
permutation blocks lazily — engine output
(``BatchEntry.run_stream(materialize=False)`` on the interp / compiled
/ vector engines) for the converter sources, the Knuth-shuffle
circuit's for ``source="shuffle"`` — and folds every block into
**mergeable accumulators**, so 10⁸+ permutations are validated in
O(cells) memory with never a permutation array larger than one sweep.
At n = 4 the rank-bucket accumulator holds the 24 exact Fig.-4 bars
(:func:`repro.analysis.distribution.render_fig4` draws them); the
fixed-point accumulator's cell 0 is the derangement count.

Three design rules make the numbers trustworthy *and* reproducible:

* **Block determinism.**  A campaign is a fixed sequence of blocks
  (``cfg.block`` lanes each); block ``b`` draws its RNG seed from
  ``splitmix64(cfg.seed, b)``.  Statistics are therefore invariant to
  the shard count, worker count, execution order and engine — shard
  boundaries always fall on block boundaries and no stream ever crosses
  one.

* **Integer accumulator state.**  Float addition is not associative, so
  every accumulator keeps pure integer state (cell counts, pair sums)
  and converts to float only in ``summary()``.  Merges are then exactly
  associative *and* commutative — the :class:`repro.obs.LatencyDigest`
  contract — which is what makes a sharded, checkpoint-resumed campaign
  **bit-identical** to a single pass, not just statistically close.

* **Effect-size gates at scale.**  At 10⁸ samples a p-value detects
  physically irrelevant deviations — and the hardware source is a
  *deterministic* m-sequence, so iid-based p-values are not even the
  right null for it.  The verdict therefore gates hardware sources on
  effect sizes (TV distance against its sampling-noise floor, bias
  against the closed-form Fig.-2 profile, a serial-correlation
  envelope, the RNG battery's bit balance and run count) and reserves
  strict p-value gates for ``source="ideal"``, the calibration source.
  Every p-value is still reported.

The known LFSR artifact is handled honestly rather than hidden: the
per-stage register shifts one position per word, so successive *scaled
draws* — and therefore successive first elements ``perm[0]`` — are
serially correlated by construction (r ≈ 0.5, the same property
``tests/analysis/test_randtests.py`` documents for raw words).  The
accumulator measures it on ``perm[0]`` (hashing ranks would destroy the
very signal being measured), reports it as ``expected_artifact`` for
hardware sources, and gates only the envelope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.special import normal_survival
from repro.analysis.uniformity import (
    DEFAULT_BUCKETS,
    bucket_null_probabilities,
    chi_square_uniform,
    effective_bucket_count,
    empirical_entropy_bits,
    rank_bucket_counts,
)
from repro.core.factorial import factorial, subfactorial
from repro.core.lehmer import PASS_ROWS
from repro.errors import CampaignConfigError, CheckpointMismatchError
from repro.obs import metrics as _metrics
from repro.parallel.sharding import (
    ShardSpec,
    default_workers,
    hardened_map_reduce,
    index_shards,
)
from repro.rng.scaled import ScaledRandomInteger, bias_profile

__all__ = [
    "DEFAULT_ALPHA",
    "SERIAL_ENVELOPE",
    "BATTERY_BOUNDS",
    "SOURCES",
    "CampaignConfig",
    "RankBucketAccumulator",
    "FixedPointAccumulator",
    "SerialCorrelationAccumulator",
    "FirstElementBiasAccumulator",
    "ACCUMULATOR_KINDS",
    "PopulationStats",
    "merge_states",
    "stream_blocks",
    "expected_tv_noise",
    "campaign_verdict",
    "battery_report",
    "battery_passed",
    "pigeonhole_curve",
    "CampaignResult",
    "run_population_campaign",
]

#: p-value floor for the ideal-source gates.  Campaigns are seeded, so
#: this is a regression tripwire, not a significance level: a sane
#: seeded run sits far above it, a broken RNG stack far below.
DEFAULT_ALPHA = 1e-6

#: Hardware-source serial-correlation envelope.  The m-sequence shift
#: structure puts lag-1 r of successive scaled draws near 0.5 by
#: design; r approaching 1 means something is actually broken (constant
#: stream, overlapping substreams), so the gate trips there.
SERIAL_ENVELOPE = 0.9

#: Effect-size bounds of the RNG battery gate: ``|ones − ½|`` for
#: monobit and ``|runs / expected − 1|`` for runs over the campaign's
#: raw LFSR words.  The m-sequence is deterministic, so the iid p-values
#: of those tests fail about one dense seed in 200 at p < 1e-4 (seed
#: 491263128 gives 45.3 % ones, monobit p ≈ 2e-9); over 2000 random
#: 31-bit seeds the largest effects were 0.050 and 0.127, while the
#: seed-1 warm-up window (34 % ones over 4096 words), a constant or
#: stuck bit and an alternating stream land far outside.
BATTERY_BOUNDS = {"monobit": 0.1, "runs": 0.2}

#: Additive slack on every effect-size gate, absorbing the true
#: systematic bias of the hardware stream (≤ ~1e-6 at m = 31) with two
#: orders of magnitude to spare.
EFFECT_SLACK = 1e-3

_M64 = (1 << 64) - 1


def _splitmix64(seed: int, i: int) -> int:
    """Deterministic 64-bit mix of ``(seed, i)`` — the block seeder."""
    z = (seed * 0x9E3779B97F4A7C15 + (i + 1) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


_BLOCKS_METRIC = _metrics.REGISTRY.counter(
    "repro_validate_blocks_total",
    "validation campaign blocks folded into accumulators",
    ("engine", "source"),
)
_SAMPLES_METRIC = _metrics.REGISTRY.counter(
    "repro_validate_samples_total",
    "permutations consumed by validation campaigns",
    ("engine", "source"),
)
_ROUND_SECONDS = _metrics.REGISTRY.histogram(
    "repro_validate_round_seconds",
    "wall seconds per campaign round (one wave of shards + checkpoint)",
    buckets=(0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0),
)


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #


#: Permutation sources of a campaign (see :class:`CampaignConfig`).
SOURCES = ("lfsr", "ideal", "shuffle")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's statistics.

    ``source`` is one of :data:`SOURCES`:

    * ``"lfsr"`` — the paper's §III-A stack: per-block-seeded m-bit
      Fibonacci LFSR → Fig.-2 constant-multiply scaler → index;
    * ``"ideal"`` — PCG64 uniform indices, the calibration null;
    * ``"shuffle"`` — the Fig.-3 Knuth-shuffle circuit (§III-C, the
      generator behind Fig. 4 and the derangement study), its ``n − 1``
      stage LFSRs seeded per block and given distinct default widths
      stepping down from ``m``.

    For ``lfsr`` and ``ideal`` the *permutations* come from the
    gate-level converter netlist through the configured simulation
    engine; ``shuffle`` samples the circuit's functional model and
    leaves ``engine`` unused.

    ``engine`` picks the simulation backend (``interp`` / ``compiled``
    / ``vector`` / ``auto``).  It is deliberately **excluded** from the
    fingerprint: all engines are bit-identical on the same netlist (the
    cross-engine test asserts it), so a campaign checkpointed under one
    engine may legally resume under another.
    """

    n: int = 8
    samples: int = 1_000_000
    seed: int = 2012
    source: str = "lfsr"
    engine: str = "vector"
    m: int = 31
    block: int = 4096
    buckets: int = DEFAULT_BUCKETS
    lags: tuple[int, ...] = (1, 2, 7)

    def validated(self) -> "CampaignConfig":
        if not (2 <= self.n <= 20):
            raise CampaignConfigError(f"n={self.n} outside 2..20 (int64 ranks)")
        if self.samples < 1:
            raise CampaignConfigError("samples must be positive")
        if self.source not in SOURCES:
            raise CampaignConfigError(f"unknown source {self.source!r}")
        if self.engine not in ("interp", "compiled", "vector", "auto"):
            raise CampaignConfigError(f"unknown engine {self.engine!r}")
        if not (2 <= self.m <= 61):
            raise CampaignConfigError(f"m={self.m} outside 2..61")
        if self.source == "shuffle":
            self._check_shuffle_widths()
        if self.block < 2:
            raise CampaignConfigError("block must be ≥ 2")
        if self.buckets < 2:
            raise CampaignConfigError("buckets must be ≥ 2")
        lags = tuple(int(lag) for lag in self.lags)
        if not lags or any(lag < 1 for lag in lags):
            raise CampaignConfigError("lags must be positive integers")
        return replace(self, lags=lags)

    def _check_shuffle_widths(self) -> None:
        """Refuse a shuffle whose stages would share a polynomial.

        Two stages of one width emit phase shifts of one m-sequence and
        skew the joint law, so the campaign needs ``n − 1`` distinct
        default widths: ``n − 1 ≤ min(16, m − 7)``.
        """
        from repro.core.knuth import KnuthShuffleCircuit

        try:
            widths = KnuthShuffleCircuit.default_widths(self.n, self.m)
        except ValueError as exc:
            raise CampaignConfigError(f"shuffle source: {exc}") from None
        if len(set(widths)) < len(widths):
            raise CampaignConfigError(
                f"shuffle source: n={self.n} needs {self.n - 1} distinct stage "
                f"widths but m={self.m} gives {len(set(widths))}; stages would "
                "share a feedback polynomial"
            )

    @property
    def total_blocks(self) -> int:
        return -(-self.samples // self.block)

    def block_size(self, block_id: int) -> int:
        if block_id == self.total_blocks - 1:
            return self.samples - (self.total_blocks - 1) * self.block
        return self.block

    @property
    def cells(self) -> int:
        """The rank-bucket cell count this campaign will use (exact for
        small n!, residue buckets past it; Cochran-clamped)."""
        return effective_bucket_count(self.samples, self.buckets, self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "source": self.source,
            "engine": self.engine,
            "m": self.m,
            "block": self.block,
            "buckets": self.buckets,
            "lags": list(self.lags),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CampaignConfig":
        cfg = cls(
            n=int(d["n"]),
            samples=int(d["samples"]),
            seed=int(d["seed"]),
            source=str(d["source"]),
            engine=str(d.get("engine", "vector")),
            m=int(d["m"]),
            block=int(d["block"]),
            buckets=int(d["buckets"]),
            lags=tuple(int(x) for x in d["lags"]),
        )
        return cfg.validated()

    def fingerprint(self) -> str:
        """Hash of every statistic-determining field (NOT the engine)."""
        key = (
            f"n={self.n};samples={self.samples};seed={self.seed};"
            f"source={self.source};m={self.m};block={self.block};"
            f"buckets={self.buckets};lags={','.join(map(str, self.lags))}"
        )
        return sha256(key.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# the permutation stream
# --------------------------------------------------------------------- #

#: Lane budget of one engine sweep in :func:`_sweeps`: consecutive
#: blocks of a shard are converted together up to this many lanes.  At
#: n = 8 on the vector engine an 8192-lane sweep costs 0.53–0.63× the
#: pack + kernel + unpack time per permutation of a 4096-lane one for
#: ~0.5 MB more peak memory; 16384 lanes cost ~0.41× for ~2.9 MB
#: (DESIGN.md §15).
SWEEP_LANES = 8192

#: Per-process memo of prepared converter entries: kernel compilation
#: and engine resolution happen once per (n, backend) per worker.
_ENTRY_CACHE: dict[tuple[int, str], Any] = {}


def _entry_for(n: int, backend: str):
    key = (n, backend)
    entry = _ENTRY_CACHE.get(key)
    if entry is None:
        from repro.core.converter import IndexToPermutationConverter
        from repro.hdl.simulator import BatchEntry

        entry = BatchEntry(
            IndexToPermutationConverter(n).build_netlist(), backend=backend
        )
        _ENTRY_CACHE[key] = entry
    return entry


def _block_indices(cfg: CampaignConfig, block_id: int) -> np.ndarray:
    """The converter indices of one block — pure function of (cfg, id)."""
    size = cfg.block_size(block_id)
    nfact = factorial(cfg.n)
    mixed = _splitmix64(cfg.seed, block_id)
    if cfg.source == "ideal":
        rng = np.random.Generator(np.random.PCG64(mixed))
        return rng.integers(0, nfact, size=size, dtype=np.int64)
    # Fibonacci LFSR seeds live in 1 .. 2^m − 1; fold the mix into that
    # range so every block gets an independent phase of the m-sequence.
    seed = mixed % ((1 << cfg.m) - 1) + 1
    gen = ScaledRandomInteger(nfact, m=cfg.m, seed=seed)
    return np.asarray(gen.ints(size), dtype=np.int64)


def _shuffle_seeds(cfg: CampaignConfig, block_id: int) -> list[int]:
    """The stage LFSR seeds of one ``shuffle`` block — pure function of
    (cfg, id): stage ``t`` mixes ``t`` into the block's splitmix64 seed
    and folds the result into its own width's nonzero range."""
    from repro.core.knuth import KnuthShuffleCircuit

    mixed = _splitmix64(cfg.seed, block_id)
    return [
        _splitmix64(mixed, t) % ((1 << width) - 1) + 1
        for t, width in enumerate(KnuthShuffleCircuit.default_widths(cfg.n, cfg.m))
    ]


def _sweeps(cfg: CampaignConfig, block_ids: Iterable[int]) -> Iterator[np.ndarray]:
    """Lazily yield the rows of ``block_ids`` (ascending and consecutive,
    as a shard's are) as one ``(lanes, n)`` array per sweep.

    A ``shuffle`` block is sampled from a Knuth-shuffle circuit seeded
    for it (:func:`_shuffle_seeds`) and is a sweep of its own.  For the
    converter sources, consecutive blocks share one engine sweep of up
    to :data:`SWEEP_LANES` lanes (at least one block), their indices
    drawn block by block as the block seeding requires.  The sweep's
    element buses cross the lane boundary in one
    :func:`~repro.hdl.simulator.read_buses`, whose ``(n, lanes)``
    ``uint8`` matrix is yielded transposed — no copy, every column
    contiguous.  A campaign's short last block always ends a sweep.
    """
    if cfg.source == "shuffle":
        from repro.core.knuth import KnuthShuffleCircuit

        for b in block_ids:
            circuit = KnuthShuffleCircuit(cfg.n, cfg.m, seeds=_shuffle_seeds(cfg, b))
            yield circuit.sample(cfg.block_size(b))
        return
    from repro.hdl.simulator import read_buses

    entry = _entry_for(cfg.n, cfg.engine)
    ids = list(block_ids)
    # no block is longer than cfg.block, so this many always fit
    per_sweep = max(1, SWEEP_LANES // cfg.block)
    groups = [ids[i : i + per_sweep] for i in range(0, len(ids), per_sweep)]
    inputs = (
        {"index": np.concatenate([_block_indices(cfg, b) for b in group])}
        for group in groups
    )
    names = [f"out{t}" for t in range(cfg.n)]
    for outs in entry.run_stream(inputs, materialize=False):
        yield read_buses([outs], names)[:, 0].T


def stream_blocks(cfg: CampaignConfig, block_ids: Iterable[int]) -> Iterator[np.ndarray]:
    """Lazily yield one ``(block, n)`` row slice of :func:`_sweeps` per block id."""
    for rows in _sweeps(cfg, block_ids):
        yield from np.split(rows, range(cfg.block, len(rows), cfg.block))


# --------------------------------------------------------------------- #
# mergeable accumulators
# --------------------------------------------------------------------- #


class RankBucketAccumulator:
    """Counts of ``rank mod cells`` — the streaming Fig.-4 histogram.

    With ``cells = n!`` (small n) the residues *are* the ranks, so this
    degrades gracefully to the exact dense histogram; past the budget it
    is the residue-bucket scheme of :mod:`repro.analysis.uniformity`,
    whose null cell probabilities are exact at any scale.
    """

    kind = "rank_buckets"

    def __init__(self, n: int, cells: int):
        self.n = n
        self.cells = cells
        self.counts = np.zeros(cells, dtype=np.int64)

    def update(self, perms: np.ndarray) -> None:
        self.counts += rank_bucket_counts(perms, self.cells, validate=False)

    def state_dict(self) -> dict:
        return {"n": self.n, "cells": self.cells, "counts": self.counts.tolist()}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "RankBucketAccumulator":
        acc = cls(int(state["n"]), int(state["cells"]))
        acc.counts = np.array(state["counts"], dtype=np.int64)
        return acc

    @staticmethod
    def merge_state(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict:
        if (a["n"], a["cells"]) != (b["n"], b["cells"]):
            raise ValueError("merging rank-bucket accumulators of different shape")
        return {
            "n": a["n"],
            "cells": a["cells"],
            "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        }

    def summary(self) -> dict:
        samples = int(self.counts.sum())
        null = bucket_null_probabilities(self.n, self.cells)
        chi2, pv = chi_square_uniform(self.counts, expected=null * samples)
        nfact = factorial(self.n)
        # TV against the *exact* bucket null, not uniform: when cells
        # does not divide n! the null itself sits ~½·cells/(2·n!) from
        # uniform — a structural offset the shrinking noise floor drops
        # below at population scale, which would fail every unbiased
        # campaign past ~10⁷ samples.  (With cells == n! the null is
        # uniform and this is the ordinary TV.)
        if samples:
            tv = 0.5 * float(np.abs(self.counts / samples - null).sum())
        else:
            tv = 0.0
        return {
            "samples": samples,
            "cells": self.cells,
            "method": "exact" if self.cells == nfact else "buckets",
            "chi2": chi2,
            "p_value": pv,
            "tv_distance": tv,
            "tv_noise_floor": expected_tv_noise(self.cells, samples),
            "entropy_bits": empirical_entropy_bits(self.counts, num_cells=self.cells),
            "null_entropy_bits": float(-np.sum(null * np.log2(null))),
            "max_entropy_bits": float(np.log2(self.cells)),
        }


class FixedPointAccumulator:
    """Histogram of per-permutation fixed-point counts (§III-C).

    Cell 0 is the derangement count, so ``n!/d_n → e`` falls out of the
    same state; the whole histogram also yields the mean fixed-point
    count (→ 1 for uniform permutations).
    """

    kind = "fixed_points"

    def __init__(self, n: int):
        self.n = n
        self.hist = np.zeros(n + 1, dtype=np.int64)

    def update(self, perms: np.ndarray) -> None:
        positions = np.arange(self.n, dtype=np.min_scalar_type(self.n))
        for lo in range(0, len(perms), PASS_ROWS):
            fixed = (perms[lo : lo + PASS_ROWS] == positions).sum(axis=1, dtype=np.uint8)
            self.hist += np.bincount(fixed, minlength=self.n + 1)

    def state_dict(self) -> dict:
        return {"n": self.n, "hist": self.hist.tolist()}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "FixedPointAccumulator":
        acc = cls(int(state["n"]))
        acc.hist = np.array(state["hist"], dtype=np.int64)
        return acc

    @staticmethod
    def merge_state(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict:
        if a["n"] != b["n"]:
            raise ValueError("merging fixed-point accumulators of different n")
        return {"n": a["n"], "hist": [x + y for x, y in zip(a["hist"], b["hist"])]}

    def summary(self) -> dict:
        samples = int(self.hist.sum())
        der = int(self.hist[0])
        p_null = subfactorial(self.n) / factorial(self.n)
        frac = der / samples if samples else 0.0
        sigma = math.sqrt(p_null * (1 - p_null) / samples) if samples else float("inf")
        z = (frac - p_null) / sigma if samples else 0.0
        mean_fixed = (
            float((self.hist * np.arange(self.n + 1)).sum()) / samples
            if samples
            else 0.0
        )
        return {
            "samples": samples,
            "histogram": self.hist.tolist(),
            "derangements": der,
            "derangement_fraction": frac,
            "expected_fraction": p_null,
            "abs_error": abs(frac - p_null),
            "z": z,
            "p_value": normal_survival(z),
            "e_estimate": samples / der if der else float("inf"),
            "e_abs_error": abs(samples / der - math.e) if der else float("inf"),
            "mean_fixed_points": mean_fixed,
        }


class SerialCorrelationAccumulator:
    """Streaming lag-k autocorrelation of successive first elements.

    Operates on ``perm[0]`` — for the unrank stream that *is* the
    scaled draw ``⌊n·x/2^m⌋`` (the identity
    ``⌊⌊n!x/2^m⌋/(n−1)!⌋ = ⌊n·x/2^m⌋``), so the statistic sees the raw
    m-sequence's shift correlation undiluted; hashed ranks would erase
    it.  Pairs are formed only *within* a campaign block (blocks are
    independently seeded, so cross-block pairs carry no signal), which
    is also what makes the state mergeable: per-lag integer sums
    (pairs, Σx, Σy, Σx², Σy², Σxy) over disjoint pair sets simply add.
    Values are < n ≤ 20, so the sums are exact integers at any scale.
    """

    kind = "serial"

    def __init__(self, n: int, lags: tuple[int, ...]):
        self.n = n
        self.lags = tuple(lags)
        self.sums = {lag: [0, 0, 0, 0, 0, 0] for lag in self.lags}

    def update(self, perms: np.ndarray, block: int) -> None:
        """Fold ``perms`` as consecutive blocks of ``block`` rows (the last
        may be short): sums over all full blocks at once, less each one's
        lag-length tail or head and the products straddling its end."""
        v = perms[:, 0].astype(np.int64)
        full = len(v) - len(v) % block
        for blocks in (v[:full].reshape(-1, block), v[full:].reshape(1, -1)):
            if not blocks.size:
                continue
            count, size = blocks.shape
            flat = blocks.ravel()
            total, squares = flat.sum(), flat @ flat
            for lag in self.lags:
                if size <= lag:
                    continue
                head, tail = blocks[:, :lag], blocks[:, size - lag :]
                s = self.sums[lag]
                s[0] += count * (size - lag)
                s[1] += int(total - tail.sum())
                s[2] += int(total - head.sum())
                s[3] += int(squares - np.vdot(tail, tail))
                s[4] += int(squares - np.vdot(head, head))
                s[5] += int(flat[:-lag] @ flat[lag:] - np.vdot(tail[:-1], head[1:]))

    def state_dict(self) -> dict:
        return {
            "n": self.n,
            "lags": list(self.lags),
            "sums": {str(lag): list(s) for lag, s in self.sums.items()},
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SerialCorrelationAccumulator":
        acc = cls(int(state["n"]), tuple(int(x) for x in state["lags"]))
        acc.sums = {
            lag: [int(v) for v in state["sums"][str(lag)]] for lag in acc.lags
        }
        return acc

    @staticmethod
    def merge_state(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict:
        if (a["n"], list(a["lags"])) != (b["n"], list(b["lags"])):
            raise ValueError("merging serial accumulators of different shape")
        return {
            "n": a["n"],
            "lags": list(a["lags"]),
            "sums": {
                key: [x + y for x, y in zip(a["sums"][key], b["sums"][key])]
                for key in a["sums"]
            },
        }

    def summary(self) -> dict:
        out: dict[str, Any] = {"lags": {}}
        for lag in self.lags:
            pairs, sx, sy, sxx, syy, sxy = self.sums[lag]
            if pairs < 2:
                out["lags"][str(lag)] = {"pairs": pairs, "r": 0.0, "p_value": 1.0}
                continue
            cov = pairs * sxy - sx * sy
            var_x = pairs * sxx - sx * sx
            var_y = pairs * syy - sy * sy
            denom = math.sqrt(float(var_x) * float(var_y))
            r = float(cov) / denom if denom else 0.0
            z = r * math.sqrt(pairs)
            out["lags"][str(lag)] = {
                "pairs": pairs,
                "r": r,
                "z": z,
                "p_value": normal_survival(z),
            }
        return out


class FirstElementBiasAccumulator:
    """The Fig.-2 pigeonhole bias, observed on the first output element.

    ``perm[0] = ⌊n·x/2^m⌋`` for the unrank stream, so its law is exactly
    the closed-form :func:`repro.rng.scaled.bias_profile` ``(k=n, m)``
    over the 2^m − 1 LFSR states — the empirical max/min ratio converges
    to the profile's, which is how the campaign charts the paper's
    pigeonhole curve at population scale.  For the ideal source the law
    is exactly uniform (n! is divisible by (n−1)!·n).
    """

    kind = "first_element"

    def __init__(self, n: int, m: int, source: str):
        self.n = n
        self.m = m
        self.source = source
        self.counts = np.zeros(n, dtype=np.int64)

    def update(self, perms: np.ndarray) -> None:
        self.counts += np.bincount(perms[:, 0], minlength=self.n)

    def state_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "source": self.source,
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "FirstElementBiasAccumulator":
        acc = cls(int(state["n"]), int(state["m"]), str(state["source"]))
        acc.counts = np.array(state["counts"], dtype=np.int64)
        return acc

    @staticmethod
    def merge_state(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict:
        if (a["n"], a["m"], a["source"]) != (b["n"], b["m"], b["source"]):
            raise ValueError("merging bias accumulators of different shape")
        return {
            "n": a["n"],
            "m": a["m"],
            "source": a["source"],
            "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        }

    def _null(self) -> np.ndarray:
        if self.source == "ideal":
            return np.full(self.n, 1.0 / self.n)
        profile = bias_profile(self.n, self.m)
        return np.array(profile.counts, dtype=np.float64) / profile.period

    def summary(self) -> dict:
        samples = int(self.counts.sum())
        null = self._null()
        observed = self.counts / samples if samples else np.zeros(self.n)
        tv_null = 0.5 * float(np.abs(observed - null).sum()) if samples else 0.0
        chi2, pv = (
            chi_square_uniform(self.counts, expected=null * samples)
            if samples
            else (0.0, 1.0)
        )
        expected_profile = bias_profile(self.n, self.m)
        lo = self.counts.min()
        return {
            "samples": samples,
            "counts": self.counts.tolist(),
            "observed_ratio": float(self.counts.max() / lo) if lo else float("inf"),
            "expected_ratio": expected_profile.ratio,
            "expected_max_relative_error": expected_profile.max_relative_error,
            "tv_from_null": tv_null,
            "tv_noise_floor": expected_tv_noise(self.n, samples),
            "chi2": chi2,
            "p_value": pv,
        }


#: kind → class, for state-dict reconstruction and generic merging.
ACCUMULATOR_KINDS = {
    cls.kind: cls
    for cls in (
        RankBucketAccumulator,
        FixedPointAccumulator,
        SerialCorrelationAccumulator,
        FirstElementBiasAccumulator,
    )
}

#: Version tag of accumulator state dicts and checkpoint payloads.
STATE_VERSION = "repro-analysis/1"


def expected_tv_noise(cells: int, samples: int) -> float:
    """E[TV] of a *uniform* multinomial sample from its own law.

    ``E|p̂_i − p_i| ≈ √(2 p_i (1−p_i) / (π N))`` per cell, summed and
    halved: ``≈ ½ √(2·cells / (π·N))``.  The verdict gates observed TV
    against a multiple of this floor — raw TV never converges to zero
    at fixed N, so comparing it to zero (or to a fixed threshold) would
    either always fail small samples or never catch anything.
    """
    if samples <= 0:
        return float("inf")
    return 0.5 * math.sqrt(2.0 * cells / (math.pi * samples))


# --------------------------------------------------------------------- #
# the per-shard stats object
# --------------------------------------------------------------------- #


@dataclass
class PopulationStats:
    """One campaign's full accumulator set, streamed block by block."""

    config: CampaignConfig
    samples: int
    accumulators: dict[str, Any]

    @classmethod
    def fresh(cls, cfg: CampaignConfig) -> "PopulationStats":
        return cls(
            config=cfg,
            samples=0,
            accumulators={
                "rank_buckets": RankBucketAccumulator(cfg.n, cfg.cells),
                "fixed_points": FixedPointAccumulator(cfg.n),
                "serial": SerialCorrelationAccumulator(cfg.n, cfg.lags),
                "first_element": FirstElementBiasAccumulator(
                    cfg.n, cfg.m, cfg.source
                ),
            },
        )

    def update(self, rows: np.ndarray) -> None:
        """Fold consecutive blocks (one sweep's rows) into every
        accumulator; serial pairs stop every ``config.block`` rows."""
        self.samples += len(rows)
        for kind, acc in self.accumulators.items():
            if kind == "serial":
                acc.update(rows, self.config.block)
            else:
                acc.update(rows)

    def state_dict(self) -> dict:
        return {
            "version": STATE_VERSION,
            "samples": self.samples,
            "accumulators": {
                kind: acc.state_dict() for kind, acc in self.accumulators.items()
            },
        }

    @classmethod
    def from_state(
        cls, cfg: CampaignConfig, state: Mapping[str, Any]
    ) -> "PopulationStats":
        return cls(
            config=cfg,
            samples=int(state["samples"]),
            accumulators={
                kind: ACCUMULATOR_KINDS[kind].from_state(sub)
                for kind, sub in state["accumulators"].items()
            },
        )

    def summary(self) -> dict:
        out = {"samples": self.samples}
        for kind, acc in self.accumulators.items():
            out[kind] = acc.summary()
        return out


def merge_states(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict:
    """Merge two accumulator state dicts — associative, commutative,
    pure-integer, and therefore exactly order-independent.

    This is the reduce function handed to ``hardened_map_reduce`` (state
    dicts are plain JSON types, so they cross process boundaries and
    land in checkpoints unchanged).
    """
    if a["version"] != b["version"]:
        raise ValueError("merging incompatible state versions")
    if set(a["accumulators"]) != set(b["accumulators"]):
        raise ValueError("merging states with different accumulator sets")
    return {
        "version": a["version"],
        "samples": a["samples"] + b["samples"],
        "accumulators": {
            kind: ACCUMULATOR_KINDS[kind].merge_state(
                a["accumulators"][kind], b["accumulators"][kind]
            )
            for kind in a["accumulators"]
        },
    }


class _ShardWorker:
    """Top-level picklable shard body: stream the shard's block range
    through the engine, fold each sweep into fresh accumulators, return
    the state dict.  ``hardened_map_reduce`` wraps it with retries,
    timeouts, crash recovery and per-shard tracer spans."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg

    def __call__(self, shard: ShardSpec) -> dict:
        stats = PopulationStats.fresh(self.cfg)
        for rows in _sweeps(self.cfg, range(shard.start, shard.stop)):
            stats.update(rows)
        return stats.state_dict()


# --------------------------------------------------------------------- #
# verdict, battery, pigeonhole curve
# --------------------------------------------------------------------- #


def campaign_verdict(
    cfg: CampaignConfig, summary: Mapping[str, Any], alpha: float = DEFAULT_ALPHA
) -> dict:
    """Named pass/fail gates over a campaign summary.

    ``source="ideal"`` gates on p-values (the stream is genuinely iid,
    so the chi-square/normal nulls apply and a seeded campaign sits far
    from ``alpha``).  Hardware sources gate on effect sizes: the
    m-sequence is deterministic, so at population scale iid p-values
    would flag its (physically negligible, closed-form-known)
    structure; what production cares about is that the *measured
    deviations stay at their predicted magnitudes*.
    """
    ideal = cfg.source == "ideal"
    uni = summary["rank_buckets"]
    fx = summary["fixed_points"]
    fe = summary["first_element"]
    gates: dict[str, bool] = {}
    if ideal:
        gates["uniformity"] = uni["p_value"] >= alpha
        gates["first_element"] = fe["p_value"] >= alpha
    else:
        gates["uniformity"] = (
            uni["tv_distance"] <= 3.0 * uni["tv_noise_floor"] + EFFECT_SLACK
        )
        gates["first_element"] = (
            fe["tv_from_null"] <= 3.0 * fe["tv_noise_floor"] + EFFECT_SLACK
        )
    sigma = math.sqrt(
        fx["expected_fraction"]
        * (1 - fx["expected_fraction"])
        / max(1, fx["samples"])
    )
    gates["derangements"] = fx["abs_error"] <= 5.0 * sigma + 1e-4
    serial_ok = True
    for lag_stats in summary["serial"]["lags"].values():
        if ideal:
            serial_ok = serial_ok and lag_stats["p_value"] >= alpha
        else:
            serial_ok = serial_ok and abs(lag_stats["r"]) <= SERIAL_ENVELOPE
    gates["serial"] = serial_ok
    return {
        "alpha": alpha,
        "mode": "p_value" if ideal else "effect_size",
        "gates": gates,
        "serial_expected_artifact": not ideal,
        "passed": all(gates.values()),
    }


def battery_report(cfg: CampaignConfig, draws: int = 4096) -> dict:
    """The :mod:`repro.analysis.randtests` battery over the campaign's
    raw RNG stack, as a JSON-ready dict.

    Monobit and runs gate on effect size (:data:`BATTERY_BOUNDS`), like
    every other hardware-source gate: their iid p-values are reported,
    not gated, since the m-sequence is not an iid bit stream.  The
    serial lags of *raw words* are flagged ``expected_artifact`` —
    successive states are one-bit shifts, the documented LFSR property —
    and excluded from ``passed``.
    """
    from repro.analysis.randtests import battery
    from repro.rng.lfsr import FibonacciLFSR, dense_seed

    lfsr = FibonacciLFSR(cfg.m, seed=dense_seed(cfg.m, salt=cfg.seed))
    tests = battery(lfsr, draws=draws, lags=cfg.lags)
    results = [
        {
            "name": res.name,
            "statistic": res.statistic,
            "p_value": res.p_value,
            "effect": res.effect,
            "expected_artifact": res.name not in BATTERY_BOUNDS,
        }
        for res in tests
    ]
    return {"draws": draws, "results": results, "passed": battery_passed(tests)}


def battery_passed(tests: Iterable[Any]) -> bool:
    """The battery gate: every monobit / runs result of ``tests`` (as
    :func:`repro.analysis.randtests.battery` returns them) keeps its
    effect size within :data:`BATTERY_BOUNDS`; other results are not
    gated."""
    return all(
        abs(res.effect) <= BATTERY_BOUNDS[res.name]
        for res in tests
        if res.name in BATTERY_BOUNDS
    )


def pigeonhole_curve(
    k: int, ms: Sequence[int] = tuple(range(8, 49, 4))
) -> list[dict]:
    """The Fig.-2 bias curve — closed form, at arbitrary m.

    One point per modulus width: the exact max/min cell-probability
    ratio and max relative error of the constant-multiply scaler for
    ``k`` outputs.  The paper stops at m = 31; this is how the report
    charts the curve far past it (the closed form costs O(k) per point,
    so population scale is free).
    """
    points = []
    for m in ms:
        profile = bias_profile(k, m)
        points.append(
            {
                "m": m,
                "ratio": profile.ratio,
                "max_relative_error": profile.max_relative_error,
            }
        )
    return points


# --------------------------------------------------------------------- #
# the campaign driver
# --------------------------------------------------------------------- #


#: Post-round seam (mirrors ``sharding._monotonic``/``_sleep``): called
#: after each round's checkpoint lands.  The kill-and-resume test
#: replaces it to abort a campaign mid-flight at a known-durable point.
_after_round: Callable[[int, dict], None] = lambda round_index, state: None


@dataclass
class CampaignResult:
    """A finished campaign: config, merged stats, verdict, runtime."""

    config: CampaignConfig
    stats: PopulationStats
    summary: dict
    verdict: dict
    battery: dict | None
    wall_s: float
    perms_per_s: float
    shards: int
    rounds: int
    resumed: bool
    checkpoint_path: str | None = None

    def payload(self) -> dict:
        """The versioned ``repro-analysis/1`` report document."""
        return {
            "version": STATE_VERSION,
            "kind": "report",
            "fingerprint": self.config.fingerprint(),
            "config": self.config.to_dict(),
            "summary": self.summary,
            "verdict": self.verdict,
            "battery": self.battery,
            "pigeonhole_curve": pigeonhole_curve(self.config.n),
            "runtime": {
                "wall_s": self.wall_s,
                "perms_per_s": self.perms_per_s,
                "shards": self.shards,
                "rounds": self.rounds,
                "resumed": self.resumed,
            },
        }

    def render(self) -> str:
        """Human-readable report (the CLI's stdout)."""
        cfg = self.config
        s = self.summary
        uni, fx, fe = s["rank_buckets"], s["fixed_points"], s["first_element"]
        lines = [
            "population validation "
            f"(n={cfg.n}, source={cfg.source}, engine={cfg.engine}, "
            f"m={cfg.m}, seed={cfg.seed})",
            f"  samples            {s['samples']:>14,}"
            f"   ({self.perms_per_s:,.0f} perms/s over {self.wall_s:.2f}s, "
            f"{self.shards} shard(s), {self.rounds} round(s)"
            + (", resumed)" if self.resumed else ")"),
            f"  uniformity         chi2={uni['chi2']:.1f} over {uni['cells']} "
            f"cells ({uni['method']})  p={uni['p_value']:.3g}",
            f"                     tv={uni['tv_distance']:.3e} "
            f"(noise floor {uni['tv_noise_floor']:.3e})  "
            f"H={uni['entropy_bits']:.4f}/{uni['null_entropy_bits']:.4f} bits",
            f"  derangements       {fx['derangement_fraction']:.6f} "
            f"(1/e={fx['expected_fraction']:.6f})  "
            f"e≈{fx['e_estimate']:.6f}  |Δ|={fx['e_abs_error']:.2e}",
            f"  first element      ratio={fe['observed_ratio']:.6f} "
            f"(closed form {fe['expected_ratio']:.6f})  "
            f"tv_null={fe['tv_from_null']:.3e}",
        ]
        for lag, st in s["serial"]["lags"].items():
            note = (
                "  [expected m-sequence artifact]"
                if self.verdict.get("serial_expected_artifact")
                else ""
            )
            lines.append(
                f"  serial lag-{lag:<7} r={st['r']:+.4f}  "
                f"p={st.get('p_value', 1.0):.3g}{note}"
            )
        if self.battery is not None:
            verdict = "pass" if self.battery["passed"] else "FAIL"
            lines.append(
                f"  rng battery        {verdict} over {self.battery['draws']} draws"
            )
        gates = " ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in self.verdict["gates"].items()
        )
        lines.append(
            f"  verdict            {'PASS' if self.verdict['passed'] else 'FAIL'} "
            f"[{self.verdict['mode']}] {gates}"
        )
        return "\n".join(lines)


def run_population_campaign(
    cfg: CampaignConfig,
    *,
    shards: int = 1,
    workers: int | None = None,
    checkpoint_path=None,
    resume: bool = False,
    checkpoint_every: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    alpha: float = DEFAULT_ALPHA,
    battery_draws: int | None = 4096,
    tracer=None,
    events=None,
) -> CampaignResult:
    """Run (or resume) a sharded streaming validation campaign.

    The campaign is ``cfg.total_blocks`` deterministic blocks split into
    ``shards`` contiguous ranges (``index_shards``), executed in rounds
    of ``checkpoint_every`` shards through ``hardened_map_reduce`` —
    retries, per-shard timeouts, worker-crash recovery and tracer spans
    come from there.  After every round the merged state is written
    atomically to ``checkpoint_path`` (schema ``repro-analysis/1``), so
    a killed campaign resumes with ``resume=True`` losing at most one
    round — and, because state is pure-integer and block-deterministic,
    the resumed result is **bit-identical** to an uninterrupted run.

    On resume the shard decomposition stored in the checkpoint wins over
    the ``shards`` argument (completed ranges must stay aligned), and a
    checkpoint whose config fingerprint disagrees with ``cfg`` raises
    :class:`~repro.errors.CheckpointMismatchError` rather than merging
    statistics of two different populations.
    """
    from repro.analysis import checkpoint as _ckpt

    cfg = cfg.validated()
    total = cfg.total_blocks
    shards = max(1, min(shards, total))
    state: dict | None = None
    completed: list[tuple[int, int]] = []
    resumed = False
    if resume:
        if checkpoint_path is None:
            raise CampaignConfigError("resume requires a checkpoint path")
        payload = _ckpt.load_checkpoint(checkpoint_path)
        if payload["fingerprint"] != cfg.fingerprint():
            raise CheckpointMismatchError(
                f"checkpoint fingerprint {payload['fingerprint']} does not match "
                f"campaign {cfg.fingerprint()} — refusing to merge different "
                "populations",
                path=str(checkpoint_path),
            )
        shards = int(payload["shards"])
        completed = [(int(a), int(b)) for a, b in payload["completed"]]
        state = payload["state"] if payload["state"] is not None else None
        resumed = True

    specs = index_shards(total, shards)
    done = set(completed)
    pending = [spec for spec in specs if (spec.start, spec.stop) not in done]
    effective_workers = workers if workers is not None else default_workers()
    if checkpoint_every is None:
        checkpoint_every = (
            max(1, effective_workers) if checkpoint_path is not None else len(specs)
        )
    worker = _ShardWorker(cfg)

    t0 = time.perf_counter()
    rounds = 0
    for lo in range(0, len(pending), max(1, checkpoint_every)):
        wave = pending[lo : lo + max(1, checkpoint_every)]
        round_t0 = time.perf_counter()
        wave_state = hardened_map_reduce(
            worker,
            wave,
            merge_states,
            workers=workers,
            timeout=timeout,
            retries=retries,
            tracer=tracer,
            events=events,
        )
        state = wave_state if state is None else merge_states(state, wave_state)
        completed.extend((spec.start, spec.stop) for spec in wave)
        rounds += 1
        wave_samples = sum(
            sum(cfg.block_size(b) for b in range(spec.start, spec.stop))
            for spec in wave
        )
        wave_blocks = sum(spec.size for spec in wave)
        _BLOCKS_METRIC.inc(wave_blocks, engine=cfg.engine, source=cfg.source)
        _SAMPLES_METRIC.inc(wave_samples, engine=cfg.engine, source=cfg.source)
        _ROUND_SECONDS.observe(time.perf_counter() - round_t0)
        if checkpoint_path is not None:
            _ckpt.save_checkpoint(
                checkpoint_path,
                _ckpt.checkpoint_payload(cfg, state, completed, shards),
            )
        _after_round(rounds - 1, state)
    wall = time.perf_counter() - t0

    if state is None:  # resumed with nothing pending and an empty state
        raise CampaignConfigError("checkpoint holds no state and no work is pending")
    stats = PopulationStats.from_state(cfg, state)
    summary = stats.summary()
    verdict = campaign_verdict(cfg, summary, alpha=alpha)
    battery = battery_report(cfg, battery_draws) if battery_draws else None
    if battery is not None:
        verdict["gates"]["battery"] = battery["passed"]
        verdict["passed"] = verdict["passed"] and battery["passed"]
    return CampaignResult(
        config=cfg,
        stats=stats,
        summary=summary,
        verdict=verdict,
        battery=battery,
        wall_s=wall,
        perms_per_s=stats.samples / wall if wall > 0 else float("inf"),
        shards=shards,
        rounds=rounds,
        resumed=resumed,
        checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
    )
