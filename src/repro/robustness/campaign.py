"""Fault-injection campaigns over the paper's circuits.

A campaign enumerates (or samples) fault sites in a gate-level netlist,
simulates the circuit once per fault through a non-invasive
:class:`~repro.robustness.faults.FaultOverlay`, and classifies each
fault by comparing against the golden (fault-free) run:

* **benign** — every output matches the golden run: the fault was never
  excited, or its effect never propagated to an output;
* **detected** — some output is *not a valid permutation*: a cheap O(n)
  bijectivity self-check catches it online;
* **silent** — outputs differ from golden yet every one is still a
  valid permutation.  This is the dangerous class: structural checking
  passes, and only the rank∘unrank oracle (converter) or statistical
  monitoring (shuffle) can expose it.

The campaign is itself sharded over the fault list via
:func:`~repro.parallel.sharding.hardened_map_reduce`, so a slow or
crashed worker costs a resubmitted shard, not the campaign.  Only the
spec crosses the pickle boundary: every shard looks its netlist, fault
sites, test vectors and evaluator up in a per-process memo of that
plan (:func:`_plan`).  The top level fills it before sharding, so
inline shards and fork-started workers plan nothing, and neither does
a repeated campaign; a spawn-started worker rebuilds it from the spec.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence, cast

import numpy as np

from repro.analysis.faultcoverage import wilson_interval
from repro.errors import CampaignConfigError
from repro.core.factorial import factorial
from repro.hdl.compile import PackedFaultPlan, compile_netlist
from repro.hdl.engine import BACKENDS, engine_capability
from repro.hdl.native import native_kernel
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import (
    CombinationalSimulator,
    SequentialSimulator,
    read_buses,
)
from repro.obs import metrics as _metrics
from repro.obs.events import EventSink
from repro.parallel.sharding import ShardSpec, hardened_map_reduce, index_shards
from repro.robustness.faults import (
    Fault,
    FaultOverlay,
    SEUFault,
    StuckAtFault,
    bridging_fault_sites,
    seu_fault_sites,
    stuck_fault_sites,
)

__all__ = ["CampaignSpec", "CampaignResult", "fault_list", "run_campaign"]

MODELS = ("stuck", "seu", "bridge")
CIRCUITS = ("converter", "shuffle")

#: Class labels, in report order.
_CLASSES = ("benign", "detected", "silent")

_FAULTS_TOTAL = _metrics.REGISTRY.counter(
    "repro_campaign_faults_total",
    "fault sites evaluated, by classification",
    ("klass",),
)
_CAMPAIGN_COVERAGE = _metrics.REGISTRY.gauge(
    "repro_campaign_bijection_coverage",
    "bijection-check coverage of the last campaign",
    ("circuit", "model"),
)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce a campaign bit for bit."""

    circuit: str = "converter"  #: "converter" or "shuffle"
    n: int = 6  #: permutation size
    model: str = "stuck"  #: "stuck", "seu" or "bridge"
    samples: int | None = None  #: sample this many sites (None = exhaustive)
    seed: int = 0  #: drives site sampling and test-vector choice
    test_count: int = 64  #: converter test indices (capped at n!)
    stream_length: int = 16  #: shuffle output rows compared per fault
    optimized: bool = False  #: attack the pass-pipeline-optimised netlist
    engine: str = "auto"  #: registered backend name or "auto" (see BACKENDS)

    def __post_init__(self):
        if self.circuit not in CIRCUITS:
            raise CampaignConfigError(f"circuit must be one of {CIRCUITS}")
        if self.model not in MODELS:
            raise CampaignConfigError(f"model must be one of {MODELS}")
        if self.n < 2:
            raise CampaignConfigError("campaigns need n >= 2")
        if self.samples is not None and self.samples < 1:
            raise CampaignConfigError("samples must be >= 1 (or omitted)")
        if self.test_count < 2:
            raise CampaignConfigError(
                "test_count must be >= 2 (indices 0 and n!-1 are always tested)"
            )
        if self.stream_length < 1:
            raise CampaignConfigError("stream_length must be >= 1")
        if self.engine not in BACKENDS:
            raise CampaignConfigError(f"engine must be one of {BACKENDS}")


@dataclass
class CampaignResult:
    """Coverage statistics of one campaign."""

    spec: CampaignSpec
    total: int
    benign: int
    detected: int
    silent: int
    test_vectors: int
    exhaustive: bool
    examples: dict[str, list[str]] = field(default_factory=dict)
    failed_shards: int = 0
    engine: str = "auto"  #: backend that actually ran the campaign
    #: kernel sweeps across all workers (a sequential pass sweeps once
    #: per clock)
    sweeps: int = 0
    wall_s: float = 0.0  #: end-to-end campaign wall time

    @property
    def corrupting(self) -> int:
        """Faults whose effect reached an output."""
        return self.detected + self.silent

    @property
    def bijection_coverage(self) -> float:
        """Fraction of corrupting faults a bijectivity self-check catches."""
        return self.detected / self.corrupting if self.corrupting else 1.0

    def render(self) -> str:
        s = self.spec
        head = f"Fault-injection campaign: {s.circuit} n={s.n}, model={s.model}"
        mode = "exhaustive" if self.exhaustive else f"sampled (seed={s.seed})"
        lines = [
            head,
            "=" * len(head),
            f"fault sites: {self.total} ({mode}); "
            f"test vectors per fault: {self.test_vectors}",
        ]
        for name, count in (
            ("benign (output unchanged)", self.benign),
            ("detected (invalid permutation)", self.detected),
            ("silent (valid but WRONG output)", self.silent),
        ):
            pct = 100.0 * count / self.total if self.total else 0.0
            lines.append(f"  {name:<34} {count:>7}  {pct:5.1f}%")
        lines.append(
            f"corrupting faults: {self.corrupting}; "
            f"bijection-check coverage: {100.0 * self.bijection_coverage:.1f}%"
        )
        lines.append(
            "rank oracle coverage: 100.0% of corrupting faults "
            "(any output change breaks rank(unrank(N)) == N)"
            if s.circuit == "converter"
            else "shuffle outputs have no per-sample oracle: silent faults "
            "need statistical monitoring (see analysis.uniformity)"
        )
        if not self.exhaustive and self.corrupting:
            lo, hi = wilson_interval(self.detected, self.corrupting)
            lines.append(
                f"95% Wilson CI on bijection coverage: [{100 * lo:.1f}%, {100 * hi:.1f}%]"
            )
        if self.wall_s > 0 and self.total:
            lines.append(
                f"throughput: {self.total / self.wall_s:,.0f} faults/s, "
                f"{self.sweeps / self.wall_s:,.0f} sweeps/s "
                f"({self.sweeps} sweeps in {self.wall_s:.2f}s, "
                f"engine={self.engine})"
            )
        if self.failed_shards:
            lines.append(
                f"WARNING: {self.failed_shards} shard(s) failed permanently; "
                "counts cover completed shards only"
            )
        for klass in _CLASSES:
            for desc in self.examples.get(klass, [])[:3]:
                lines.append(f"  e.g. {klass}: {desc}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# the campaign plan: deterministic in the spec, memoised per process

#: Netlists and campaign plans each memo keeps (least recently used
#: evicted first).  Entries are shared read-only: a netlist is never
#: mutated by a campaign, fault sites are frozen dataclasses, plans are
#: tuples, and an evaluator only caches what is deterministic in its
#: spec (its simulator, the test vectors).  A process runs its
#: shards one at a time, so the shared simulator's interpreter scratch
#: is never in use twice at once.
_PLAN_MEMO = 32


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _build_netlist(circuit: str, n: int, pipelined: bool, optimized: bool) -> Netlist:
    # imported per call (memo miss) so a wrapper around
    # flow.build_circuit sees every build
    from repro.flow import build_circuit
    from repro.hdl.passes import PassManager

    nl = build_circuit(circuit, n, pipelined=pipelined)
    if optimized:
        # Fault sites on the shipped (optimised) netlist: the same pass
        # pipeline the synthesis flow applies, so coverage numbers match
        # the circuit whose resources Tables III/IV report.
        nl = PassManager().run(nl).netlist
    return nl


def _test_indices(spec: CampaignSpec) -> list[int]:
    """Converter test vectors: exhaustive for small n!, else seeded sample.

    The corner indices 0 and n!−1 are always included — they exercise
    the all-zeros and all-maximal comparator patterns.  Past n = 20, n!
    no longer fits an int64 draw, so indices come from exact rejection
    sampling over the generator's random bytes.
    """
    limit = factorial(spec.n)
    if limit <= spec.test_count:
        return list(range(limit))
    rng = np.random.default_rng(spec.seed)
    count = spec.test_count - 2
    if limit - 1 <= np.iinfo(np.int64).max:
        picks = [int(x) for x in rng.integers(0, limit, size=count, dtype=np.int64)]
    else:
        bits = (limit - 1).bit_length()
        nbytes, mask = (bits + 7) // 8, (1 << bits) - 1
        picks = []
        while len(picks) < count:
            value = int.from_bytes(rng.bytes(nbytes), "little") & mask
            if value < limit:
                picks.append(value)
    return [0, limit - 1] + picks


def _seu_cycles(spec: CampaignSpec, indices: Sequence[int]) -> tuple[int, ...]:
    """Upset cycles: early, mid-stream and late — the pipeline (or LFSR
    warm-up) behaves differently at each."""
    if spec.circuit == "converter":
        horizon = len(indices) + max(0, spec.n - 1)
    else:
        horizon = spec.stream_length
    return tuple(sorted({1, horizon // 2, max(1, horizon - 2)}))


class _Plan(NamedTuple):
    netlist: Netlist
    faults: tuple[Fault, ...]
    indices: tuple[int, ...]  #: converter test vectors (none on the shuffle)
    evaluator: "_Evaluator"  #: runs the campaign's sweeps


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _plan(spec: CampaignSpec) -> _Plan:
    """The attacked netlist, fault sites, test vectors and evaluator of
    a campaign."""
    # SEUs need registers to hit: use the pipelined converter datapath.
    pipelined = spec.circuit == "converter" and spec.model == "seu"
    nl = _build_netlist(spec.circuit, spec.n, pipelined, spec.optimized)
    indices = tuple(_test_indices(spec)) if spec.circuit == "converter" else ()
    if spec.model == "stuck":
        sites: list[Fault] = list(stuck_fault_sites(nl))
    elif spec.model == "seu":
        sites = list(seu_fault_sites(nl, _seu_cycles(spec, indices)))
    else:
        budget = spec.samples if spec.samples is not None else 256
        sites = list(bridging_fault_sites(nl, budget, seed=spec.seed))
    if spec.samples is not None and len(sites) > spec.samples:
        rng = np.random.default_rng(spec.seed)
        keep = rng.choice(len(sites), size=spec.samples, replace=False)
        sites = [sites[int(i)] for i in sorted(keep)]
    return _Plan(nl, tuple(sites), indices, _Evaluator(spec, nl, indices, len(sites)))


def fault_list(spec: CampaignSpec) -> list[Fault]:
    """The campaign's fault universe, deterministic in ``spec`` alone.

    A fresh list on every call, so a caller may change it freely; the
    sites behind it are planned once per process (see :func:`_plan`).
    """
    return list(_plan(spec).faults)


#: Lanes of one compiled fault-parallel pass.  The serving quantum
#: (``SWEEP_LANES``) does not size them: bigint lanes have no width
#: limit.  A pass's fixed Python work (simulator call, pack, read and
#: classify calls) is paid once per pass, but each fault's masks and
#: kernel patches are a pass wide, so the combinational budget sits at
#: the knee of the measured curve (DESIGN.md §6): a golden slot and one
#: slot per fault, each as wide as the test vectors, in 32,768 lanes —
#: 511 faults at 64 vectors, 5,460 at n = 3's six.  A sequential pass
#: gives each slot one lane per clock, 4,096 of them (4,095 faults): the
#: stuck-at passes of the shuffle circuit, and SEU passes wherever the
#: native build does not bind (see :meth:`_Evaluator.bind`).
_COMPILED_PASS_LANES = 32768
_COMPILED_STREAM_LANES = 4096

#: Largest SEU campaign that ``auto`` keeps on compiled bigints although
#: the native build binds: its pass (a golden slot and one lane per
#: fault) fits one 64-lane word, where a bigint sweep costs no more than
#: the foreign call and the word-matrix stream's fixed cost loses
#: (DESIGN.md §6).
_ONE_WORD_FAULTS = 63

#: Lanes per slot in the vector engine's combinational budget: its
#: capability's slot count (4,096 faults + 1 golden) times this caps a
#: pass, so campaigns with huge test-vector sets do not explode one
#: sweep's memory.  A sequential vector pass holds 4,097 slots.
_LANES_PER_SLOT = 64


def _frames(
    sweeps: Sequence[Mapping[str, np.ndarray]], n: int, slots: int
) -> np.ndarray:
    """Output buses ``out0..out{n-1}`` of a pass's sweeps as ``(n, rows,
    slots)``, read in one :func:`~repro.hdl.simulator.read_buses`.

    Each sweep's lanes are ``slots`` equal runs, one per slot, and a
    slot's rows are its lanes sweep by sweep: a combinational pass is
    one sweep of ``lanes // slots`` rows a slot, a sequential pass one
    lane a slot for each of its sweeps.  The result is a view of the
    read, bus by bus, so the classification reads each bus contiguously.
    """
    words = read_buses(sweeps, [f"out{t}" for t in range(n)])
    per_slot = words.reshape(n, len(sweeps), slots, -1).transpose(0, 1, 3, 2)
    return per_slot.reshape(n, -1, slots)


class _Evaluator:
    """Runs one campaign's (or shard's) sweeps; returns output rows.

    Two evaluation modes share one classification rule
    (:func:`_classify`):

    * **per-fault** (:meth:`run`) — one simulation per overlay, on
      whichever backend ``spec.engine`` selects;
    * **fault-parallel** (:meth:`run_packed`) — a mask-patching engine
      packs one fault per slot of bit-lanes next to a golden slot
      (:class:`~repro.hdl.compile.PackedFaultPlan`), so a single pass
      evaluates up to ``chunk_faults`` stuck-at/SEU sites at once.
      ``spec.engine="vector"`` runs the passes on the wide-lane engine
      and ``"compiled"`` on bigints.  Under ``"auto"`` stuck-at passes
      run on compiled bigints, and SEU passes — the plain pipelined (or
      shuffle) kernel, clocked once per cycle of the stream — on the
      vector engine's native stream whenever they span more than one
      64-lane word and :meth:`bind` binds that kernel's C build, else
      on compiled (see :data:`_COMPILED_PASS_LANES` for the widths).

    Both produce bit-identical rows (the engines are equivalence-tested
    property-style), so campaign counts and example lists match exactly
    regardless of mode.  One evaluator is planned per spec (it lives in
    the per-process plan memo); its combinational simulator serves
    every sweep it runs.  A pass tiles the test vectors once per slot
    as it runs (~13 µs at 512 slots): a memoised tile per pass width
    would hold ~400 KB per planned spec.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        netlist: Netlist,
        indices: tuple[int, ...],
        faults: int,
    ) -> None:
        self.spec = spec
        self.netlist, self.indices = netlist, indices
        self.faults = faults  #: fault sites of the campaign
        if spec.circuit == "converter":
            self.fill = (spec.n - 1) if spec.model == "seu" else 0
            stream = [{"index": i} for i in self.indices]
            stream += [{"index": 0}] * self.fill
        else:
            self.fill = 1  # cycle 0 emits seed-state garbage (see knuth.py)
            stream = [{}] * (spec.stream_length + self.fill)
        #: per-cycle inputs of one sequential pass
        self.stream: list[dict[str, int]] = stream
        self.combinational = spec.circuit == "converter" and spec.model != "seu"
        #: sweeps one per-fault evaluation costs
        self.sweeps_per_run = 1 if self.combinational else len(stream)
        # Fault-parallel needs per-lane masks: stuck-at and SEU compile,
        # bridging reads aggressor values mid-sweep and cannot.
        self.fault_parallel = spec.engine != "interp" and spec.model in (
            "stuck",
            "seu",
        )
        self.chunk_faults = 1
        self.backend = spec.engine
        if self.fault_parallel:
            # the mask-patching engine that carries the packed passes:
            # vector when explicitly requested, else compiled bigints
            # until bind() finds the native build of an SEU pass
            self._carry("vector" if spec.engine == "vector" else "compiled")
        self._bound = False
        self._comb: CombinationalSimulator | None = None
        # the index bus outgrows a machine word at n >= 21: keep exact ints
        wide = spec.circuit == "converter" and netlist.inputs["index"].width > 64
        self._vectors = np.array(indices, dtype=object if wide else np.uint64)

    def _carry(self, backend: str) -> None:
        """Run the fault-parallel passes on ``backend``, at its width."""
        self.backend = backend
        per_fault = max(1, len(self.indices))
        if backend == "compiled":
            if self.combinational:
                slots = max(2, _COMPILED_PASS_LANES // per_fault)
            else:
                slots = _COMPILED_STREAM_LANES
        else:
            slots = engine_capability(backend).sweep_lanes + 1
            if self.combinational:
                budget = _LANES_PER_SLOT * slots
                slots = max(2, min(slots, budget // per_fault))
        self.chunk_faults = slots - 1

    def bind(self) -> None:
        """Bind the native build that the campaign's SEU passes sweep.

        An SEU plan carries upsets but no stuck-at masks, so its passes
        sweep the plain kernel, whose C build
        (:func:`~repro.hdl.native.native_kernel`) the vector engine's
        clocked passes run when it is bound.  Under ``engine="auto"``
        the passes move to vector when the build binds and stay on
        compiled when it cannot (no ``cc``, a failed build, an unusable
        cache), or when a pass fits one 64-lane word
        (:data:`_ONE_WORD_FAULTS`, as at n = 3).  ``engine="vector"``
        binds too and otherwise runs the NumPy kernel.  Called when
        the campaign first runs — by :func:`run_campaign`, and by a
        shard in a process that planned the campaign itself — never
        while planning, so :func:`fault_list` starts no build.  The
        first SEU campaign of each netlist builds its library once per
        machine (its on-disk cache serves every later process).
        """
        if self._bound:
            return
        if self.fault_parallel and self.spec.model == "seu":
            if self.spec.engine == "vector":
                native_kernel(compile_netlist(self.netlist))
            elif self.spec.engine == "auto" and self.faults > _ONE_WORD_FAULTS:
                if native_kernel(compile_netlist(self.netlist)) is not None:
                    self._carry("vector")
        # marked only once decided: a thread that finds the plan bound
        # reads the lane format the binding chose
        self._bound = True

    def _comb_sim(self) -> CombinationalSimulator:
        if self._comb is None:
            self._comb = CombinationalSimulator(self.netlist, backend=self.backend)
        return self._comb

    def _run_stream(self, batch: int, overlay) -> np.ndarray:
        """One sequential pass: ``(n, cycles, batch)`` outputs after fill."""
        seq = SequentialSimulator(
            self.netlist, batch=batch, overlay=overlay, backend=self.backend
        )
        sweeps = seq.run_stream(self.stream, materialize=False)
        return _frames(sweeps[self.fill :], self.spec.n, batch)

    def run(self, overlay: FaultOverlay | None) -> np.ndarray:
        """One per-fault evaluation: the ``(n, rows, 1)`` outputs."""
        if self.combinational:
            outs = self._comb_sim().run({"index": self._vectors}, overlay=overlay)
            return _frames([outs], self.spec.n, 1)
        return self._run_stream(1, overlay)

    def run_packed(
        self, chunk: Sequence[Fault]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One fault-parallel pass over up to ``chunk_faults`` sites.

        Returns ``(golden, cube, sweeps)``: slot 0 of the packed batch
        carries the fault-free circuit, whose ``(n, rows)`` outputs are
        ``golden``; ``cube[..., s]`` holds the outputs of ``chunk[s]``,
        so ``cube`` is ``(n, rows, faults)``.
        """
        n, slots = self.spec.n, len(chunk) + 1
        if self.combinational:
            per_fault = len(self.indices)
            plan = self._fault_plan(chunk, per_fault, slots * per_fault)
            tile = np.tile(self._vectors, slots)
            outs = self._comb_sim().run({"index": tile}, overlay=plan)
            frames, sweeps = _frames([outs], n, slots), 1
        else:  # one lane per slot, the whole stream in one pass
            frames = self._run_stream(slots, self._fault_plan(chunk, 1, slots))
            sweeps = len(self.stream)
        return frames[..., 0], frames[..., 1:], sweeps

    def _fault_plan(
        self, chunk: Sequence[Fault], width: int, lanes: int
    ) -> PackedFaultPlan:
        """Slot 0 golden and ``chunk[k]`` on slot ``k + 1``, each slot
        ``width`` lanes wide.  A campaign's sites are all of its model's
        kind (stuck-at or SEU)."""
        plan = PackedFaultPlan(lanes)
        if self.spec.model == "seu":
            upsets = cast(Sequence[SEUFault], chunk)
            plan.upset_slots([(f.register, f.cycle) for f in upsets], width)
        else:
            stuck = cast(Sequence[StuckAtFault], chunk)
            plan.stick_slots([(f.wire, f.value) for f in stuck], width)
        return plan


def _classify(golden: np.ndarray, cube: np.ndarray, n: int) -> np.ndarray:
    """Class of every fault in an ``(n, rows, faults)`` output cube.

    ``golden`` is the ``(n, rows)`` fault-free outputs.  Returns indices
    into :data:`_CLASSES`: benign when all of a fault's rows equal
    ``golden``, silent when some differ yet every row is still a
    permutation of ``0..n-1``, detected otherwise.  A row of n entries
    is a permutation exactly when its seen-bitmask (bit v set for each
    entry v) is the n low bits: an entry v >= n sets a higher bit, or
    none once it shifts out of the mask word, and a repeated entry
    leaves some low bit clear.  The mask word is the narrowest with n
    bits (Python ints past 64), so it holds every bus value.
    """
    changed = (cube != golden[..., None]).any(axis=(0, 1))
    word = np.min_scalar_type((1 << n) - 1)
    bits = np.left_shift(np.ones((), dtype=word), cube.astype(word, copy=False))
    seen = bits[0]
    for t in range(1, n):
        seen = seen | bits[t]
    full = np.array((1 << n) - 1, dtype=word)
    valid = (seen == full).all(axis=0)
    return np.where(changed, np.where(valid, 2, 1), 0)


# --------------------------------------------------------------------- #
# the sharded runner


class _CampaignWork:
    """Picklable per-shard worker: looks its plan up by spec."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec

    def __call__(self, shard: ShardSpec) -> dict:
        plan = _plan(self.spec)
        faults = plan.faults[shard.start : shard.stop]
        ev = plan.evaluator
        ev.bind()  # a no-op where run_campaign planned the campaign
        n = self.spec.n
        counts = {k: 0 for k in _CLASSES}
        examples: dict[str, list[str]] = {k: [] for k in _CLASSES}
        sweeps = 0

        def record(chunk: Sequence[Fault], classes: np.ndarray) -> None:
            for k, klass in enumerate(_CLASSES):
                hits = np.flatnonzero(classes == k)
                counts[klass] += len(hits)
                for i in hits[: 3 - len(examples[klass])]:
                    examples[klass].append(chunk[i].describe(ev.netlist))

        if ev.fault_parallel:
            size = ev.chunk_faults
            for off in range(0, len(faults), size):
                chunk = faults[off : off + size]
                golden, cube, cost = ev.run_packed(chunk)
                sweeps += cost
                record(chunk, _classify(golden, cube, n))
        else:
            golden = ev.run(None)[..., 0]
            sweeps += ev.sweeps_per_run
            for fault in faults:
                rows = ev.run(FaultOverlay([fault], ev.netlist))
                sweeps += ev.sweeps_per_run
                record((fault,), _classify(golden, rows, n))
        return {"counts": counts, "examples": examples, "sweeps": sweeps}


def _merge(a: dict, b: dict) -> dict:
    counts = {k: a["counts"][k] + b["counts"][k] for k in _CLASSES}
    examples = {
        k: (a["examples"][k] + b["examples"][k])[:3] for k in _CLASSES
    }
    return {
        "counts": counts,
        "examples": examples,
        "sweeps": a.get("sweeps", 0) + b.get("sweeps", 0),
    }


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    degrade: bool = False,
    timeout: float | None = None,
    events: EventSink | None = None,
    tracer=None,
) -> CampaignResult:
    """Execute a campaign, sharded and hardened.

    ``degrade=True`` keeps partial statistics when shards fail
    permanently (the report then carries a warning); otherwise a failed
    shard aborts with :class:`~repro.errors.WorkerFailedError`.

    Progress is reported through the structured event API: ``events``
    receives ``plan`` / ``shard_*`` / ``done`` events (render them with a
    :class:`~repro.obs.events.StderrSink`, collect them in tests with a
    :class:`~repro.obs.events.CollectingSink`, or pass ``None`` for
    silence).  ``tracer`` threads the caller's trace through the sharded
    runner, so every shard attempt becomes a child span.
    """
    t0 = time.perf_counter()
    # plans the campaign (or finds it in the memo) before any shard runs,
    # so shards and fork-started workers inherit the plan
    faults = fault_list(spec)
    if not faults:
        raise ValueError(f"no {spec.model} fault sites in the {spec.circuit} netlist")
    ev = _plan(spec).evaluator
    ev.bind()  # the lane format of SEU passes, before the shards are cut
    test_vectors = len(ev.indices) if spec.circuit == "converter" else spec.stream_length
    engine_used = ev.backend
    # Four shards per worker, but a fault-parallel campaign is cut on
    # pass boundaries and never finer than one pass per shard: dicing a
    # pass into per-worker slivers would waste its lanes (and repeat a
    # sequential stream once per sliver), and a shard that ended in a
    # part-filled pass would cost a pass more.  So a campaign takes
    # ceil(faults / chunk) passes however it is sharded: the n = 8
    # stuck-at campaign is three shards of one pass each.
    want = max(1, workers) * 4
    if ev.fault_parallel:
        size = ev.chunk_faults
        passes = -(-len(faults) // size)
        shards = [
            ShardSpec(s.shard_id, s.start * size, min(s.stop * size, len(faults)))
            for s in index_shards(passes, min(want, passes))
        ]
    else:
        shards = index_shards(len(faults), want)
    if events is not None:
        events.emit(
            "plan",
            circuit=spec.circuit,
            model=spec.model,
            engine=engine_used,
            fault_sites=len(faults),
            test_vectors=test_vectors,
            shards=len(shards),
            workers=workers,
        )
    partial = hardened_map_reduce(
        _CampaignWork(spec),
        shards,
        _merge,
        workers=workers,
        timeout=timeout,
        degrade=True,
        events=events,
        tracer=tracer,
    )
    if not degrade and not partial.complete:
        # hardened_map_reduce already retried; surface the first failure.
        f = partial.failed[0]
        from repro.errors import WorkerFailedError

        raise WorkerFailedError(
            f"campaign shard {f.shard_id} failed permanently: {f.error}",
            shard_id=f.shard_id,
            attempts=f.attempts,
        )
    merged = partial.value or {
        "counts": {k: 0 for k in _CLASSES},
        "examples": {k: [] for k in _CLASSES},
        "sweeps": 0,
    }
    counted = sum(merged["counts"].values())
    result_coverage = (
        merged["counts"]["detected"]
        / (merged["counts"]["detected"] + merged["counts"]["silent"])
        if merged["counts"]["detected"] + merged["counts"]["silent"]
        else 1.0
    )
    if _metrics.REGISTRY.enabled:
        for klass in _CLASSES:
            if merged["counts"][klass]:
                _FAULTS_TOTAL.inc(merged["counts"][klass], klass=klass)
        _CAMPAIGN_COVERAGE.set(
            result_coverage, circuit=spec.circuit, model=spec.model
        )
    wall_s = time.perf_counter() - t0
    if events is not None:
        events.emit(
            "done",
            evaluated=counted,
            benign=merged["counts"]["benign"],
            detected=merged["counts"]["detected"],
            silent=merged["counts"]["silent"],
            failed_shards=len(partial.failed),
            sweeps=merged.get("sweeps", 0),
            wall_s=round(wall_s, 3),
        )
    return CampaignResult(
        spec=spec,
        total=counted,
        benign=merged["counts"]["benign"],
        detected=merged["counts"]["detected"],
        silent=merged["counts"]["silent"],
        test_vectors=test_vectors,
        exhaustive=spec.samples is None and spec.model != "bridge",
        examples=merged["examples"],
        failed_shards=len(partial.failed),
        engine=engine_used,
        sweeps=merged.get("sweeps", 0),
        wall_s=wall_s,
    )
