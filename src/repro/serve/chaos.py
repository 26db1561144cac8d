"""Chaos harness for the degradation ladder, on either executor.

The ladder's claims — no wrong permutation is ever served, every killed
worker is restarted, availability survives degradation — are only worth
stating if something actually kills workers and corrupts payloads.
This module is that something.

:class:`ChaosMonkey` is the injection policy.  Worker handles consult it
on every sweep — a :class:`~repro.serve.supervisor.ShardWorker` thread
before and after its sweep, a worker process through control messages
and its copied rows — and it answers with a :class:`SweepPlan` drawn
from one seeded RNG under one lock, so a campaign is reproducible for a
given seed regardless of thread interleaving *in what it injects* (which
sweep a given request lands in still depends on scheduling).  Five
events cover the failure taxonomy:

``crash``
    The worker dies mid-sweep: a thread raises
    :class:`~repro.errors.WorkerCrashedError` and exits, a process is
    sent ``("crash",)`` and exits through ``os._exit``.  Exercises
    restart + backoff.
``stall``
    The worker sleeps past the ladder's sweep deadline.  Exercises
    stall detection and abandoned-worker replacement (the late result is
    discarded, never served).
``delay``
    A short sleep *inside* the deadline — jitter, not a failure; the
    sweep must still succeed.
``corrupt``
    One element of the result is bit-flipped, which always breaks
    bijectivity (the flipped value duplicates another element or leaves
    ``0..n−1``).  Exercises the bijectivity check and kernel quarantine.
``swap``
    Two elements of one lane are swapped: still a valid permutation,
    just the *wrong* one.  Only the independent rank-oracle can convict
    it — this is the silent-corruption case the end-to-end check exists
    for.  (A swapped *shuffle* lane is indistinguishable from a fair
    draw and is deliberately not convicted.)

For exact unit tests, ``script`` mode replaces the dice entirely: a
mapping of global sweep ordinal → event name fires each event at a known
sweep and nothing else.

:func:`run_chaos_campaign` is the end-to-end harness behind
``repro serve --chaos [--workers W]`` and the CI smoke: drive a closed
loop through a :class:`~repro.serve.supervisor.SupervisedService` (or,
with ``workers``, a :class:`~repro.serve.pool.PooledService`) with chaos
armed and every response client-side verified, disarm, drive a recovery
phase, and report the invariants (zero incorrect responses, restarts,
breaker trips, availability) as the ``serving_chaos/v1`` payload written
to ``results/serving_chaos.json``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ReproError, WorkerCrashedError
from repro.serve import supervisor as _sup
from repro.serve.loadgen import LoadReport, run_closed_loop
from repro.serve.pool import PooledService
from repro.serve.service import ServiceConfig
from repro.serve.supervisor import (
    BreakerConfig,
    LadderConfig,
    LadderService,
    SupervisedService,
)

__all__ = ["CHAOS_EVENTS", "ChaosSpec", "SweepPlan", "ChaosMonkey", "run_chaos_campaign"]

#: Injectable failure events, in taxonomy order.
CHAOS_EVENTS = ("crash", "stall", "delay", "corrupt", "swap")


@dataclass(frozen=True)
class ChaosSpec:
    """Per-sweep injection probabilities and magnitudes.

    Probabilities are independent draws folded into one categorical
    choice per sweep (at most one event fires per sweep), so their sum
    must stay ≤ 1.  ``stall_s`` must exceed the supervisor's sweep
    deadline to register as a stall; ``delay_s`` must stay inside it.
    ``fallback_corrupt_p`` optionally corrupts the *fallback* rung too,
    for exercising the full descent to cache-only mode.
    """

    crash_p: float = 0.05
    stall_p: float = 0.03
    delay_p: float = 0.05
    corrupt_p: float = 0.04
    swap_p: float = 0.03
    stall_s: float = 0.35
    delay_s: float = 0.01
    fallback_corrupt_p: float = 0.0

    def __post_init__(self) -> None:
        probs = (self.crash_p, self.stall_p, self.delay_p, self.corrupt_p, self.swap_p)
        if any(p < 0 for p in probs) or self.fallback_corrupt_p < 0:
            raise ValueError("chaos probabilities must be non-negative")
        if sum(probs) > 1.0:
            raise ValueError("chaos probabilities must sum to at most 1")


class SweepPlan:
    """One sweep's injection decision, frozen at draw time.

    ``before()`` runs in a worker thread before the engine sweep
    (crashes and sleeps happen here; a worker process gets the same
    events as control messages); ``apply(perms)`` transforms the result
    after it (payload corruption happens here, on a copy — the engine's
    own buffers are never poisoned).
    """

    __slots__ = ("event", "stall_s", "delay_s")

    def __init__(self, event: str, stall_s: float = 0.0, delay_s: float = 0.0):
        if event not in CHAOS_EVENTS:
            raise ValueError(f"unknown chaos event {event!r}")
        self.event = event
        self.stall_s = stall_s
        self.delay_s = delay_s

    @property
    def sleep_s(self) -> float:
        """How long the worker sleeps before sweeping (stall or delay)."""
        return {"stall": self.stall_s, "delay": self.delay_s}.get(self.event, 0.0)

    def before(self) -> None:
        if self.event == "crash":
            raise WorkerCrashedError("chaos: worker crashed mid-sweep")
        if self.sleep_s:
            _sup._sleep(self.sleep_s)

    def apply(self, perms: np.ndarray) -> np.ndarray:
        if self.event == "corrupt":
            perms = np.array(perms, copy=True)
            # a single bit-flip always breaks bijectivity: the flipped
            # value either duplicates another element or leaves 0..n−1
            perms[0, 0] ^= 1
            return perms
        if self.event == "swap":
            perms = np.array(perms, copy=True)
            perms[0, 0], perms[0, 1] = int(perms[0, 1]), int(perms[0, 0])
            return perms
        return perms


class ChaosMonkey:
    """Seeded, thread-safe injection policy shared by all workers.

    Either probabilistic (``spec``) or scripted (``script``: global
    sweep ordinal → event name; sweeps not listed run clean).  One lock
    guards the RNG and the sweep counter so a draw is atomic; per-event
    injection counts are kept for the campaign report.  :meth:`disarm`
    starts the recovery phase — armed state is checked per draw, so
    in-flight sweeps finish under whichever policy caught them.
    """

    def __init__(
        self,
        spec: ChaosSpec | None = None,
        seed: int = 0,
        script: dict[int, str] | None = None,
    ):
        self.spec = spec or ChaosSpec()
        self.script = dict(script) if script is not None else None
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._armed = True
        self.sweeps = 0
        self.fallback_sweeps = 0
        self.injected: dict[str, int] = {e: 0 for e in CHAOS_EVENTS}
        self.fallback_injected = 0

    def disarm(self) -> None:
        with self._lock:
            self._armed = False

    def arm(self) -> None:
        with self._lock:
            self._armed = True

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values()) + self.fallback_injected

    # ------------------------------------------------------------------ #

    def plan_sweep(self, key, worker_id: int) -> SweepPlan | None:
        """One atomic draw for a worker sweep — a plan, or clean (None)."""
        with self._lock:
            ordinal = self.sweeps
            self.sweeps += 1
            if not self._armed:
                return None
            event = self._draw(ordinal)
            if event is None:
                return None
            self.injected[event] += 1
        return SweepPlan(event, stall_s=self.spec.stall_s, delay_s=self.spec.delay_s)

    def plan_fallback(self, key) -> SweepPlan | None:
        """Fallback-rung corruption draw (off unless the spec enables it)."""
        with self._lock:
            self.fallback_sweeps += 1
            if not self._armed or self.script is not None:
                return None
            if self._rng.random() >= self.spec.fallback_corrupt_p:
                return None
            self.fallback_injected += 1
        return SweepPlan("corrupt")

    def _draw(self, ordinal: int) -> str | None:
        """Caller holds the lock."""
        if self.script is not None:
            return self.script.get(ordinal)
        roll = self._rng.random()
        edge = 0.0
        spec = self.spec
        for event, p in (
            ("crash", spec.crash_p),
            ("stall", spec.stall_p),
            ("delay", spec.delay_p),
            ("corrupt", spec.corrupt_p),
            ("swap", spec.swap_p),
        ):
            edge += p
            if roll < edge:
                return event
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "sweeps": self.sweeps,
                "fallback_sweeps": self.fallback_sweeps,
                "injected": dict(self.injected),
                "fallback_injected": self.fallback_injected,
                "armed": self._armed,
            }


# --------------------------------------------------------------------- #
# the end-to-end campaign


def _phase_summary(report: LoadReport) -> dict:
    pcts = report.latency_percentiles()
    return {
        "completed": report.completed,
        "shed": report.shed,
        "degraded_shed": report.degraded_shed,
        "abandoned": report.abandoned,
        "degraded_responses": report.degraded_responses,
        "incorrect": report.incorrect,
        "availability": round(report.availability, 6),
        "modes": dict(report.modes),
        "throughput_rps": round(report.throughput_rps, 1),
        "p50_ms": round(pcts["p50"] * 1e3, 3),
        "p99_ms": round(pcts["p99"] * 1e3, 3),
    }


def _settle_shards(service: LadderService, timeout_s: float = 5.0) -> int:
    """Probe lagging shards until every one is back at full strength.

    A campaign can outrun its own ladder: a trip in the last sweeps of
    the chaos phase leaves the worker breaker OPEN for ``recovery_s``,
    and a worker killed near the end may still sit out its restart
    backoff, while a short recovery phase finishes inside that window —
    the tier is healing, the final read is just too early.  Breakers
    only close and slots only refill on *traffic*, so waiting alone is
    not enough either.  This loop sends one oracle-checked sweep through
    the ladder per lagging shard (:meth:`DegradationLadder.lagging
    <repro.serve.supervisor.DegradationLadder.lagging>`) per round —
    bypassing the cache, which would otherwise swallow the probe — until
    none lags.  Returns the number of probe sweeps it took.
    """
    ladder = service.ladder
    probes = 0
    deadline = _sup._monotonic() + timeout_s
    while _sup._monotonic() < deadline:
        lagging = ladder.lagging()
        if not lagging:
            break
        for key in lagging:
            payload = 1 if key[0] == "shuffle" else [0]
            probes += 1
            try:
                ladder.execute(key, payload)
            except ReproError:
                pass  # still degraded; the next round retries
        _sup._sleep(0.02)  # let recovery_s / restart backoff elapse
    return probes


#: The campaign's ladder: short deadline, backoffs and recovery windows,
#: so a few hundred requests see every rung and heal again.
_CAMPAIGN_LADDER = LadderConfig(
    sweep_deadline_s=0.2,
    restart_backoff_s=0.01,
    restart_backoff_max_s=0.1,
    breaker=BreakerConfig(failure_threshold=3, recovery_s=0.1),
    fallback_breaker=BreakerConfig(failure_threshold=2, recovery_s=0.2),
)


def run_chaos_campaign(
    n: int = 6,
    requests: int = 400,
    recovery_requests: int = 150,
    clients: int = 8,
    seed: int = 0,
    spec: ChaosSpec | None = None,
    service_config: ServiceConfig | None = None,
    ladder_config: LadderConfig | None = None,
    tracer=None,
    workers: int = 0,
) -> dict:
    """Chaos phase → recovery phase → invariant report.

    Phase one drives ``requests`` client-verified requests through a
    fresh :class:`~repro.serve.supervisor.SupervisedService` — or, with
    ``workers`` ≥ 1, a :class:`~repro.serve.pool.PooledService` with
    that many worker processes per shard — with chaos armed; phase two
    disarms the monkey and drives ``recovery_requests`` more, proving
    the tier heals (breakers re-close, workers respawn, fallback
    traffic drains), then :func:`_settle_shards` probes any shard still
    inside a recovery or backoff window so the final verdict is not a
    race against the clock.  The returned ``serving_chaos/v1`` payload
    carries the acceptance invariants: ``incorrect_responses`` (must be
    0), ``worker_restarts`` (must cover every kill), per-phase
    availability and the final ladder state.
    """
    spec = spec or ChaosSpec()
    service_config = service_config or ServiceConfig(
        cache_capacity=256, rng_seed=seed
    )
    ladder_config = replace(
        ladder_config or _CAMPAIGN_LADDER, workers=max(1, workers)
    )
    monkey = ChaosMonkey(spec, seed=seed)
    tier = PooledService if workers else SupervisedService
    service = tier(service_config, ladder_config, chaos=monkey, tracer=tracer)
    try:
        if spec.stall_s <= service.ladder.deadline_s:
            raise ValueError("spec.stall_s must exceed the sweep deadline to stall")
        chaos_report = run_closed_loop(
            service, n=n, total=requests, clients=clients, seed=seed, verify=True
        )
        injected = monkey.stats()
        monkey.disarm()
        recovery_report = run_closed_loop(
            service,
            n=n,
            total=recovery_requests,
            clients=clients,
            seed=seed + 1,
            verify=True,
        )
        settle_probes = _settle_shards(service)
        ladder_stats = service.ladder.stats()
        shard_modes = {k: s["mode"] for k, s in ladder_stats["shards"].items()}
        kills = injected["injected"]["crash"] + injected["injected"]["stall"]
        payload = {
            "schema": "serving_chaos/v1",
            "executor": "processes" if workers else "threads",
            "workers": ladder_config.workers,
            "seed": seed,
            "n": n,
            "requests": requests,
            "recovery_requests": recovery_requests,
            "clients": clients,
            "chaos": injected,
            "phases": {
                "chaos": _phase_summary(chaos_report),
                "recovery": _phase_summary(recovery_report),
            },
            "incorrect_responses": chaos_report.incorrect + recovery_report.incorrect,
            "workers_killed": kills,
            "worker_restarts": ladder_stats["restarts"],
            "check_failures": ladder_stats["check_failures"],
            "kernel_quarantines": ladder_stats["quarantines"],
            "failovers": ladder_stats["served_fallback"],
            "breaker_trips": ladder_stats["breaker_trips"],
            "availability_chaos": round(chaos_report.availability, 6),
            "availability_recovery": round(recovery_report.availability, 6),
            "recovered": not service.ladder.lagging(),
            "settle_probes": settle_probes,
            "final_shard_modes": shard_modes,
        }
    finally:
        service.close()
    return payload
