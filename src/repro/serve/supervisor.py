"""The degradation ladder, written once, and its thread executor.

:class:`PermutationService` is a single failure domain: one stuck
sweep, one corrupted kernel or one crashed worker takes every shard down
with it.  This module applies the repo's fault-injection philosophy one
layer up — the serving stack itself is treated as hardware that *will*
fail, and correctness under failure is verified, not assumed.

Every sweep of a batch-group key ``(kind, n)`` — a *shard* — walks
:class:`DegradationLadder`:

1. **worker** — one of the shard's ``workers`` replicas runs the sweep
   under a response deadline.  A crash, a stall (the deadline expires;
   the worker is abandoned and any late result discarded), an error or
   a failed response check retires the replica, counts against the
   shard's **circuit breaker**, schedules its **restart with
   exponential backoff** on the monotonic clock (tests drive
   ``_monotonic`` directly) and fails the sweep over at once.
2. **fallback** — while no replica can take the sweep, it runs on the
   in-process fallback (the functional model for converter shards — a
   different algorithm and code path from the compiled datapath, so a
   kernel bug cannot follow the sweep down the ladder — and the workers'
   pure shuffle engine for shuffle shards).  It has its own breaker.
3. **cache-only** — with both breakers open the shard serves cache hits
   only; everything else is shed at admission with
   :class:`~repro.errors.ServiceDegradedError`.

Every batch either rung produces passes
:func:`repro.robustness.checkers.check_served_batch` (bijectivity, then
each row's rank against its lane's admitted index) before any future
resolves — a corrupted result is never served silently.  A check failure
on the worker rung also **quarantines** what produced it.

Two executors run the ladder and differ only in their worker handle:

* :class:`SweepSupervisor` (``serve --supervised``) — one
  :class:`ShardWorker` thread per shard owning a private engine, with a
  heartbeat.  Threads share the process-wide kernel cache, so
  quarantine evicts the convicted kernel
  (:func:`repro.hdl.compile.evict_kernel`) and the replacement worker
  recompiles it from the netlist;
* :class:`~repro.serve.pool.WorkerPool` (``serve --workers W``) — W
  worker processes per shard returning rows through shared memory; the
  respawn is the quarantine, and the parent unlinks a vector worker's
  native library so the respawn does not load it again.

The breaker is the classic three-state machine::

            failure_threshold consecutive failures
   CLOSED ──────────────────────────────────────────▶ OPEN
      ▲                                                │ recovery_s
      │ half_open_probes successes          elapsed    ▼
      └──────────────────────────────────────────── HALF-OPEN
                         (any failure reopens)

Everything is observable, with the same names on both executors: worker
restarts, failovers, check failures and quarantines are counters;
breaker state is the Prometheus enum gauge ``repro_serve_breaker_state``;
sweep time is a digest per rung; per-shard in-flight depth, live workers
and per-replica sweeps feed ``obs top``; and with a tracer attached
every worker attempt, failover, restart, check failure and fallback
sweep is a span in its batch's trace.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.core.converter import IndexToPermutationConverter
from repro.errors import (
    FaultDetectedError,
    ServiceDegradedError,
    ServiceOverloadedError,
    WorkerCrashedError,
    WorkerStalledError,
)
from repro.hdl.compile import evict_kernel
from repro.obs import metrics as _metrics
from repro.obs.tracing import Span, Tracer
from repro.parallel.sharding import retry_backoff
from repro.robustness.checkers import check_served_batch
from repro.serve.engine import make_engine
from repro.serve.service import PermutationService, ServiceConfig, batch_indices

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "CircuitBreaker",
    "LadderConfig",
    "DegradationLadder",
    "ShardWorker",
    "FunctionalConverterEngine",
    "SweepSupervisor",
    "LadderService",
    "SupervisedService",
]

# Injectable clock/sleep seams (monotonic), mirroring parallel.sharding:
# every deadline, backoff and heartbeat computation goes through these.
_monotonic = time.monotonic
_sleep = time.sleep

#: Breaker states in enum-gauge order (closed is the healthy state).
BREAKER_STATES = ("closed", "open", "half_open")

#: How long an idle worker thread waits on its queue between heartbeats.
_POLL_S = 0.05

#: Heartbeat age past which an idle worker thread counts as stuck.
HEARTBEAT_TIMEOUT_S = 5.0

_WORKER_RESTARTS = _metrics.REGISTRY.counter(
    "repro_serve_worker_restarts_total",
    "supervised worker restarts by shard and reason",
    ("shard", "reason"),
)
_BREAKER_STATE = _metrics.REGISTRY.gauge(
    "repro_serve_breaker_state",
    "circuit-breaker state per shard and ladder path (enum gauge)",
    ("shard", "path", "state"),
)
_CHECK_FAILURES = _metrics.REGISTRY.counter(
    "repro_serve_check_failures_total",
    "served-response check failures by shard and check kind",
    ("shard", "kind"),
)
_FAILOVERS = _metrics.REGISTRY.counter(
    "repro_serve_failovers_total",
    "sweeps that failed over from the worker to the fallback rung",
    ("shard",),
)
_QUARANTINES = _metrics.REGISTRY.counter(
    "repro_serve_kernel_quarantines_total",
    "compiled kernels evicted after a response-check conviction",
    ("shard",),
)
_SWEEP_DIGEST = _metrics.REGISTRY.digest(
    "repro_serve_sweep_seconds",
    "supervised sweep duration digest by shard and ladder rung",
    ("shard", "rung"),
)
_DEPTH = _metrics.REGISTRY.gauge(
    "repro_serve_pool_queue_depth",
    "in-flight sweeps per shard (backpressure signal)",
    ("shard",),
)
_LIVE_WORKERS = _metrics.REGISTRY.gauge(
    "repro_serve_pool_workers",
    "live workers per shard",
    ("shard",),
)
_WORKER_SWEEPS = _metrics.REGISTRY.counter(
    "repro_serve_pool_worker_sweeps_total",
    "sweeps served per worker replica",
    ("shard", "replica"),
)


# --------------------------------------------------------------------- #
# circuit breaker


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``recovery_s`` (monotonic) it half-opens and admits probe
    traffic; ``half_open_probes`` consecutive probe successes close it
    again, any probe failure re-opens it and restarts the recovery
    clock.
    """

    failure_threshold: int = 3
    recovery_s: float = 0.25
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if self.recovery_s < 0:
            raise ValueError("recovery_s must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be positive")


class CircuitBreaker:
    """Closed → open → half-open breaker on the monotonic clock.

    A pure, lock-free state machine: the caller (the ladder, under the
    shard's lock) invokes :meth:`allow` before attempting the guarded
    path and exactly one of :meth:`record_success` /
    :meth:`record_failure` after.  The OPEN → HALF_OPEN transition is
    computed lazily from the clock seam on read, so no timer thread
    exists and tests can drive recovery by stepping a fake clock.
    """

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self._failures = 0  # consecutive failures while closed
        self._probes = 0  # consecutive successes while half-open
        self._opened_at: float | None = None
        self.trips = 0  # lifetime closed→open transitions

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if _monotonic() - self._opened_at >= self.config.recovery_s:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May the guarded path be attempted right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        if self._opened_at is not None:
            self._probes += 1
            if self._probes >= self.config.half_open_probes:
                self._opened_at = None
                self._failures = 0
                self._probes = 0
        else:
            self._failures = 0

    def record_failure(self) -> None:
        self._probes = 0
        if self._opened_at is not None:
            # a half-open probe failed: re-open and restart recovery
            self._opened_at = _monotonic()
            return
        self._failures += 1
        if self._failures >= self.config.failure_threshold:
            self._opened_at = _monotonic()
            self.trips += 1


# --------------------------------------------------------------------- #
# engines


class FunctionalConverterEngine:
    """The interp fallback rung: the stage-accurate functional model.

    Shares no code with the compiled datapath — a corrupted or
    miscompiled kernel cannot reproduce its own bug here, which is what
    makes failover a *correctness* recovery and not just an
    availability one.
    """

    def __init__(self, n: int):
        self.n = n
        self.converter = IndexToPermutationConverter(n)

    def run(self, indices):
        return self.converter.convert_batch(list(indices))


# --------------------------------------------------------------------- #
# the thread worker handle


class _SweepJob:
    """One sweep handed to a worker thread, with a settled-event.

    ``traced`` asks the worker thread to time its sweep in a span
    (minted worker-side, grafted by the caller after the job settles —
    never touched concurrently from both threads); the finished span
    lands in ``span``.
    """

    __slots__ = ("indices", "event", "value", "error", "traced", "span")

    def __init__(self, indices, traced: bool = False):
        self.indices = indices
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None
        self.traced = traced
        self.span: Span | None = None


class ShardWorker:
    """The thread worker handle: a private engine swept on its own thread.

    The thread is the in-process stand-in for a worker process: it owns
    the engine (built before the thread starts, so a failed build
    surfaces as a failed spawn, not a dead worker), beats a heartbeat
    timestamp while idle and around every sweep, and dies — ``alive``
    goes ``False`` — when a sweep raises
    :class:`~repro.errors.WorkerCrashedError` (how the chaos harness
    simulates a worker-process crash).

    :meth:`run` enforces the response deadline: if the worker does not
    settle the job in time it raises
    :class:`~repro.errors.WorkerStalledError` and the worker must be
    :meth:`kill`-ed — the stalled thread is abandoned (it cannot be
    interrupted, exactly like a stuck worker process) and any late
    result it produces is discarded with the job object.

    ``slot``, ``busy`` and ``sweeps`` are the ladder's bookkeeping, the
    same on every worker handle.
    """

    def __init__(self, key, worker_id: int, engine, chaos=None, slot: int = 0):
        self.key = key
        self.worker_id = worker_id
        self.slot = slot
        self.engine = engine
        self.chaos = chaos
        self.pid = os.getpid()
        self.busy = False
        self.sweeps = 0
        self.alive = True
        self.last_beat = _monotonic()
        self._killed = False
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"serve-worker-{key[0]}-{key[1]}-{worker_id}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------ #

    def run(self, indices, deadline_s: float, parent: Span | None = None):
        """One sweep with a response deadline; raises typed failures.

        With ``parent`` given, the worker thread times the sweep —
        compiled-kernel execution included — in its own span, which is
        grafted under ``parent`` (restamped onto its trace) once the job
        settles.  A stalled job's span is *not* grafted: the abandoned
        thread may still be mutating it.
        """
        if not self.alive:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} is dead"
            )
        job = _SweepJob(indices, traced=parent is not None)
        self._queue.put(job)
        if not job.event.wait(deadline_s):
            raise WorkerStalledError(
                f"worker {self.worker_id} for shard {self.key} missed its "
                f"{deadline_s:g}s sweep deadline (stall detected)"
            )
        if parent is not None and job.span is not None:
            parent.children.append(
                job.span.restamp(parent.trace_id, parent.span_id)
            )
        if job.error is not None:
            raise job.error
        return job.value

    def kill(self) -> None:
        """Abandon the worker; a stalled thread exits at its next beat."""
        self.alive = False
        self._killed = True
        self._queue.put(None)  # wake an idle loop so the thread exits

    def stale(self) -> bool:
        """Has the idle worker's heartbeat gone quiet (stuck, not serving)?"""
        return self.heartbeat_age_s > HEARTBEAT_TIMEOUT_S

    def quarantine(self) -> int | None:
        """Evict the convicted compiled kernel → kernels evicted, or
        ``None`` for an engine without one."""
        fingerprint = getattr(self.engine, "kernel_fingerprint", None)
        return None if fingerprint is None else evict_kernel(fingerprint)

    @property
    def heartbeat_age_s(self) -> float:
        return max(0.0, _monotonic() - self.last_beat)

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while not self._killed:
            try:
                job = self._queue.get(timeout=_POLL_S)
            except queue.Empty:
                self.last_beat = _monotonic()
                continue
            if job is None or self._killed:
                break
            self.last_beat = _monotonic()
            sweep_span = (
                Span(
                    "serve.worker_sweep",
                    {
                        "shard": str(self.key),
                        "worker_id": self.worker_id,
                        "kernel": getattr(
                            self.engine, "kernel_fingerprint", None
                        ),
                    },
                )
                if job.traced
                else None
            )
            try:
                plan = (
                    self.chaos.plan_sweep(self.key, self.worker_id)
                    if self.chaos is not None
                    else None
                )
                if plan is not None:
                    plan.before()  # may crash the worker or stall it
                value = self.engine.run(job.indices)
                if plan is not None:
                    value = plan.apply(value)
            except BaseException as exc:
                if isinstance(exc, WorkerCrashedError):
                    # the worker "process" dies with the failing sweep
                    self.alive = False
                if sweep_span is not None:
                    job.span = sweep_span.end(
                        "error", error=f"{type(exc).__name__}: {exc}"
                    )
                job.error = exc
                job.event.set()
                if not self.alive:
                    return
            else:
                if sweep_span is not None:
                    job.span = sweep_span.end("ok")
                job.value = value
                job.event.set()
            self.last_beat = _monotonic()
        self.alive = False


# --------------------------------------------------------------------- #
# the ladder


@dataclass(frozen=True)
class LadderConfig:
    """Tuning knobs for a :class:`DegradationLadder`.

    ``workers`` is the replica count per shard (the thread executor runs
    exactly one).  ``sweep_deadline_s`` is the per-sweep response
    deadline (stall detection); ``None`` takes the executor's default,
    1 s for threads and 10 s for processes.  A replica slot's restart
    backoff doubles per consecutive failure from ``restart_backoff_s``
    up to ``restart_backoff_max_s`` and resets on success.
    """

    workers: int = 1
    sweep_deadline_s: "float | None" = None
    restart_backoff_s: float = 0.02
    restart_backoff_max_s: float = 1.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fallback_breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(failure_threshold=2, recovery_s=0.5)
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.sweep_deadline_s is not None and self.sweep_deadline_s <= 0:
            raise ValueError("sweep_deadline_s must be positive")
        if self.restart_backoff_s < 0 or self.restart_backoff_max_s < 0:
            raise ValueError("restart backoffs must be non-negative")


class _Shard:
    """Ladder-side state for one ``(kind, n)`` shard.

    Replica slot ``i`` holds a live worker handle in ``workers[i]`` or
    ``None``; ``spawned[i]`` marks a slot that has held a worker, so
    filling it again is a restart.  ``depth`` counts the sweeps handed
    off and not yet finished.
    """

    def __init__(self, key, config: LadderConfig):
        slots = config.workers
        self.key = key
        self.label = f"{key[0]}:{key[1]}"
        self.cond = threading.Condition(threading.Lock())
        self.workers: list = [None] * slots
        self.spawned = [False] * slots
        self.failures = [0] * slots
        self.retry_at = [0.0] * slots
        self.depth = 0
        self.breaker = CircuitBreaker(config.breaker)
        self.fallback_breaker = CircuitBreaker(config.fallback_breaker)
        self.fallback_engine = None
        self.restarts = 0
        self.check_failures = 0
        self.quarantines = 0
        self.served = {"worker": 0, "fallback": 0}

    def live(self) -> int:
        return sum(1 for w in self.workers if w is not None and w.alive)

    def lagging(self) -> bool:
        """Does a slot that lost its worker still wait for a new one?"""
        return any(
            s and w is None for s, w in zip(self.spawned, self.workers)
        )


class DegradationLadder:
    """worker → fallback → cache-only → shed, over one kind of worker handle.

    An executor subclass supplies :meth:`_spawn` (build a ready worker
    handle for a replica slot) and :attr:`default_deadline_s`.  A handle
    has ``worker_id``, ``slot``, ``pid``, ``alive``, ``busy`` and
    ``sweeps`` attributes and ``run(indices, deadline_s, parent_span)``,
    ``kill()``, ``stale()`` and ``quarantine()`` methods.

    ``service`` supplies the engine settings workers and the fallback
    are built from; ``chaos`` is an optional injection policy (see
    :mod:`repro.serve.chaos`) that worker handles consult on every sweep
    and the fallback rung on its own; ``max_in_flight`` bounds the
    sweeps handed off per shard before admission sheds (``None``: no
    bound).
    """

    default_deadline_s: float

    def __init__(
        self,
        config: LadderConfig | None = None,
        service: ServiceConfig | None = None,
        *,
        chaos=None,
        tracer: Tracer | None = None,
        max_in_flight: int | None = None,
    ):
        self.config = config or LadderConfig()
        self.service = service or ServiceConfig()
        self.chaos = chaos
        self.tracer = tracer
        self.max_in_flight = max_in_flight
        self.deadline_s = self.config.sweep_deadline_s or self.default_deadline_s
        self._lock = threading.Lock()
        self._shards: dict[tuple, _Shard] = {}
        self._worker_ids = itertools.count()
        self._closed = False

    def _spawn(self, key, slot: int, worker_id: int):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # admission

    def admission_gate(self, key) -> None:
        """Per-shard backpressure and cache-only veto (lock-free when healthy).

        Raises :class:`~repro.errors.ServiceOverloadedError` once the
        shard has ``max_in_flight`` sweeps in flight — the wire
        protocol's ``OVERLOADED`` — and
        :class:`~repro.errors.ServiceDegradedError` when both breakers
        are open.  A shard nobody has used yet admits unconditionally.
        """
        shard = self._shards.get(key)
        if shard is None:
            return
        depth, limit = shard.depth, self.max_in_flight
        if limit is not None and depth >= limit:
            raise ServiceOverloadedError(
                f"shard {key} has {depth} sweeps in flight (limit {limit}); "
                "request shed",
                queue_depth=depth,
                limit=limit,
            )
        if self.mode_for(key) == "cache_only":
            raise ServiceDegradedError(
                f"shard {key} is in cache-only mode; request shed",
                mode="cache_only",
                shard=key,
            )

    def track(self, key, step: int) -> None:
        """Count ``step`` sweeps in (+1) or out (−1) of ``key``'s
        backpressure bound: a sweep counts from its hand-off to the
        executor, not from when a thread starts running it."""
        shard = self._shard(key)
        with shard.cond:
            shard.depth += step
            depth = shard.depth
        if _metrics.REGISTRY.enabled:
            _DEPTH.set(depth, shard=shard.label)

    # ------------------------------------------------------------------ #
    # the ladder

    def execute(self, key, indices, span: Span | None = None):
        """Run one sweep of ``indices`` → ``(perms, mode)``; raises when
        fully degraded.

        ``indices`` are the batch's per-lane indices, in lane order, for
        either kind of shard.  ``mode`` is the rung that served it
        (``"worker"`` or ``"fallback"``).  When every rung is
        exhausted the sweep fails with
        :class:`~repro.errors.ServiceDegradedError` — never with a
        wrong result: both rungs are oracle-checked before returning.

        ``span`` is the enclosing (sampled) batch span: every ladder
        step taken for this sweep — worker attempts, failovers, worker
        restarts, check failures, the fallback rung — is attached as a
        child, so one ``trace_id`` tells the sweep's whole story.
        """
        shard = self._shard(key)
        worker = self._acquire(shard, span)
        if worker is not None:
            perms, exc = self._attempt(
                shard,
                "worker",
                lambda child: worker.run(indices, self.deadline_s, child),
                indices,
                span,
                worker_id=worker.worker_id,
                replica=worker.slot,
            )
            if exc is None:
                self._release(shard, worker)
                return perms, "worker"
            self._on_worker_failure(shard, worker, exc, span)
            if _metrics.REGISTRY.enabled:
                _FAILOVERS.inc(shard=shard.label)
        return self._run_fallback(shard, indices, span), "fallback"

    def _attempt(self, shard: _Shard, rung: str, run, indices, parent, **attrs):
        """One rung's sweep, checked → ``(perms, None)`` or ``(None, exc)``."""
        span = (
            parent.child(
                "serve.worker_attempt" if rung == "worker" else "serve.fallback",
                shard=str(shard.key),
                **attrs,
            )
            if parent is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            perms = run(span)
            check_served_batch(perms, indices, shard.key[0])
        except Exception as exc:
            if span is not None:
                span.end("error", error=f"{type(exc).__name__}: {exc}")
            return None, exc
        if span is not None:
            span.end("ok")
        if _metrics.REGISTRY.enabled:
            _SWEEP_DIGEST.observe(
                time.perf_counter() - t0, shard=shard.label, rung=rung
            )
        return perms, None

    def _run_fallback(self, shard: _Shard, indices, span: Span | None):
        """The checked in-process rung; raises ``ServiceDegradedError`` past it."""
        with shard.cond:
            allowed = not self._closed and shard.fallback_breaker.allow()
            if allowed and shard.fallback_engine is None:
                shard.fallback_engine = self._fallback_engine(shard.key)
        if allowed:
            perms, exc = self._attempt(
                shard,
                "fallback",
                lambda child: self._fallback_sweep(shard, indices),
                indices,
                span,
            )
            convicted = isinstance(exc, FaultDetectedError)
            with shard.cond:
                if exc is None:
                    shard.fallback_breaker.record_success()
                    shard.served["fallback"] += 1
                else:
                    shard.fallback_breaker.record_failure()
                    if convicted:
                        shard.check_failures += 1
            self._publish_breakers(shard)
            if exc is None:
                return perms
            if convicted:
                self._note_check_failure(shard, exc, path="fallback", parent=span)
        else:
            self._publish_breakers(shard)
        raise ServiceDegradedError(
            f"shard {shard.key} is degraded to cache-only mode "
            "(worker and fallback rungs unavailable)",
            mode="cache_only",
            shard=shard.key,
        )

    def _fallback_sweep(self, shard: _Shard, indices):
        plan = (
            self.chaos.plan_fallback(shard.key) if self.chaos is not None else None
        )
        perms = shard.fallback_engine.run(indices)
        return perms if plan is None else plan.apply(perms)

    @staticmethod
    def _fallback_engine(key):
        kind, n = key
        return FunctionalConverterEngine(n) if kind == "converter" else make_engine(kind, n)

    # ------------------------------------------------------------------ #
    # replica management

    def _acquire(self, shard: _Shard, span: Span | None):
        """The sweep's worker (marked busy), or ``None`` to fail over now.

        A sweep waits — up to the sweep deadline — only for a replica
        busy with another sweep.  It never waits out a restart backoff:
        with no replica idle or busy and no slot due for a spawn (or the
        breaker open, or the ladder closed) the worker rung is skipped
        at once.  A slot whose worker was retired is refilled by the
        first sweep after its backoff, before an idle replica is reused;
        an unused slot is filled only when no replica is idle.
        """
        worker = None
        with shard.cond:
            end = _monotonic() + self.deadline_s
            while not self._closed and shard.breaker.allow():
                worker, slot, busy = self._scan_locked(shard)
                if slot is not None:
                    worker = self._start_locked(shard, slot, span)
                left = end - _monotonic()
                if worker is not None or slot is not None or not busy or left <= 0:
                    break
                shard.cond.wait(left)
        return worker

    def _scan_locked(self, shard: _Shard):
        """``(idle worker marked busy, slot due for a spawn, any busy)``."""
        idle = grow = None
        busy = False
        for i, worker in enumerate(shard.workers):
            if worker is not None and not worker.busy:
                reason = (
                    "crash" if not worker.alive
                    else "heartbeat" if worker.stale()
                    else None
                )
                if reason is None:
                    idle = idle or worker
                    continue
                # found dead or stuck while idle
                self._retire_locked(shard, worker, reason)
                worker.kill()
            if shard.workers[i] is not None:
                busy = True
            elif _monotonic() >= shard.retry_at[i]:
                if shard.spawned[i]:
                    return None, i, busy  # replace a retired worker
                grow = i if grow is None else grow
        if idle is not None:
            idle.busy = True
            return idle, None, True
        return None, grow, busy

    def _start_locked(self, shard: _Shard, slot: int, span: Span | None):
        """Spawn a worker into ``slot`` → it (marked busy), or ``None``."""
        worker_id = next(self._worker_ids)
        try:
            worker = self._spawn(shard.key, slot, worker_id)
        except Exception as exc:
            self._backoff_locked(shard, slot)
            if _metrics.REGISTRY.enabled:
                _WORKER_RESTARTS.inc(shard=shard.label, reason="spawn_failed")
            self._event(
                "serve.worker_restart",
                {"shard": str(shard.key), "outcome": "spawn_failed"},
                error=f"{type(exc).__name__}: {exc}",
                parent=span,
            )
            return None
        respawn = shard.spawned[slot]
        shard.workers[slot] = worker
        shard.spawned[slot] = True
        worker.busy = True
        if _metrics.REGISTRY.enabled:
            _LIVE_WORKERS.set(shard.live(), shard=shard.label)
        if respawn:
            shard.restarts += 1
            if _metrics.REGISTRY.enabled:
                _WORKER_RESTARTS.inc(shard=shard.label, reason="respawn")
            self._event(
                "serve.worker_restart",
                {
                    "shard": str(shard.key),
                    "worker_id": worker_id,
                    "restarts": shard.restarts,
                },
                parent=span,
            )
        return worker

    def _release(self, shard: _Shard, worker) -> None:
        """A served sweep: free the worker, close the books on success."""
        with shard.cond:
            worker.busy = False
            worker.sweeps += 1
            shard.failures[worker.slot] = 0
            shard.breaker.record_success()
            shard.served["worker"] += 1
            shard.cond.notify_all()
        self._publish_breakers(shard)
        if _metrics.REGISTRY.enabled:
            _WORKER_SWEEPS.inc(shard=shard.label, replica=str(worker.slot))

    def _on_worker_failure(self, shard: _Shard, worker, exc, span) -> None:
        """Retire a failed worker; a convicted one is quarantined first."""
        convicted = isinstance(exc, FaultDetectedError)
        evicted = worker.quarantine() if convicted else None
        reason = (
            "check_failure" if convicted
            else "stall" if isinstance(exc, WorkerStalledError)
            else "crash" if isinstance(exc, WorkerCrashedError)
            else "error"
        )
        with shard.cond:
            if convicted:
                shard.check_failures += 1
                if evicted is not None:
                    shard.quarantines += 1
            self._retire_locked(shard, worker, reason)
        worker.kill()
        if convicted:
            if _metrics.REGISTRY.enabled and evicted is not None:
                _QUARANTINES.inc(shard=shard.label)
            self._note_check_failure(
                shard, exc, path="worker", evicted=evicted or 0, parent=span
            )
        else:
            self._event(
                "serve.failover",
                {"shard": str(shard.key), "reason": reason},
                error=f"{type(exc).__name__}: {exc}",
                parent=span,
            )

    def _retire_locked(self, shard: _Shard, worker, reason: str) -> None:
        """Take a worker out of its slot and back the slot off (lock
        held); the caller kills it."""
        if shard.workers[worker.slot] is worker:
            shard.workers[worker.slot] = None
        worker.busy = False
        self._backoff_locked(shard, worker.slot)
        shard.cond.notify_all()
        if _metrics.REGISTRY.enabled:
            _WORKER_RESTARTS.inc(shard=shard.label, reason=reason)
            _LIVE_WORKERS.set(shard.live(), shard=shard.label)

    def _backoff_locked(self, shard: _Shard, slot: int) -> None:
        shard.failures[slot] += 1
        shard.retry_at[slot] = _monotonic() + retry_backoff(
            shard.failures[slot],
            self.config.restart_backoff_s,
            cap=self.config.restart_backoff_max_s,
        )
        shard.breaker.record_failure()

    def _note_check_failure(
        self,
        shard: _Shard,
        exc: FaultDetectedError,
        path: str,
        evicted: int = 0,
        parent: Span | None = None,
    ) -> None:
        kind = (
            "rank_oracle"
            if type(exc).__name__ == "SilentCorruptionError"
            else "bijectivity"
        )
        if _metrics.REGISTRY.enabled:
            _CHECK_FAILURES.inc(shard=shard.label, kind=kind)
        self._event(
            "serve.check_failure",
            {
                "shard": str(shard.key),
                "path": path,
                "kind": kind,
                "quarantined_kernels": evicted,
            },
            error=str(exc),
            parent=parent,
        )

    # ------------------------------------------------------------------ #
    # introspection

    def mode_for(self, key) -> str:
        """The shard's ladder rung: ``full`` / ``degraded`` / ``cache_only``.

        Called by the admission gate on *every* request, so the healthy
        path is lock-free: a dict read and one attribute read, both
        GIL-atomic.  A closed breaker (``_opened_at is None``) means the
        worker rung is up; only a shard whose breaker has opened pays
        for the locked state walk.  The read may be one transition stale
        — harmless, because :meth:`execute` re-evaluates the ladder
        authoritatively under the shard lock.
        """
        shard = self._shards.get(key)
        if shard is None or shard.breaker._opened_at is None:
            return "full"
        with shard.cond:
            return self._mode_locked(shard)

    @staticmethod
    def _mode_locked(shard: _Shard) -> str:
        if shard.breaker.allow():
            return "full"
        return "degraded" if shard.fallback_breaker.allow() else "cache_only"

    def lagging(self) -> list:
        """Keys of shards not back at full strength: below mode ``full``,
        or with a retired worker not yet replaced."""
        out = []
        for shard in self._all_shards():
            with shard.cond:
                if self._mode_locked(shard) != "full" or shard.lagging():
                    out.append(shard.key)
        return out

    def stats(self) -> dict:
        shards = {}
        for s in self._all_shards():
            with s.cond:
                live = s.live()
                shards[str(s.key)] = {
                    "mode": self._mode_locked(s),
                    "breaker": s.breaker.state,
                    "fallback_breaker": s.fallback_breaker.state,
                    "breaker_trips": s.breaker.trips + s.fallback_breaker.trips,
                    "restarts": s.restarts,
                    "check_failures": s.check_failures,
                    "quarantines": s.quarantines,
                    "served": dict(s.served),
                    "workers_alive": live,
                    "worker_alive": live > 0,
                    "depth": s.depth,
                }
        rows = shards.values()
        totals = {
            name: sum(r[name] for r in rows)
            for name in (
                "restarts",
                "check_failures",
                "quarantines",
                "breaker_trips",
                "workers_alive",
            )
        }
        for rung in ("worker", "fallback"):
            totals[f"served_{rung}"] = sum(r["served"][rung] for r in rows)
        return {"shards": shards, **totals}

    def worker_rows(self) -> list[dict]:
        """Per-worker rows: the ``obs top`` worker table."""
        rows = []
        for s in self._all_shards():
            with s.cond:
                rows.extend(
                    {
                        "shard": s.label,
                        "replica": w.slot,
                        "pid": w.pid,
                        "alive": w.alive,
                        "busy": w.busy,
                        "sweeps": w.sweeps,
                        "restarts": s.restarts,
                    }
                    for w in s.workers
                    if w is not None
                )
        return rows

    def health(self) -> dict:
        """The ``/health`` document: ``ok`` unless a shard has no live
        worker (an untouched ladder has no shards and is healthy)."""
        shards = {}
        for s in self._all_shards():
            with s.cond:
                shards[s.label] = {
                    "alive": s.live(),
                    "replicas": len(s.workers),
                    "breaker": s.breaker.state,
                }
        ok = all(info["alive"] for info in shards.values())
        return {
            "status": "ok" if ok else "degraded",
            "shards": shards,
            "workers": self.worker_rows(),
        }

    # ------------------------------------------------------------------ #
    # lifecycle and internals

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._all_shards():
            with shard.cond:
                workers = [w for w in shard.workers if w is not None]
                shard.workers = [None] * len(shard.workers)
                shard.cond.notify_all()
            for worker in workers:
                worker.kill()

    def _shard(self, key) -> _Shard:
        shard = self._shards.get(key)
        if shard is None:
            with self._lock:
                shard = self._shards.get(key)
                if shard is None:
                    shard = self._shards[key] = _Shard(key, self.config)
        return shard

    def _all_shards(self) -> list[_Shard]:
        with self._lock:
            return list(self._shards.values())

    def _publish_breakers(self, shard: _Shard) -> None:
        if not _metrics.REGISTRY.enabled:
            return
        _BREAKER_STATE.set_enum(
            shard.breaker.state, BREAKER_STATES, shard=shard.label, path="worker"
        )
        _BREAKER_STATE.set_enum(
            shard.fallback_breaker.state,
            BREAKER_STATES,
            shard=shard.label,
            path="fallback",
        )

    def _event(
        self,
        name: str,
        attrs: dict,
        error: str | None = None,
        parent: Span | None = None,
    ) -> None:
        """One finished event-span: a child of ``parent``, else adopted.

        With a ``parent`` (the sampled batch span) the event joins that
        trace directly; without one — unsampled batch, or ladder
        housekeeping outside any sweep — it becomes its own adopted root
        so the event is still never lost.
        """
        if parent is not None:
            parent.child(name, **attrs).end(
                "ok" if error is None else "error", error=error
            )
            return
        if self.tracer is None:
            return
        span = Span(name, attrs)
        span.end("ok" if error is None else "error", error=error)
        self.tracer.adopt(span)


class SweepSupervisor(DegradationLadder):
    """The thread executor: one :class:`ShardWorker` per shard."""

    default_deadline_s = 1.0

    def __init__(self, config: LadderConfig | None = None, service=None, **kwargs):
        super().__init__(config, service, **kwargs)
        if self.config.workers != 1:
            raise ValueError("the thread executor runs one worker per shard")

    # Bound here, not inherited: perfbench/spans.py times each
    # executor's own ``execute`` by patching it in the class __dict__.
    execute = DegradationLadder.execute

    def _spawn(self, key, slot: int, worker_id: int) -> ShardWorker:
        engine = make_engine(key[0], key[1], self.service.engine)
        return ShardWorker(key, worker_id, engine, chaos=self.chaos, slot=slot)


# --------------------------------------------------------------------- #
# the services


class LadderService(PermutationService):
    """:class:`PermutationService` whose sweeps walk a :class:`DegradationLadder`.

    The admission/batching/caching hot path is inherited unchanged; the
    execution seam (:meth:`_run_sweep`) routes each closed batch through
    the ladder, and admission (:meth:`_degrade_gate`) consults it —
    cache hits always serve, a full shard sheds with
    ``ServiceOverloadedError``, a cache-only shard sheds misses with
    ``ServiceDegradedError``.  :meth:`_sweep` is where an executor may
    hand the batch to another thread; here it runs on the caller's.
    """

    stats_key: str

    def __init__(self, config: ServiceConfig, ladder: DegradationLadder, tracer):
        self.ladder = ladder
        super().__init__(config, tracer=tracer)

    def close(self) -> None:
        # the base close drains every in-flight sweep first, so no
        # worker is killed under a live sweep
        super().close()
        self.ladder.close()

    def stats(self) -> dict:
        stats = super().stats()
        stats[self.stats_key] = self.ladder.stats()
        return stats

    def _degrade_gate(self, workload: str, key: tuple[str, int]) -> None:
        self.ladder.admission_gate(key)

    def _execute(self, batch) -> None:
        self.ladder.track(batch.key, 1)
        self._sweep(batch)

    def _sweep(self, batch) -> None:
        PermutationService._execute(self, batch)

    def _run_sweep(self, batch, kind: str, n: int, span: Span | None = None):
        try:
            return self.ladder.execute(batch.key, batch_indices(batch), span)
        finally:
            # out of the count before any future resolves, so a client
            # answered by this sweep never finds it still counted
            self.ladder.track(batch.key, -1)


class SupervisedService(LadderService):
    """The ladder over worker threads (``serve --supervised``)."""

    stats_key = "supervisor"

    def __init__(
        self,
        config: ServiceConfig | None = None,
        ladder: LadderConfig | None = None,
        chaos=None,
        tracer: Tracer | None = None,
    ):
        config = config or ServiceConfig()
        self.supervisor = SweepSupervisor(ladder, config, chaos=chaos, tracer=tracer)
        super().__init__(config, self.supervisor, tracer)
