"""The permutation-serving hot path: admission, batching, execution.

:class:`PermutationService` turns the compiled bit-packed engine into a
request server.  Every request enters through one call,
:meth:`PermutationService.submit_wide`: ``count`` lanes of one
``(workload, n)`` sweep behind a single future (a one-lane caller is a
``count=1`` entry).  The life of a request:

1. **Validate** — :func:`~repro.serve.model.validate_wide`; malformed
   requests raise :class:`~repro.errors.InvalidRequestError` before
   touching any shared state.
2. **Resolve randomness** — a ``random_perm`` draws each lane's index
   from the service's per-``n`` scaled-LFSR source (§II-C: "the index
   generator is simply a random number generator"), after which it is
   an unrank; a ``shuffle`` folds each lane's ``n − 1`` stage draws
   (§III) into one index.  Every lane is then an index and every engine
   a pure function of it, so served rows depend on the seed and the
   admission order only, not on the executor, worker or rung.
3. **Cache** — a one-lane deterministic result is looked up in a
   bounded LRU keyed ``(workload, n, index)``; a hit returns a
   completed future without ever entering the batcher.
4. **Admit** — if the entry's lanes would take the batcher past
   ``max_queue_depth`` queued lanes the request is *shed* with
   :class:`~repro.errors.ServiceOverloadedError` (admission control: the
   queue, and with it every accepted request's latency, stays bounded;
   an entry that finds the queue empty always admits).
5. **Batch** — the entry joins its ``(engine, n)`` group in the
   micro-batcher.  The group flushes when it reaches ``max_batch`` lanes
   (executed inline on the submitting thread — no handoff latency) or
   when the group's deadline expires (executed by the dispatcher
   thread).
6. **Sweep** — the whole batch rides one compiled sweep; each entry's
   rows resolve its future, with per-stage timings and the batch id
   attached to every response.

Everything observable is recorded when the global metrics registry is
enabled: request counters by workload/outcome, queue-depth gauge, lane
histogram, per-stage latency histograms on the sub-millisecond
:data:`~repro.obs.metrics.FAST_LATENCY_BUCKETS`, and cache hit/miss
counters, and an end-to-end latency *digest*
(:class:`~repro.obs.digests.LatencyDigest` per workload/mode) whose
log-bucketed grid keeps p99/p99.9 honest where fixed edges cannot.
With a :class:`~repro.obs.tracing.Tracer` attached, every *sampled*
batch (the tracer's sampler decides once per batch) becomes a
``serve.batch`` span with one child span per request, and the batch
span is threaded through :meth:`PermutationService._run_sweep` so
supervised tiers hang their failover/fallback spans off the same
``trace_id`` — a response's ``batch_id`` links it to its exact sweep in
the trace.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

import numpy as np

from repro.core.factorial import factorial, index_width
from repro.core.knuth import KnuthShuffleCircuit
from repro.errors import (
    ServiceDegradedError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.hdl.engine import resolve_backend
from repro.obs import metrics as _metrics
from repro.obs.metrics import FAST_LATENCY_BUCKETS
from repro.obs.tracing import Span, Tracer
from repro.rng.lfsr import FibonacciLFSR, dense_seed
from repro.rng.scaled import ScaledRandomInteger
from repro.serve.batcher import Batch, MicroBatcher, PendingEntry
from repro.serve.cache import ResultCache
from repro.serve.engine import make_engine
from repro.serve.model import WideResponse, validate_wide

__all__ = [
    "CompletionFuture",
    "ServiceConfig",
    "PermutationService",
    "batch_indices",
]

# Injectable clock seam (monotonic), mirroring parallel.sharding: all
# deadline arithmetic goes through this so tests can drive it.
_monotonic = time.monotonic

_REQUESTS = _metrics.REGISTRY.counter(
    "repro_serve_requests_total",
    "serving requests by workload and outcome",
    ("workload", "outcome"),
)
_QUEUE_DEPTH = _metrics.REGISTRY.gauge(
    "repro_serve_queue_depth", "entries currently queued in the micro-batcher"
)
_BATCH_LANES = _metrics.REGISTRY.histogram(
    "repro_serve_batch_lanes",
    "lanes per executed batch",
    # spans every engine's sweep quantum: the compiled engine tops out
    # at one 64-bit word of lanes, the vector engine at 4096
    buckets=(1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096),
)
_STAGE_SECONDS = _metrics.REGISTRY.histogram(
    "repro_serve_stage_seconds",
    "per-request serving stage latency (queued / sweep) in seconds; "
    "end-to-end totals live in repro_serve_latency_seconds",
    ("stage",),
    buckets=FAST_LATENCY_BUCKETS,
)
_CACHE_TOTAL = _metrics.REGISTRY.counter(
    "repro_serve_cache_total", "result cache lookups by result", ("result",)
)
_MODE_TOTAL = _metrics.REGISTRY.counter(
    "repro_serve_mode_total",
    "responses by serving mode (degradation-ladder rung)",
    ("mode",),
)
_LATENCY_DIGEST = _metrics.REGISTRY.digest(
    "repro_serve_latency_seconds",
    "end-to-end request latency digest (log-bucketed; p50/p90/p99/p99.9)",
    ("workload", "mode"),
)


class _TelemetryFlusher(threading.Thread):
    """Folds per-batch telemetry into the registry off the hot path.

    The dispatcher already walks every batch entry to build responses;
    the per-entry telemetry cost it pays is two list appends.  The
    expensive part — label resolution, histogram/digest folds, counter
    increments over those value lists — is handed over here as one
    record per batch and folded on this daemon thread, so a scrape sees
    the same numbers a few hundred microseconds later but the serving
    loop never waits on a bucket fold.  Records fold in submission
    order (single consumer, FIFO deque), and :meth:`close` drains the
    queue before returning, so anything observed after
    ``service.close()`` is complete and ordered.
    """

    def __init__(self) -> None:
        super().__init__(name="serve-telemetry", daemon=True)
        self._queue: deque[tuple] = deque()
        self._wake = threading.Event()
        self._stopping = False
        self.start()

    def put(self, record: tuple) -> None:
        self._queue.append(record)
        self._wake.set()

    def run(self) -> None:
        queue = self._queue
        while True:
            self._wake.wait()
            self._wake.clear()
            while queue:
                self._fold(queue.popleft())
            if self._stopping and not queue:
                return

    def close(self) -> None:
        """Stop the flusher after draining every queued record."""
        self._stopping = True
        self._wake.set()
        self.join()
        while self._queue:  # records enqueued after the final wake
            self._fold(self._queue.popleft())

    @staticmethod
    def _fold(record: tuple) -> None:
        (
            lanes,
            entries,
            front_misses,
            mode,
            sweep_s,
            queued_vals,
            workload_totals,
            pending,
        ) = record
        _BATCH_LANES.observe(lanes)
        _MODE_TOTAL.inc(entries, mode=mode)
        _STAGE_SECONDS.labels(stage="queued").observe_many(queued_vals)
        _STAGE_SECONDS.labels(stage="sweep").observe_n(sweep_s, entries)
        for wl, totals in workload_totals.items():
            _LATENCY_DIGEST.labels(workload=wl, mode=mode).observe_many(totals)
            _REQUESTS.inc(len(totals), workload=wl, outcome="ok")
        if front_misses:
            # entries that consulted the front cache at admission and
            # missed (hits resolve inline in submit_wide; entries with
            # count > 1 never consult the cache, so they are not counted)
            _CACHE_TOTAL.inc(front_misses, result="miss")
        _QUEUE_DEPTH.set(pending)


class CompletionFuture:
    """Single-assignment result slot for one served request.

    Covers the slice of :class:`concurrent.futures.Future` the service
    needs (``done`` / ``result`` / errors raised on ``result``), but
    shares the service's condition variable instead of allocating a
    private reentrant lock per instance — that per-``Future`` lock
    allocation was the single largest per-request overhead on the
    batched hot path.  Resolution happens under the shared condition
    (:meth:`_finish`), so one ``notify_all`` settles a whole batch.
    """

    __slots__ = ("_cond", "_value", "_exc", "_done", "_callbacks")

    def __init__(self, cond: threading.Condition) -> None:
        self._cond = cond
        self._value: WideResponse | None = None
        self._exc: BaseException | None = None
        self._done = False
        self._callbacks: list | None = None

    def done(self) -> bool:
        return self._done

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` once resolved — immediately if already done.

        The bridge the asyncio front end needs: instead of parking a
        waiter thread per in-flight frame, the connection handler hangs
        a ``loop.call_soon_threadsafe`` trampoline here and the batch
        that resolves the future pokes the event loop.  Callbacks run on
        the *resolving* thread (dispatcher / sweep executor) with the
        service condition held, so they must be fast and non-blocking;
        exceptions are swallowed — a callback must never be able to kill
        the batch that happened to resolve it.
        """
        with self._cond:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)

    def _finish(self, value: WideResponse | None, exc: BaseException | None) -> None:
        """Resolve; the caller must hold the shared condition."""
        self._value = value
        self._exc = exc
        self._done = True
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for fn in callbacks:
                try:
                    fn(self)
                except Exception:  # noqa: BLE001 - see add_done_callback
                    pass

    def result(self, timeout: float | None = None) -> WideResponse:
        # ``_done`` is written under the condition but read here without
        # it: the flag flips once, and a stale False only sends us down
        # the locked slow path.
        if not self._done:
            with self._cond:
                if timeout is None:
                    while not self._done:
                        self._cond.wait()
                else:
                    deadline = _monotonic() + timeout
                    while not self._done:
                        left = deadline - _monotonic()
                        if left <= 0:
                            raise FutureTimeoutError()
                        self._cond.wait(left)
        if self._exc is not None:
            raise self._exc
        return self._value  # type: ignore[return-value]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`PermutationService`.

    ``engine`` selects the simulation backend through the registry
    (:mod:`repro.hdl.engine`); the engine's capability record sets the
    *sweep quantum* — the lane capacity of one sweep.  ``max_batch``
    defaults to that quantum and is capped at it: admitting more
    requests than one sweep carries would only add deadline latency.
    With the default ``"auto"`` engine the quantum is the compiled
    engine's 63 lanes (one 64-bit word per packed lane-set);
    ``engine="vector"`` lifts it to 4096.  ``batch_deadline_s`` bounds
    how long a lone request waits for company; ``max_queue_depth``
    (default 4x the quantum) bounds how many requests may be queued
    before admission control sheds.  ``max_n`` bounds the netlists one
    request can make the service compile.
    """

    max_batch: "int | None" = None
    batch_deadline_s: float = 0.002
    max_queue_depth: "int | None" = None
    cache_capacity: int = 4096
    max_n: int = 12
    rng_seed: int = 0
    engine: str = "auto"

    @property
    def sweep_quantum(self) -> int:
        """Lane capacity of one sweep under the configured engine."""
        return resolve_backend(self.engine).capabilities.sweep_lanes

    def __post_init__(self) -> None:
        quantum = self.sweep_quantum  # validates the engine name too
        if self.max_batch is None:
            object.__setattr__(self, "max_batch", quantum)
        if self.max_queue_depth is None:
            object.__setattr__(self, "max_queue_depth", 4 * quantum)
        assert self.max_batch is not None and self.max_queue_depth is not None
        if not (1 <= self.max_batch <= quantum):
            raise ValueError(f"max_batch must be in 1..{quantum}")
        if self.batch_deadline_s < 0:
            raise ValueError("batch_deadline_s must be non-negative")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.max_n < 1:
            raise ValueError("max_n must be positive")


class PermutationService:
    """Batch-serving front end over the compiled permutation engines."""

    def __init__(self, config: ServiceConfig | None = None, tracer: Tracer | None = None):
        self.config = config or ServiceConfig()
        self.tracer = tracer
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._batcher = MicroBatcher(
            self.config.max_batch, self.config.batch_deadline_s
        )
        self._cache = ResultCache(self.config.cache_capacity)
        self._engines: dict[tuple[str, int], object] = {}
        # per-group execution locks: batches of one engine run serially
        # (the interpreter behind engine="interp" reuses scratch
        # buffers), batches of different engines in parallel
        self._engine_locks: dict[tuple[str, int], threading.Lock] = {}
        self._index_sources: dict[tuple[str, int], object] = {}  # bound draws
        self._next_request_id = 0
        self._shed = 0
        self._degraded_shed = 0
        self._completed = 0
        self._closed = False
        # started lazily by _execute on the first metrics-enabled batch;
        # only the dispatcher thread creates it, so no lock is needed
        self._telemetry: _TelemetryFlusher | None = None
        self._dispatcher = threading.Thread(
            target=self._run_dispatcher, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # lifecycle

    def close(self) -> None:
        """Drain every queued batch, then stop the dispatcher.

        Shutdown settles **every** pending future: the dispatcher's
        final pass flushes whatever the batcher holds (each entry
        resolves with its response, or with the error its batch hit),
        and any entry still queued after the dispatcher exits — which
        can only happen if the dispatcher itself died — is failed with
        :class:`~repro.errors.ServiceShutdownError`.  No waiter is ever
        left hung on a closed service.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        # pooled tiers run batches on executor threads: wait for every
        # in-flight sweep to settle its futures before declaring the
        # leftovers dead and closing telemetry
        self._drain_executors()
        self._fail_pending(ServiceShutdownError("service closed before execution"))
        if self._telemetry is not None:
            # dispatcher is down, so no new records: drain and stop
            self._telemetry.close()

    def _fail_pending(self, exc: BaseException) -> None:
        """Settle every still-queued entry with ``exc`` (shutdown belt)."""
        with self._cond:
            leftovers = self._batcher.take_all()
            if not leftovers:
                return
            for batch in leftovers:
                for e in batch.entries:
                    e.future._finish(None, exc)
            self._cond.notify_all()
        if _metrics.REGISTRY.enabled:
            for batch in leftovers:
                for e in batch.entries:
                    _REQUESTS.inc(workload=e.request.workload, outcome="error")

    def __enter__(self) -> "PermutationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission

    def submit_wide(
        self,
        workload: str,
        n: int,
        count: int,
        indices=None,
    ) -> CompletionFuture:
        """Admit one request: ``count`` lanes behind one future.

        The only way work enters the service.  ``unrank`` supplies
        ``count`` indices; ``random_perm`` and ``shuffle`` supply none
        (the service draws them here, before the entry is queued).  The
        request becomes a single batcher entry occupying ``count`` sweep
        lanes, so the admission cost (validation, locking, future
        allocation) is paid once per request however many lanes it
        carries — one socket frame is one call.  The future resolves to a
        :class:`~repro.serve.model.WideResponse` whose ``permutations``
        is a ``(count, n)`` array; it resolves when the entry's batch
        executes, and a cache hit returns an already-resolved future.

        Raises :class:`~repro.errors.InvalidRequestError` on malformed
        input, :class:`~repro.errors.ServiceOverloadedError` when the
        queue has no room for ``count`` more lanes (the request was shed
        — back off and retry), :class:`~repro.errors.ServiceDegradedError`
        when a supervised tier has degraded this request's shard past
        the rung that could serve it, and
        :class:`~repro.errors.ServiceShutdownError` on a closed service.
        A ``count == 1`` deterministic request checks the front result
        cache; wider requests skip it — a sweep costs about the same at
        any width, so a cache only saves one when every lane hits.
        """
        validate_wide(
            workload, n, count, indices, self.config.max_n, self.config.max_batch
        )
        metrics_on = _metrics.REGISTRY.enabled
        t_submit = time.perf_counter()
        run_inline: list[Batch] = []
        with self._cond:
            if self._closed:
                raise ServiceShutdownError("service is closed")
            request_id = self._next_request_id
            self._next_request_id += 1
            key = ("shuffle", n) if workload == "shuffle" else ("converter", n)
            if workload == "unrank":
                idx = tuple(int(i) for i in indices)
            else:
                idx = tuple(self._draw_index(workload, n) for _ in range(count))
            future = CompletionFuture(self._cond)
            if count == 1 and workload != "shuffle":
                cached = self._cache.get(("unrank", n, idx[0]))
                if cached is not None:
                    if metrics_on:
                        _CACHE_TOTAL.inc(result="hit")
                        _REQUESTS.inc(workload=workload, outcome="ok")
                    total = time.perf_counter() - t_submit
                    # the future is not visible to any other thread yet,
                    # so resolving it needs no notify
                    future._finish(
                        WideResponse(
                            request_id=request_id,
                            workload=workload,
                            n=n,
                            count=1,
                            indices=idx,
                            permutations=np.asarray([cached], dtype=np.int64),
                            batch_id=None,
                            lanes=0,
                            cached=True,
                            queued_s=0.0,
                            sweep_s=0.0,
                            total_s=total,
                            mode="cached",
                        ),
                        None,
                    )
                    if metrics_on:
                        _MODE_TOTAL.inc(mode="cached")
                        _LATENCY_DIGEST.observe(total, workload=workload, mode="cached")
                    return future
                # misses are counted at batch granularity in _execute:
                # every admitted one-lane converter entry was a miss here
            try:
                # cache hits (above) still serve from a degraded shard
                self._degrade_gate(workload, key)
            except ServiceDegradedError:
                self._degraded_shed += 1
                if metrics_on:
                    _REQUESTS.inc(workload=workload, outcome="degraded")
                raise
            except ServiceOverloadedError:
                self._shed += 1
                if metrics_on:
                    _REQUESTS.inc(workload=workload, outcome="shed")
                raise
            depth = self._batcher.pending
            # a lone entry always admits (liveness even when count
            # exceeds the depth limit); with company, shed on projected
            # lane depth so wide traffic respects the same bound
            if depth > 0 and depth + count > self.config.max_queue_depth:
                self._shed += 1
                if metrics_on:
                    _REQUESTS.inc(workload=workload, outcome="shed")
                raise ServiceOverloadedError(
                    f"queue depth {depth}+{count} over limit; request shed",
                    queue_depth=depth,
                    limit=self.config.max_queue_depth,
                )
            entry = PendingEntry(
                request=_AdmittedWide(request_id, workload, n, count, idx, t_submit),
                future=future,
                enqueued_at=_monotonic(),
                lanes=count,
            )
            run_inline = self._batcher.add(key, entry, entry.enqueued_at)
            if not run_inline and depth == 0:
                # The dispatcher only needs waking when it had nothing
                # to wait for: any later-opened group's deadline is by
                # construction later than the one it is already armed
                # on, so per-request notifies would be pure wakeup
                # overhead on the hot path.
                self._cond.notify_all()
        for batch in run_inline:
            self._execute(batch)
        return future

    # ------------------------------------------------------------------ #
    # statistics

    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self._next_request_id,
                "completed": self._completed,
                "shed": self._shed,
                "degraded_shed": self._degraded_shed,
                "queued": self._batcher.pending,
                "cache_hits": self._cache.hits,
                "cache_misses": self._cache.misses,
                "cache_entries": len(self._cache),
            }

    # ------------------------------------------------------------------ #
    # internals

    def _draw_index(self, workload: str, n: int) -> int:
        """One lane's random index in ``0..n!−1`` from the per-``(workload,
        n)`` source, in admission order (caller holds the lock).

        ``random_perm`` uses the paper's own index generator: a
        scaled-LFSR random integer with ``k = n!``, its LFSR 8 bits wider
        than the index (floored at 31) so the §III-A pigeonhole bias
        stays below 1/256.  ``shuffle`` folds one draw of each stage
        generator of a Knuth-shuffle circuit, re-seeded from a nonzero
        ``rng_seed``.
        """
        draw = self._index_sources.get((workload, n))
        if draw is None:
            salt = self.config.rng_seed
            if workload == "shuffle":
                circuit = KnuthShuffleCircuit(n)
                if salt:
                    circuit = KnuthShuffleCircuit(n, seeds=[
                        (s * 0x9E3779B9 + salt) % ((1 << w) - 1) + 1
                        for s, w in zip(circuit.seeds, circuit.widths)
                    ])
                draw = circuit.next_index
            else:
                m = max(31, index_width(n) + 8)
                draw = ScaledRandomInteger(
                    factorial(n),
                    lfsr=FibonacciLFSR(m, seed=dense_seed(m, salt=salt + n)),
                ).next_int
            self._index_sources[(workload, n)] = draw
        return draw()

    def _engine_lock(self, key: tuple[str, int]) -> threading.Lock:
        lock = self._engine_locks.get(key)
        if lock is None:
            lock = self._engine_locks.setdefault(key, threading.Lock())
        return lock

    def _degrade_gate(self, workload: str, key: tuple[str, int]) -> None:
        """Admission veto hook for degraded shards.

        The base service never degrades — every admitted request is
        served by its in-process engine — so this is a no-op.  The
        supervised tier overrides it to raise
        :class:`~repro.errors.ServiceDegradedError` for shards pinned in
        cache-only mode; the pooled tier additionally raises
        :class:`~repro.errors.ServiceOverloadedError` when the shard's
        worker queue is saturated (per-shard backpressure).
        """

    def _drain_executors(self) -> None:
        """Shutdown hook: wait for out-of-band batch executors.

        The base service executes batches on the submitting thread or
        the dispatcher, both already settled by the time ``close()``
        reaches this point — no-op.  The pooled tier overrides it to
        join its sweep-executor thread pool.
        """

    def _run_sweep(self, batch: Batch, kind: str, n: int, span: Span | None = None):
        """Execute one closed batch's sweep → ``(perms, mode)``.

        The execution seam of the serving layer: everything above it
        (admission, batching, futures, caching, per-request metrics) is
        shared between tiers, everything below it is how a sweep
        actually runs.  The base implementation runs the shard's memoised
        engine in-process (mode ``"direct"``); the supervised tier
        overrides it to route the sweep through its worker/fallback
        degradation ladder and returns the rung that served it.

        ``span`` is the batch's (sampled) trace span, or ``None`` for an
        unsampled batch: tiers attach their execution detail — worker
        attempts, failovers, fallback rungs — as children so the whole
        ladder shares the batch's ``trace_id``.
        """
        with self._lock:
            engine = self._engines.get(batch.key)
            if engine is None:
                engine = self._engines[batch.key] = make_engine(
                    kind, n, self.config.engine
                )
        with self._engine_lock(batch.key):
            return engine.run(batch_indices(batch)), "direct"

    def _run_dispatcher(self) -> None:
        """Deadline loop: flush groups whose batching window expired.

        The loop itself must never die with futures in flight: if
        anything escapes :meth:`_execute` (which already converts sweep
        failures into failed futures), the remaining queue is settled
        with :class:`~repro.errors.ServiceShutdownError` before the
        thread exits, so no waiter can hang on a dead dispatcher.
        """
        try:
            while True:
                with self._cond:
                    while True:
                        now = _monotonic()
                        due = (
                            self._batcher.take_all()
                            if self._closed
                            else self._batcher.take_due(now)
                        )
                        if due:
                            if _metrics.REGISTRY.enabled:
                                _QUEUE_DEPTH.set(self._batcher.pending)
                            break
                        if self._closed:
                            return
                        deadline = self._batcher.next_deadline()
                        self._cond.wait(
                            None if deadline is None else max(0.0, deadline - now)
                        )
                for batch in due:
                    self._execute(batch)
        except BaseException:  # pragma: no cover - dispatcher bug guard
            self._fail_pending(
                ServiceShutdownError("serving dispatcher died; request dropped")
            )
            raise

    def _execute(self, batch: Batch) -> None:
        """Run one closed batch through its engine and resolve futures."""
        metrics_on = _metrics.REGISTRY.enabled
        # Head-sampling happens here, once per batch: an unsampled batch
        # pays one sampler call and never constructs a span.
        span = (
            self.tracer.sampled_root(
                "serve.batch", batch_id=batch.batch_id, lanes=batch.lanes
            )
            if self.tracer is not None
            else None
        )
        kind, n = batch.key
        exec_start = time.perf_counter()
        try:
            perms, mode = self._run_sweep(batch, kind, n, span)
        except BaseException as exc:
            outcome = (
                "degraded" if isinstance(exc, ServiceDegradedError) else "error"
            )
            with self._cond:
                for e in batch.entries:
                    e.future._finish(None, exc)
                self._cond.notify_all()
            if metrics_on:
                by_workload: dict[str, int] = {}
                for e in batch.entries:
                    wl = e.request.workload
                    by_workload[wl] = by_workload.get(wl, 0) + 1
                for wl, c in by_workload.items():
                    _REQUESTS.inc(c, workload=wl, outcome=outcome)
            if span is not None:
                span.end("error", error=f"{type(exc).__name__}: {exc}")
                with self._lock:
                    self.tracer.adopt(span)
            return
        sweep_s = time.perf_counter() - exec_start
        done = time.perf_counter()
        responses = []
        front_misses = 0
        if metrics_on:
            # Per-entry telemetry is two list appends; everything else —
            # label resolution, histogram/digest folds, counter incs —
            # is handed to the _TelemetryFlusher thread as one record
            # per batch below the loop.  That discipline is what keeps
            # enabled-telemetry overhead inside the ≤5% serving budget
            # (see bench_serving's overhead assertion).
            queued_vals: list[float] = []
            workload_totals: dict[str, list[float]] = {}
        off = 0  # first sweep lane of the current entry
        for e in batch.entries:
            adm = e.request
            queued = max(0.0, exec_start - adm.submitted_at)
            total = done - adm.submitted_at
            # the entry's rows stay an ndarray slice — the socket
            # encoder packs them straight into wire bytes
            rows = perms[off : off + adm.count]
            off += adm.count
            resp = WideResponse(
                request_id=adm.request_id,
                workload=adm.workload,
                n=adm.n,
                count=adm.count,
                indices=adm.indices,
                permutations=rows,
                batch_id=batch.batch_id,
                lanes=batch.lanes,
                cached=False,
                queued_s=queued,
                sweep_s=sweep_s,
                total_s=total,
                mode=mode,
            )
            if kind == "converter" and adm.count == 1:
                front_misses += 1
            responses.append((e.future, resp))
            if metrics_on:
                queued_vals.append(queued)
                wt = workload_totals.get(adm.workload)
                if wt is None:
                    wt = workload_totals[adm.workload] = []
                wt.append(total)
            if span is not None:
                # pre-finished record children: the sweep already timed
                # the work, so the child skips all four clock reads
                span.child_record(
                    "serve.request",
                    wall_s=total,
                    request_id=adm.request_id,
                    workload=adm.workload,
                    n=adm.n,
                    batch_id=batch.batch_id,
                )
        if metrics_on:
            # one handoff per batch: mode and sweep time are uniform
            # within a batch, and the per-entry value lists fold into
            # the histograms/digests on the flusher thread (queue depth
            # is likewise sampled once per batch — a dashboard scrape
            # cannot tell the difference, the hot path can)
            if self._telemetry is None:
                self._telemetry = _TelemetryFlusher()
            self._telemetry.put(
                (
                    batch.lanes,
                    len(batch.entries),
                    front_misses,
                    mode,
                    sweep_s,
                    queued_vals,
                    workload_totals,
                    self._batcher.pending,
                )
            )
        with self._cond:
            if kind == "converter" and self._cache.capacity:
                for _, resp in responses:
                    if resp.count == 1:
                        # symmetric with the count==1 get in submit_wide;
                        # wider entries stay out of the front tier, and a
                        # shuffle's index would collide with this key
                        self._cache.put(
                            ("unrank", resp.n, resp.indices[0]),
                            tuple(int(v) for v in resp.permutations[0]),
                        )
            self._completed += len(responses)
            for future, resp in responses:
                future._finish(resp, None)
            self._cond.notify_all()
        if span is not None:
            # end + export outside the condition lock: adopt() walks and
            # serialises the whole span tree, and nothing below needs
            # the service state
            span.end("ok")
            self.tracer.adopt(span)


@dataclass(frozen=True)
class _AdmittedWide:
    """An admitted request: ``count`` lanes behind one future.

    ``indices`` are the lanes' server-resolved indices (a shuffle's are
    its folded stage draws); ``submitted_at`` is the ``perf_counter``
    submit time.
    """

    request_id: int
    workload: str
    n: int
    count: int
    indices: tuple[int, ...]
    submitted_at: float


def batch_indices(batch: Batch) -> list[int]:
    """Flatten a batch's entries into per-lane indices.

    Each entry contributes its ``count`` indices — the flat list lines
    up with the sweep's lane order, which is how ``_execute`` slices the
    result rows back out.
    """
    return [i for e in batch.entries for i in e.request.indices]
