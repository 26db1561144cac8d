"""Deterministic work decomposition and the fault-tolerant map-reduce runner.

Everything here is *deterministic by construction*: a job's result must
not depend on the worker count or on scheduling order.  That is achieved
by (a) contiguous index shards with a fixed boundary rule and (b) reducing
partial results in shard order, not completion order.

:func:`hardened_map_reduce` is the one runner: per-shard timeouts,
bounded retry with exponential backoff + jitter, recovery from
worker-process crashes (the *shard* is resubmitted to a fresh pool,
never the whole job), and an optional graceful-degradation mode that
returns a :class:`PartialResult` — the reduction over the shards that
succeeded plus a manifest of the ones that did not — instead of
aborting a long campaign for one bad shard.  With ``retries=0`` it is a
plain fail-fast map-reduce: the first worker failure aborts the job as a
:class:`~repro.errors.WorkerFailedError` carrying the failing shard id.

All deadline and backoff arithmetic uses the **monotonic clock**
(``time.monotonic``): a wall-clock adjustment (NTP step, DST, manual
``date``) mid-run can neither starve the timeout budget nor stretch a
backoff sleep.  The clock and sleep functions are module-level seams
(``_monotonic``/``_sleep``) so tests can drive them deterministically.

Observability: the hardened runner optionally takes a
:class:`~repro.obs.tracing.Tracer` — every shard attempt becomes a child
span of the caller's trace, with worker-side spans shipped back across
the pickle boundary — and an :class:`~repro.obs.events.EventSink` that
receives structured retry/timeout/crash events.  Attempt outcomes are
also counted in the global metrics registry when it is enabled.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Generic, Sequence, TypeVar

from repro.errors import ShardTimeoutError, WorkerFailedError
from repro.obs import metrics as _metrics
from repro.obs.digests import LatencyDigest
from repro.obs.tracing import Span

__all__ = [
    "ShardSpec",
    "index_shards",
    "hardened_map_reduce",
    "ShardFailure",
    "PartialResult",
    "default_workers",
    "retry_backoff",
]

# Injectable clock/sleep seams: ALL deadline + backoff arithmetic in this
# module goes through these, never through time.time().
_monotonic = time.monotonic
_sleep = time.sleep


def _sleep_until(deadline: float) -> None:
    """Sleep until the monotonic clock reaches ``deadline``.

    Loops on the remaining monotonic delta, so interrupted or short
    sleeps (and any wall-clock adjustment) cannot cut the wait short or
    stretch it.
    """
    while True:
        remaining = deadline - _monotonic()
        if remaining <= 0:
            return
        _sleep(remaining)


_SHARD_ATTEMPTS = _metrics.REGISTRY.counter(
    "repro_shard_attempts_total",
    "hardened map-reduce shard attempts by outcome",
    ("outcome",),
)
_SHARD_SECONDS = _metrics.REGISTRY.histogram(
    "repro_shard_seconds", "successful shard attempt duration (seconds)"
)
_SHARD_DIGEST = _metrics.REGISTRY.digest(
    "repro_shard_seconds_digest",
    "shard attempt duration digest, merged from worker-side sketches",
)

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous half-open index range ``[start, stop)``."""

    shard_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        return iter(range(self.start, self.stop))


def index_shards(total: int, shards: int) -> list[ShardSpec]:
    """Split ``range(total)`` into ``shards`` near-equal contiguous ranges.

    The first ``total mod shards`` shards get one extra element, so the
    decomposition is independent of anything but ``(total, shards)``.
    Empty shards are omitted — in particular ``total == 0`` yields ``[]``,
    the empty shard list, which the map-reduce runner rejects (there is
    no identity element to return; callers with legitimately empty
    domains must short-circuit before sharding).
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if shards < 1:
        raise ValueError("shards must be positive")
    base, extra = divmod(total, shards)
    out = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        out.append(ShardSpec(shard_id=i, start=start, stop=start + size))
        start += size
    assert start == total
    return out


def default_workers() -> int:
    """A conservative worker count for the experiment runners."""
    return max(1, min(8, os.cpu_count() or 1))


# --------------------------------------------------------------------- #
# hardened execution


@dataclass(frozen=True)
class ShardFailure:
    """Manifest entry for a shard that exhausted its retry budget.

    ``error`` is the rendered final failure (``"TypeName: message"``);
    ``cause_type`` is the bare exception class name of that final
    attempt, so callers can dispatch on the failure cause (crash vs.
    timeout vs. worker exception) without parsing the message.
    """

    shard_id: int
    attempts: int
    error: str
    timed_out: bool = False
    cause_type: str = ""


@dataclass(frozen=True)
class PartialResult(Generic[R]):
    """Outcome of a degraded run: what succeeded, and what did not.

    ``value`` is the shard-ordered reduction over the successful shards
    (``None`` when every shard failed).  ``failed`` is the manifest; an
    empty manifest means the result is complete.  ``attempts`` maps
    *every* shard id — successful or not — to how many attempts it
    consumed, so a campaign report can tell a clean run from one that
    limped home on retries even when ``complete`` is ``True``.
    """

    value: R | None
    failed: tuple[ShardFailure, ...]
    completed: int
    total: int
    attempts: dict[int, int] = dataclass_field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failed

    @property
    def coverage(self) -> float:
        return self.completed / self.total if self.total else 1.0

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())

    @property
    def retried_shards(self) -> int:
        """Shards that needed more than one attempt (successful or not)."""
        return sum(1 for a in self.attempts.values() if a > 1)

    def failure_causes(self) -> dict[str, int]:
        """Final-failure cause histogram over the failed manifest."""
        causes: dict[str, int] = {}
        for f in self.failed:
            name = f.cause_type or f.error.split(":", 1)[0]
            causes[name] = causes.get(name, 0) + 1
        return causes


@dataclass(frozen=True)
class _TracedValue:
    """A worker result bundled with the worker-side span + digest exports."""

    value: object
    span: dict
    digest: dict | None = None


class _TracedWork:
    """Picklable wrapper: runs the shard inside a worker-side span.

    The span (wall/CPU time, worker PID, shard bounds) travels back with
    the result as a plain dict and is grafted into the parent trace —
    that is the cross-process span propagation.  A worker-side
    :class:`~repro.obs.digests.LatencyDigest` sketch of the shard
    duration rides along the same way and is merged into the parent's
    ``repro_shard_seconds_digest`` series — the digests are built
    directly (not through the registry) because worker processes start
    with a fresh, disabled registry; merging happens where the registry
    is live.
    """

    def __init__(self, work: Callable[[ShardSpec], object]):
        self.work = work

    def __call__(self, shard: ShardSpec) -> _TracedValue:
        span = Span(
            f"shard{shard.shard_id}",
            {"start": shard.start, "stop": shard.stop, "pid": os.getpid()},
        )
        value = self.work(shard)  # exceptions propagate; parent records them
        span.end("ok")
        sketch = LatencyDigest()
        sketch.observe(span.wall_s)
        return _TracedValue(value, span.export(), sketch.to_dict())


def retry_backoff(
    attempt: int,
    backoff: float,
    jitter: float = 0.0,
    rng: "random.Random | None" = None,
    cap: float | None = None,
) -> float:
    """The hardened-runner retry delay: ``backoff · 2^(attempt−1)`` + jitter.

    ``attempt`` is 1-based (the attempt that just failed).  Jitter is
    uniform in ``[0, jitter)`` from ``rng`` (seeded by the caller — runs
    stay reproducible); ``cap`` bounds the exponential term so repeated
    failures converge to a fixed retry cadence instead of effectively
    never retrying.  Shared by :func:`hardened_map_reduce` and the
    serving tier's worker pool so both layers restart crashed workers
    with identical semantics.
    """
    delay = backoff * (2 ** (attempt - 1))
    if cap is not None:
        delay = min(cap, delay)
    if jitter > 0.0 and rng is not None:
        delay += rng.uniform(0.0, jitter)
    return delay


def hardened_map_reduce(
    work: Callable[[ShardSpec], R],
    shards: Sequence[ShardSpec],
    reduce_fn: Callable[[R, R], R],
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    jitter: float = 0.05,
    degrade: bool = False,
    seed: int = 0,
    tracer=None,
    events=None,
):
    """Fault-tolerant map-reduce: retry, recover, optionally degrade.

    Each shard gets up to ``1 + retries`` attempts.  Between attempts the
    runner sleeps ``backoff · 2^(attempt−1)`` seconds plus uniform jitter
    in ``[0, jitter)`` (seeded — runs are reproducible).  A worker
    exception, a crashed worker process (``BrokenProcessPool``) or a
    per-shard ``timeout`` all count as failed attempts; after a crash or
    timeout the pool is rebuilt and only the affected shards are
    resubmitted — completed shards are never recomputed.

    With ``degrade=False`` (default) an exhausted shard aborts the job
    with :class:`~repro.errors.WorkerFailedError` (or
    :class:`~repro.errors.ShardTimeoutError`), and the reduced value is
    returned bare on success.  With ``degrade=True`` the runner always
    returns a :class:`PartialResult`: the reduction over whatever
    succeeded plus the failure manifest, so a campaign keeps its
    completed work even when some shards are beyond saving.

    The shards run inline in the caller's process when there is one
    worker, or one shard and no ``timeout``; otherwise in a process pool.

    Caveat: a timed-out worker process cannot be killed through
    ``concurrent.futures``; it is abandoned with the old pool and may
    run to completion in the background.  Its result is discarded.

    Observability (all optional):

    * ``tracer`` — every shard attempt appears as a child span of the
      caller's current span: successful pool attempts carry the
      worker-side span (true worker wall/CPU time and PID), failed or
      timed-out attempts a parent-side span tagged with the outcome.
    * ``events`` — an :class:`~repro.obs.events.EventSink` receiving
      ``shard_retry``/``shard_timeout``/``pool_crash``/
      ``shard_exhausted`` events as they happen.
    """
    if not shards:
        raise ValueError("no shards to process (total == 0?)")
    workers = workers if workers is not None else default_workers()
    # A pool gains one shard nothing but a fork and a pickled result;
    # only a pool can enforce a per-shard timeout, though.
    inline = workers <= 1 or (len(shards) == 1 and timeout is None)
    rng = random.Random(seed)
    metrics_on = _metrics.REGISTRY.enabled

    results: dict[int, R] = {}
    failures: list[ShardFailure] = []
    attempts: dict[int, int] = {s.shard_id: 0 for s in shards}
    last_error: dict[int, tuple[Exception, bool]] = {}
    pending: list[ShardSpec] = list(shards)
    pool: ProcessPoolExecutor | None = None

    def fail(s: ShardSpec) -> None:
        exc, timed_out = last_error[s.shard_id]
        if not degrade:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            cls = ShardTimeoutError if timed_out else WorkerFailedError
            raise cls(
                f"shard {s.shard_id} failed after {attempts[s.shard_id]} "
                f"attempt(s): {exc}",
                shard_id=s.shard_id,
                attempts=attempts[s.shard_id],
                cause=exc,
            ) from exc
        failures.append(
            ShardFailure(
                shard_id=s.shard_id,
                attempts=attempts[s.shard_id],
                error=f"{type(exc).__name__}: {exc}",
                timed_out=timed_out,
                cause_type=type(exc).__name__,
            )
        )

    pool_work = _TracedWork(work) if tracer is not None else work

    def note_attempt(shard: ShardSpec, outcome: str, span: Span | None,
                     wall_s: float | None = None) -> None:
        """Metrics + trace bookkeeping for one finished attempt."""
        if metrics_on:
            _SHARD_ATTEMPTS.inc(outcome=outcome)
            if outcome == "ok" and wall_s is not None:
                _SHARD_SECONDS.observe(wall_s)
        if tracer is not None and span is not None:
            span.attrs["attempt"] = attempts[shard.shard_id]
            if outcome != "ok":
                span.attrs["outcome"] = outcome
            tracer.adopt(span)

    try:
        while pending:
            wave, pending = pending, []
            retry_delay = 0.0
            pool_broken = False
            # outcome rows: (shard, value, exc, timed_out, worker_span)
            if inline:
                outcomes = []
                for s in wave:
                    span = (
                        Span(f"shard{s.shard_id}", {"start": s.start, "stop": s.stop})
                        if tracer is not None
                        else None
                    )
                    try:
                        value = work(s)
                    except Exception as exc:
                        if span is not None:
                            span.end("error", error=f"{type(exc).__name__}: {exc}")
                        outcomes.append((s, None, exc, False, span))
                    else:
                        if span is not None:
                            span.end("ok")
                            if metrics_on:
                                _SHARD_DIGEST.observe(span.wall_s)
                        outcomes.append((s, value, None, False, span))
            else:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers, len(shards))
                    )
                futures = [(s, pool.submit(pool_work, s)) for s in wave]
                # Per-shard timeout measured from submission on the
                # monotonic clock: shards waited on later in the wave do
                # not have their budget restarted by earlier waits.
                wave_t0 = _monotonic()
                outcomes = []
                for s, fut in futures:
                    budget = (
                        None
                        if timeout is None
                        else max(0.0, wave_t0 + timeout - _monotonic())
                    )
                    try:
                        value = fut.result(timeout=budget)
                    except FutureTimeoutError as exc:
                        fut.cancel()
                        pool_broken = True  # abandon the stuck worker
                        outcomes.append((s, None, exc, True, None))
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        outcomes.append((s, None, exc, False, None))
                    except Exception as exc:
                        outcomes.append((s, None, exc, False, None))
                    else:
                        span = None
                        if isinstance(value, _TracedValue):
                            span = Span.from_export(value.span)
                            if metrics_on and value.digest is not None:
                                _SHARD_DIGEST.merge_in(value.digest)
                            value = value.value
                        outcomes.append((s, value, None, False, span))
            for s, value, exc, timed_out, span in outcomes:
                attempts[s.shard_id] += 1
                if exc is None:
                    results[s.shard_id] = value
                    note_attempt(
                        s, "ok", span,
                        wall_s=span.wall_s if span is not None else None,
                    )
                    continue
                outcome = (
                    "timeout"
                    if timed_out
                    else "crash" if isinstance(exc, BrokenProcessPool) else "error"
                )
                if span is None and tracer is not None:
                    span = Span(f"shard{s.shard_id}", {"start": s.start, "stop": s.stop})
                    span.end("error", error=f"{type(exc).__name__}: {exc}")
                    span.wall_s = None  # parent-side stub: no worker timing
                    span.cpu_s = None
                note_attempt(s, outcome, span)
                if events is not None and outcome in ("timeout", "crash"):
                    events.emit(
                        f"shard_{outcome}" if outcome == "timeout" else "pool_crash",
                        shard=s.shard_id,
                        attempt=attempts[s.shard_id],
                    )
                last_error[s.shard_id] = (exc, timed_out)
                if attempts[s.shard_id] <= retries:
                    delay = retry_backoff(
                        attempts[s.shard_id], backoff, jitter=jitter, rng=rng
                    )
                    retry_delay = max(retry_delay, delay)
                    pending.append(s)
                    if events is not None:
                        events.emit(
                            "shard_retry",
                            shard=s.shard_id,
                            attempt=attempts[s.shard_id],
                            error=type(exc).__name__,
                        )
                else:
                    if events is not None:
                        events.emit(
                            "shard_exhausted",
                            shard=s.shard_id,
                            attempts=attempts[s.shard_id],
                            error=type(exc).__name__,
                        )
                    fail(s)
            if pool_broken and pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            if pending and retry_delay > 0.0:
                _sleep_until(_monotonic() + retry_delay)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    acc: R | None = None
    for s in shards:
        if s.shard_id not in results:
            continue
        acc = results[s.shard_id] if acc is None else reduce_fn(acc, results[s.shard_id])
    if degrade:
        return PartialResult(
            value=acc,
            failed=tuple(failures),
            completed=len(results),
            total=len(shards),
            attempts=dict(attempts),
        )
    return acc
