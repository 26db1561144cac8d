"""Synthetic closed-loop load generators for the serving layer.

Closed-loop means each simulated client keeps a bounded number of
requests in flight: it submits, waits for the response, records the
latency, and immediately submits again.  Offered load therefore scales
with the client count and never runs away from the service — the honest
way to measure a batching layer, because an open-loop generator with a
fixed rate either underfills batches (rate too low) or measures queueing
collapse (rate too high).

Two drivers share one :class:`LoadReport`, one per-response tally
(:meth:`LoadReport._record`) and one response check:

* :func:`run_closed_loop` — in-process, one thread per client submitting
  one-lane entries through
  :meth:`~repro.serve.service.PermutationService.submit_wide`; the
  driver behind ``repro-perm serve`` and the serving benchmark.
* :func:`run_socket_loadgen` — over real TCP connections speaking
  ``repro-serve/1``: ``connections`` sockets, each keeping ``depth``
  frames of ``frame_count`` lanes pipelined.  Typed wire statuses map
  onto the same counters the in-process driver uses (``OVERLOADED`` →
  ``shed``, ``DEGRADED`` → ``degraded_shed``), so availability means the
  same thing measured through the network as measured in-process.

Both read the same response shape — ``count`` rows in
``permutations``, the lanes' ``indices``, ``mode`` and ``lanes`` —
whether it is a :class:`~repro.serve.model.WideResponse` or its decoded
wire form.  The wire form omits a shuffle's indices (``None``).

Latency samples fold into a :class:`~repro.obs.digests.LatencyDigest`
instead of a per-request float list, so a multi-million-request run
holds a few hundred bucket counters rather than every sample;
:meth:`LoadReport.latency_percentiles` keeps its shape (``p50`` /
``p90`` / ``p99`` / ``max``) reading the digest.

Failed attempts are accounted by *why* they failed, never folded
together, and ``availability`` is the fraction of attempts that produced
a response — the number the chaos campaign's ≥90 % floor is asserted
against.  With ``verify=True`` every response is client-side checked
through the same oracle the supervised tier uses internally
(:func:`~repro.robustness.checkers.check_served_batch`); ``incorrect``
counts convictions and must be zero — a wrong permutation served to a
client is the one invariant no degradation excuses.

Workloads are drawn per-request from a seeded weighted mix, and unrank
indices from the same seeded stream, so a report is reproducible for a
given ``(seed, clients, total)`` triple up to thread scheduling.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.factorial import factorial
from repro.errors import (
    FaultDetectedError,
    ServiceDegradedError,
    ServiceOverloadedError,
)
from repro.obs.digests import LatencyDigest
from repro.robustness.checkers import check_served_batch
from repro.serve.model import WORKLOADS
from repro.serve.net.client import ServeConnection
from repro.serve.service import PermutationService

__all__ = ["LoadReport", "run_closed_loop", "run_socket_loadgen", "percentile"]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(p / 100 * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class LoadReport:
    """Outcome of one closed-loop run."""

    clients: int
    completed: int
    shed: int
    duration_s: float
    latency_digest: LatencyDigest = field(repr=False, default_factory=LatencyDigest)
    by_workload: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    batch_lane_sum: int = 0
    batched_responses: int = 0
    degraded_shed: int = 0
    degraded_responses: int = 0
    abandoned: int = 0
    incorrect: int = 0
    lanes_completed: int = 0
    modes: dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def lanes_per_second(self) -> float:
        """Permutations per second — the socket driver's scaling metric.

        For in-process runs (one lane per request) this equals
        ``throughput_rps``; wide socket frames complete ``frame_count``
        permutations per response.
        """
        return self.lanes_completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_lanes(self) -> float:
        """Mean batch occupancy over non-cached responses."""
        if not self.batched_responses:
            return 0.0
        return self.batch_lane_sum / self.batched_responses

    @property
    def availability(self) -> float:
        """Fraction of attempts that produced a response.

        Every shed — overload or degraded — and every abandoned request
        counts as a failed attempt; a response served from any rung
        (worker, fallback, cache) counts as service.  1.0 when nothing
        was attempted.
        """
        attempts = self.completed + self.shed + self.degraded_shed + self.abandoned
        if attempts == 0:
            return 1.0
        return self.completed / attempts

    def _record(self, resp, workload: str, latency: float, ok: bool) -> None:
        """Tally one served response; the caller holds the report lock.

        ``ok`` is the verdict of :func:`_verified` (``True`` when the run
        does not verify).  A cached response counts as a cache hit, any
        other one adds its batch's lane count to the occupancy sums.
        """
        self.completed += 1
        self.lanes_completed += resp.count
        self.latency_digest.observe(latency)
        self.by_workload[workload] = self.by_workload.get(workload, 0) + 1
        self.modes[resp.mode] = self.modes.get(resp.mode, 0) + 1
        if resp.mode == "fallback":
            self.degraded_responses += 1
        if not ok:
            self.incorrect += 1
        if resp.mode == "cached":
            self.cache_hits += 1
        else:
            self.batch_lane_sum += resp.lanes
            self.batched_responses += 1

    def latency_percentiles(self) -> dict[str, float]:
        d = self.latency_digest
        return {
            "p50": d.quantile(0.50),
            "p90": d.quantile(0.90),
            "p99": d.quantile(0.99),
            "max": d.max,
        }


def _verified(resp) -> bool:
    """True when every served row survives the oracle.

    Bijectivity for every row; with ``indices`` (every in-process
    response, and the two converter workloads over the wire) also the
    rank of each row against its lane's index.
    """
    kind = "shuffle" if resp.workload == "shuffle" else "converter"
    try:
        check_served_batch(resp.permutations, resp.indices, kind)
    except FaultDetectedError:
        return False
    return True


def _build_mix(mix: dict[str, float] | None):
    mix = dict(mix) if mix else {w: 1.0 for w in WORKLOADS}
    for w in mix:
        if w not in WORKLOADS:
            raise ValueError(f"unknown workload {w!r} in mix")
    names = sorted(mix)
    return names, [mix[w] for w in names]


def run_closed_loop(
    service: PermutationService,
    n: int,
    total: int,
    clients: int = 8,
    mix: dict[str, float] | None = None,
    seed: int = 0,
    shed_backoff_s: float = 0.0005,
    degraded_backoff_s: float = 0.005,
    max_attempts: int = 400,
    verify: bool = False,
) -> LoadReport:
    """Drive ``total`` completed one-lane requests through ``service``.

    Each request is a ``count=1``
    :meth:`~repro.serve.service.PermutationService.submit_wide` entry.
    ``mix`` maps workload name → weight (default: uniform over all
    three).  Returns a :class:`LoadReport`; every latency sample is the
    full client-observed round trip (submit → response).  A request that
    keeps shedding for ``max_attempts`` attempts is *abandoned* (counted,
    not retried forever) so a permanently degraded shard cannot hang the
    run.  With ``verify=True`` each response is oracle-checked and
    convictions are counted in ``incorrect``.
    """
    if total < 1:
        raise ValueError("total must be positive")
    if clients < 1:
        raise ValueError("clients must be positive")
    names, weights = _build_mix(mix)
    limit = factorial(n)

    report = LoadReport(clients=clients, completed=0, shed=0, duration_s=0.0)
    lock = threading.Lock()
    remaining = [total]

    def client(client_id: int) -> None:
        rng = random.Random((seed << 16) ^ client_id)
        while True:
            with lock:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
            workload = rng.choices(names, weights)[0]
            if workload == "shuffle" and n < 2:
                workload = "unrank"
            indices = [rng.randrange(limit)] if workload == "unrank" else None
            t0 = time.perf_counter()
            resp = None
            for _ in range(max_attempts):
                try:
                    resp = service.submit_wide(workload, n, 1, indices).result(30.0)
                    break
                except ServiceOverloadedError:
                    with lock:
                        report.shed += 1
                    time.sleep(shed_backoff_s)
                except ServiceDegradedError:
                    with lock:
                        report.degraded_shed += 1
                    time.sleep(degraded_backoff_s)
            if resp is None:
                with lock:
                    report.abandoned += 1
                continue
            latency = time.perf_counter() - t0
            ok = _verified(resp) if verify else True
            with lock:
                report._record(resp, workload, latency, ok)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.duration_s = time.perf_counter() - t_start
    return report


def run_socket_loadgen(
    host: str,
    port: int,
    n: int,
    total: int,
    connections: int = 2,
    depth: int = 1,
    frame_count: int = 1,
    mix: dict[str, float] | None = None,
    seed: int = 0,
    shed_backoff_s: float = 0.002,
    degraded_backoff_s: float = 0.01,
    max_attempts: int = 200,
    verify: bool = False,
    timeout_s: float = 30.0,
) -> LoadReport:
    """Drive ``total`` frames through a live socket server, closed-loop.

    Opens ``connections`` TCP connections, each pipelining up to
    ``depth`` frames of ``frame_count`` lanes.  ``completed`` counts
    frames and ``lanes_completed`` permutations, so
    :attr:`LoadReport.lanes_per_second` is the end-to-end serving
    throughput the multi-process benchmark scales against worker count.

    Typed failure statuses retry with backoff against the *original*
    submit time — a shed-then-served frame reports the full
    client-observed latency including its backoffs — and a frame that
    keeps failing for ``max_attempts`` attempts is abandoned.  With
    ``verify=True`` each ``OK`` frame's permutations are oracle-checked
    (rank oracle included for the converter workloads, using the indices
    echoed on the wire; shuffle frames echo none).
    """
    if total < 1:
        raise ValueError("total must be positive")
    if connections < 1:
        raise ValueError("connections must be positive")
    if depth < 1:
        raise ValueError("depth must be positive")
    if frame_count < 1:
        raise ValueError("frame_count must be positive")
    names, weights = _build_mix(mix)
    limit = factorial(n)

    report = LoadReport(clients=connections, completed=0, shed=0, duration_s=0.0)
    lock = threading.Lock()
    remaining = [total]

    def claim() -> bool:
        with lock:
            if remaining[0] <= 0:
                return False
            remaining[0] -= 1
            return True

    def client(client_id: int) -> None:
        rng = random.Random((seed << 20) ^ client_id)
        # request_id -> [t0, workload, attempts, indices]
        inflight: dict[int, list] = {}

        def draw():
            workload = rng.choices(names, weights)[0]
            if workload == "shuffle" and n < 2:
                workload = "unrank"
            indices = (
                [rng.randrange(limit) for _ in range(frame_count)]
                if workload == "unrank"
                else None
            )
            return workload, indices

        with ServeConnection(host, port, timeout=timeout_s) as conn:

            def launch() -> bool:
                if not claim():
                    return False
                workload, indices = draw()
                rid = conn.send(workload, n, frame_count, indices)
                inflight[rid] = [time.perf_counter(), workload, 1, indices]
                return True

            while launch() and len(inflight) < depth:
                pass
            while inflight:
                resp = conn.recv()
                rec = inflight.pop(resp.request_id, None)
                if rec is None:
                    continue  # stale id after an abandoned resend
                t0, workload, attempts, indices = rec
                if resp.status == "ok":
                    latency = time.perf_counter() - t0
                    ok = _verified(resp) if verify else True
                    with lock:
                        report._record(resp, workload, latency, ok)
                    launch()
                    continue
                retryable = resp.status in ("overloaded", "degraded")
                with lock:
                    if resp.status == "overloaded":
                        report.shed += 1
                    elif resp.status == "degraded":
                        report.degraded_shed += 1
                if retryable and attempts < max_attempts:
                    time.sleep(
                        shed_backoff_s
                        if resp.status == "overloaded"
                        else degraded_backoff_s
                    )
                    rid = conn.send(workload, n, frame_count, indices)
                    inflight[rid] = [t0, workload, attempts + 1, indices]
                else:
                    with lock:
                        report.abandoned += 1
                    launch()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"sockgen-{i}")
        for i in range(connections)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.duration_s = time.perf_counter() - t_start
    return report
