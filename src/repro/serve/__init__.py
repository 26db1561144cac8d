"""Batch-serving layer over the compiled permutation engines.

This package turns the bit-packed compiled simulator into a
request-serving hot path.  Every request is ``count`` lanes of one
``(workload, n)`` sweep, admitted through one call,
:meth:`PermutationService.submit_wide`, and resolved through one future
into one :class:`~repro.serve.model.WideResponse` (:mod:`repro.serve.model`
holds the validator and the response type); a one-lane caller submits
``count=1``.  A micro-batcher coalesces concurrent entries into packed
sweep lanes (:mod:`repro.serve.batcher`), a bounded LRU result cache
answers one-lane deterministic requests (:mod:`repro.serve.cache`),
admission control sheds with typed errors, and the
:class:`PermutationService` front end ties them together
(:mod:`repro.serve.service`).  Two closed-loop synthetic load generators
(:mod:`repro.serve.loadgen`) drive it in-process and over TCP for the
CLI ``serve`` subcommand and the serving benchmarks.

On top of the single-process service sits one degradation ladder
(:mod:`repro.serve.supervisor`): per-shard workers, stall detection,
restart-with-backoff, circuit breakers and a worker → fallback →
cache-only → shed ladder, with every served batch end-to-end
oracle-checked.  It runs over two executors that differ only in their
worker handle: one supervised thread per shard
(:class:`SupervisedService`) or W worker processes per shard returning
rows through shared-memory rings (:class:`PooledService`,
:mod:`repro.serve.pool`).  The chaos harness (:mod:`repro.serve.chaos`)
injects crashes, stalls, delays and payload corruption on a seeded
schedule into either executor to prove the ladder's invariants — no
wrong permutation is ever served, killed workers restart, availability
holds a floor while degraded.  The network tier
(:mod:`repro.serve.net`) exposes the whole stack over a length-prefixed
binary TCP protocol (``repro-serve/1``).
"""

from repro.serve.batcher import Batch, MicroBatcher, PendingEntry
from repro.serve.cache import ResultCache
from repro.serve.chaos import (
    CHAOS_EVENTS,
    ChaosMonkey,
    ChaosSpec,
    SweepPlan,
    run_chaos_campaign,
)
from repro.serve.engine import ConverterEngine, EngineBank, ShuffleEngine
from repro.serve.loadgen import (
    LoadReport,
    percentile,
    run_closed_loop,
    run_socket_loadgen,
)
from repro.serve.model import WORKLOADS, WideResponse, validate_wide
from repro.serve.net import NetServer, ServeConnection
from repro.serve.pool import PooledService, WorkerPool
from repro.serve.service import CompletionFuture, PermutationService, ServiceConfig
from repro.serve.supervisor import (
    BREAKER_STATES,
    BreakerConfig,
    CircuitBreaker,
    FunctionalConverterEngine,
    LadderConfig,
    ShardWorker,
    SupervisedService,
    SweepSupervisor,
)

__all__ = [
    "WORKLOADS",
    "WideResponse",
    "validate_wide",
    "MicroBatcher",
    "Batch",
    "PendingEntry",
    "ResultCache",
    "ConverterEngine",
    "ShuffleEngine",
    "EngineBank",
    "CompletionFuture",
    "PermutationService",
    "ServiceConfig",
    "LoadReport",
    "run_closed_loop",
    "run_socket_loadgen",
    "percentile",
    "NetServer",
    "ServeConnection",
    "WorkerPool",
    "PooledService",
    "BREAKER_STATES",
    "BreakerConfig",
    "CircuitBreaker",
    "LadderConfig",
    "ShardWorker",
    "FunctionalConverterEngine",
    "SweepSupervisor",
    "SupervisedService",
    "CHAOS_EVENTS",
    "ChaosSpec",
    "SweepPlan",
    "ChaosMonkey",
    "run_chaos_campaign",
]
