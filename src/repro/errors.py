"""Structured error taxonomy for the whole package.

Every failure the runtime can *diagnose* gets its own exception type, all
rooted at :class:`ReproError`, so callers (and the CLI) can distinguish

* **caller mistakes** — :class:`InvalidIndexError`,
  :class:`InvalidPermutationError` — which also subclass
  :class:`ValueError` so pre-existing ``except ValueError`` call sites
  keep working;
* **detected hardware faults** — :class:`FaultDetectedError` (an output
  failed an online check, e.g. it is not a bijection or the dual rails
  disagree) and its sharper sibling :class:`SilentCorruptionError` (the
  output *was* a valid permutation — it would have sailed past a
  bijectivity check — but the rank∘unrank oracle proves it is the wrong
  one: the dangerous silent-corruption class);
* **infrastructure failures** — :class:`WorkerFailedError` (a parallel
  shard raised or its process died; carries the shard id) and
  :class:`ShardTimeoutError` (the shard exceeded its deadline);
* **admission-control decisions** — :class:`ServiceOverloadedError`
  (``ServiceOverloaded`` for short): the serving layer *chose* to shed
  a request because its queue was at capacity.  Shedding is not a bug —
  it is the mechanism that keeps tail latency bounded under overload —
  so it gets its own type that clients can catch and retry with
  backoff.  Its siblings complete the serving-tier taxonomy:
  :class:`ServiceDegradedError` (the supervised tier has stepped down
  its degradation ladder far enough that this request class cannot be
  served right now — retry after the shard recovers),
  :class:`ServiceShutdownError` (the service was closed while the
  request was pending or before it was submitted; also a
  :class:`RuntimeError` so pre-existing ``except RuntimeError`` call
  sites keep working), :class:`WorkerCrashedError` and
  :class:`WorkerStalledError` (a supervised serving worker died
  mid-sweep or blew its response deadline — both retryable
  :class:`WorkerFailedError` flavours that the supervisor converts
  into restarts and failovers, never into served errors).

The taxonomy is what makes graceful degradation possible: the hardened
runners in :mod:`repro.parallel.sharding` retry ``WorkerFailedError``
but never mask a ``FaultDetectedError``, which must reach the operator.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidIndexError",
    "InvalidPermutationError",
    "CampaignConfigError",
    "PassVerificationError",
    "FaultDetectedError",
    "SilentCorruptionError",
    "WorkerFailedError",
    "ShardTimeoutError",
    "WorkerCrashedError",
    "WorkerStalledError",
    "InvalidRequestError",
    "ProtocolError",
    "CheckpointError",
    "CheckpointMismatchError",
    "ServiceOverloadedError",
    "ServiceOverloaded",
    "ServiceDegradedError",
    "ServiceShutdownError",
]


class ReproError(Exception):
    """Base class for every diagnosed failure in the package."""


class InvalidIndexError(ReproError, ValueError):
    """A permutation index outside ``0 .. n! − 1`` (or not an integer)."""


class InvalidPermutationError(ReproError, ValueError):
    """A sequence that is not a permutation of the expected pool."""


class CampaignConfigError(ReproError, ValueError):
    """An invalid fault-campaign specification (bad n, model, samples…)."""


class PassVerificationError(ReproError):
    """A netlist optimisation pass broke functional equivalence.

    Raised by :class:`repro.hdl.passes.PassManager` in checked mode when
    the post-pass netlist disagrees with the pre-pass netlist — by BDD
    proof for small input spaces, by batched random simulation above
    that.  ``pass_name`` identifies the offending pass and ``method``
    which checker caught it.
    """

    def __init__(self, message: str, pass_name: str | None = None, method: str | None = None):
        super().__init__(message)
        self.pass_name = pass_name
        self.method = method


class FaultDetectedError(ReproError):
    """An online checker caught a corrupted output before it escaped.

    Raised when a result fails bijectivity, when dual-rail evaluations
    disagree, or on any other check that fires *during* operation.  The
    offending index and output are attached when known.
    """

    def __init__(self, message: str, index: int | None = None, output=None):
        super().__init__(message)
        self.index = index
        self.output = output


class SilentCorruptionError(FaultDetectedError):
    """A *valid but wrong* permutation — caught only by the rank oracle.

    The output is a bijection, so a structural self-check passes; only
    cross-checking ``rank(output) == index`` against the independent
    Lehmer-code implementation exposes it.  This is the class a
    hardware designer worries about most, hence its own type.
    """


class WorkerFailedError(ReproError):
    """A parallel worker raised, or its process died mid-shard.

    ``shard_id`` identifies the failing shard; ``attempts`` counts how
    many times it was tried before giving up; ``cause`` carries the
    final underlying error (also set as ``__cause__`` where raised).
    """

    def __init__(
        self,
        message: str,
        shard_id: int | None = None,
        attempts: int = 1,
        cause: BaseException | None = None,
    ):
        super().__init__(message)
        self.shard_id = shard_id
        self.attempts = attempts
        self.cause = cause


class ShardTimeoutError(WorkerFailedError):
    """A shard exceeded its per-shard deadline in a hardened runner."""


class WorkerCrashedError(WorkerFailedError):
    """A supervised serving worker died mid-sweep.

    Raised inside the supervisor's execution ladder when the worker
    thread/process servicing a shard exits (or is killed by the chaos
    harness) before delivering its sweep result.  The supervisor treats
    it as a restartable infrastructure failure: the worker is respawned
    with backoff and the sweep fails over to the next ladder rung —
    callers of the service itself never see this type.
    """


class WorkerStalledError(WorkerFailedError):
    """A supervised serving worker blew its sweep/heartbeat deadline.

    Deadline-based stall detection: the worker may still be running (a
    stuck kernel, a livelock, an injected stall) but its result is no
    longer trusted or waited on.  Like a crash it is retryable — the
    stalled worker is abandoned, a fresh one is spawned, and the sweep
    fails over.  Any late result from the abandoned worker is discarded.
    """


class InvalidRequestError(ReproError, ValueError):
    """A malformed serving request (unknown workload, bad n, missing or
    out-of-range index…).  Caller mistake, so also a :class:`ValueError`."""


class ProtocolError(ReproError, ValueError):
    """A malformed ``repro-serve/1`` wire frame.

    Raised by the binary protocol codec (:mod:`repro.serve.net.protocol`)
    for anything the framing layer itself must reject: an oversized or
    truncated frame, an unknown protocol version, an unrecognised
    workload or status tag, or trailing bytes after a fully decoded
    body.  The server answers with a typed ``ERROR`` response and closes
    the connection — a byte-level violation means the stream can no
    longer be trusted to be frame-aligned — while *semantic* mistakes in
    a well-formed frame (bad ``n``, index out of range, zero count) stay
    :class:`InvalidRequestError` and leave the connection open.
    """


class CheckpointError(ReproError):
    """A campaign checkpoint file could not be read or is malformed.

    Covers unreadable files, JSON that fails to parse, and payloads that
    do not validate against the ``repro-analysis/1`` schema.  ``path``
    names the offending file when known.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class CheckpointMismatchError(CheckpointError):
    """A well-formed checkpoint that belongs to a *different* campaign.

    Resuming from a checkpoint whose configuration fingerprint disagrees
    with the requested campaign would silently merge statistics from two
    different populations — the exact corruption class the fingerprint
    exists to stop, so it is refused with its own type rather than a
    generic error.
    """


class ServiceOverloadedError(ReproError):
    """The serving queue is at capacity; this request was shed.

    Raised by :meth:`repro.serve.PermutationService.submit_wide` when
    the request's lanes would take the queued-but-unserved lanes past
    the configured ``max_queue_depth``.  Shedding at admission keeps
    the queue — and therefore every accepted request's latency —
    bounded; the client should back off and retry.  ``queue_depth`` and ``limit`` record
    the pressure at the moment of rejection.
    """

    def __init__(
        self, message: str, queue_depth: int | None = None, limit: int | None = None
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class ServiceDegradedError(ReproError):
    """The supervised tier cannot serve this request at its current rung.

    Raised when a shard's degradation ladder has stepped past every
    serving mode that could satisfy the request — e.g. the compiled
    worker's circuit breaker is open *and* the in-process fallback is
    unavailable or also broken, leaving cache-only mode, and the request
    missed the cache.  Like :class:`ServiceOverloadedError` this is a
    *decision*, not a bug: the tier sheds rather than serve a result it
    cannot trust.  ``mode`` names the rung the shard is pinned at
    (``"cache_only"`` …) and ``shard`` identifies the degraded shard.
    """

    def __init__(self, message: str, mode: str | None = None, shard=None):
        super().__init__(message)
        self.mode = mode
        self.shard = shard


class ServiceShutdownError(ReproError, RuntimeError):
    """The service was closed while this request was pending.

    Raised (a) by ``submit_wide`` on a closed service and (b) on any
    future still unresolved when ``close()`` finishes draining —
    shutdown must settle every waiter, never leave one hung.  Subclasses
    :class:`RuntimeError` so callers guarding with ``except
    RuntimeError`` keep working.
    """


#: The short name the serving layer's docs use for the shed signal.
ServiceOverloaded = ServiceOverloadedError
