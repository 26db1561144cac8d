"""Request validation and the response type of the permutation-serving layer.

Every request names ``count`` lanes of one ``(workload, n)`` sweep:

* ``unrank`` — convert caller-supplied indices to their permutations
  (paper §II, the index-to-permutation converter);
* ``random_perm`` — the §II-C random permutation generator: the service
  draws each index from its scaled-LFSR source and unranks it;
* ``shuffle`` — outputs of the §III Knuth-shuffle cascade.

A one-lane request is a ``count=1`` request; there is no separate
single-lane form.  Validation is centralised in :func:`validate_wide`,
which the service's one entry point runs before touching shared state,
so library callers and socket frames are rejected with the same
:class:`~repro.errors.InvalidRequestError` (a ``ValueError`` subclass,
like the rest of the caller-mistake taxonomy).

The :class:`WideResponse` carries the ``(count, n)`` permutation rows
plus the serving provenance the benchmarks and traces rely on: which
batch the request rode in (``batch_id``/``lanes``), whether the result
came straight from the cache, and the per-stage timing split (time
queued in the micro-batcher vs. time in the compiled sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.factorial import factorial
from repro.errors import InvalidRequestError

__all__ = ["WORKLOADS", "WideResponse", "validate_wide"]

#: The serveable workloads, in documentation order.
WORKLOADS = ("unrank", "random_perm", "shuffle")


@dataclass(frozen=True)
class WideResponse:
    """A served request: ``count`` permutations behind one future.

    ``permutations`` is a ``(count, n)`` int64 array (rows in request
    order) rather than per-row tuples — the socket encoder reads it
    straight into packed wire bytes, so nothing materialises a million
    Python ints on the hot path.  ``indices`` are the indices actually
    unranked — for ``random_perm`` the ones the service drew; for
    ``shuffle`` ``None`` (the cascade never materialises an index).

    ``batch_id`` is ``None`` when the result short-circuited through the
    cache and never entered the batcher; otherwise it identifies the
    compiled sweep this request shared with other entries (``lanes``
    lanes in all) and links the response to its batch span in the trace.
    ``mode`` records which rung of the serving ladder produced the
    result: ``"direct"`` (the base service's in-process engine),
    ``"worker"`` (a supervised tier's worker), ``"fallback"`` (the
    supervised tier degraded to its in-process fallback for this sweep)
    or ``"cached"`` (never swept at all).  Clients and the load
    generators use it to count degraded-mode service separately from
    healthy service.
    """

    request_id: int
    workload: str
    n: int
    count: int
    indices: tuple[int, ...] | None
    permutations: object  # (count, n) np.ndarray
    batch_id: int | None
    lanes: int
    cached: bool
    queued_s: float
    sweep_s: float
    total_s: float
    mode: str = "direct"


def validate_wide(
    workload: str,
    n: int,
    count: int,
    indices,
    max_n: int,
    max_count: int,
) -> None:
    """Reject a malformed request with :class:`InvalidRequestError`.

    Checks workload spelling, the ``n`` bounds (``shuffle`` needs at
    least two elements; everything is capped at ``max_n`` so one request
    cannot make the service compile an astronomically large netlist),
    the ``count`` bounds — at least one lane, at most ``max_count`` (the
    service's ``max_batch``: a wider entry could never fit one sweep) —
    and the index contract: ``unrank`` supplies exactly ``count``
    in-range indices, the random workloads none (the service owns the
    randomness — a caller who already has an index wants ``unrank``).
    """
    if workload not in WORKLOADS:
        raise InvalidRequestError(
            f"unknown workload {workload!r}; expected one of " + ", ".join(WORKLOADS)
        )
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidRequestError(f"n must be an integer, got {n!r}")
    floor = 2 if workload == "shuffle" else 1
    if not (floor <= n <= max_n):
        raise InvalidRequestError(
            f"n={n} outside {floor}..{max_n} for workload {workload!r}"
        )
    if isinstance(count, bool) or not isinstance(count, int):
        raise InvalidRequestError(f"count must be an integer, got {count!r}")
    if not (1 <= count <= max_count):
        raise InvalidRequestError(f"count {count} outside 1..{max_count}")
    if workload == "unrank":
        if indices is None:
            raise InvalidRequestError("unrank requires indices")
        if len(indices) != count:
            raise InvalidRequestError(
                f"unrank sent {len(indices)} indices for count={count}"
            )
        limit = factorial(n)
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, int):
                raise InvalidRequestError(f"index must be an integer, got {i!r}")
            if not (0 <= i < limit):
                raise InvalidRequestError(
                    f"index {i} outside 0..{limit - 1} for n={n}"
                )
    elif indices is not None:
        raise InvalidRequestError(
            f"workload {workload!r} draws its own randomness; "
            "indices must not be supplied"
        )
