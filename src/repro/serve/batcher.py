"""Micro-batcher: coalesces concurrent requests into packed sweep lanes.

The packed engines (:mod:`repro.hdl.compile`, :mod:`repro.hdl.vector`)
evaluate one netlist over *lanes* — independent bit positions of packed
words — so a sweep over a full batch costs barely more than a sweep
over one request.  How many lanes one sweep carries is the engine's
*sweep quantum*, reported by its capability record
(:class:`~repro.hdl.engine.EngineCapabilities`): 63 on the compiled
bigint engine, 4096 on the vector engine.  The service sizes
``max_batch`` to that quantum.  The serving hot path holds each
arriving request for at most a small deadline, hoping to share its
sweep with others:

* a batch **fills** — the ``max_batch``-th request closes the batch
  immediately (no deadline wait) and the whole group rides one sweep;
* or the **deadline expires** — whatever has accumulated since the
  group's *first* request flushes, so no request waits longer than the
  deadline however idle the service is.

This module is deliberately a pure, single-threaded data structure: all
methods take the current time as an argument and touch no clocks, locks
or threads.  :class:`~repro.serve.service.PermutationService` supplies
the mutex and the dispatcher thread; the tests drive the batcher with a
hand-rolled clock and get fully deterministic edge cases (empty deadline
flush, single-lane batches, the 64th request spilling into a fresh
group).

Requests batch by *group key* — ``("converter", n)`` for the two
index-driven workloads, ``("shuffle", n)`` for shuffles — because lanes
of one sweep must share a netlist.  Batch ids are assigned when a batch
closes, in closing order, and link responses to their batch trace span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["PendingEntry", "Batch", "MicroBatcher"]


@dataclass
class PendingEntry:
    """One queued request: the work item, its future, and when it arrived.

    ``lanes`` is how many sweep lanes the entry occupies — the request's
    ``count`` (one socket frame carrying many indices resolves through
    one future).  Multi-lane entries are what let the network front end
    amortise its per-frame decode/submit cost over many lanes.
    """

    request: object
    future: object
    enqueued_at: float
    lanes: int = 1


@dataclass(frozen=True)
class Batch:
    """A closed group of entries destined for one compiled sweep."""

    batch_id: int
    key: Hashable
    entries: tuple[PendingEntry, ...]

    @property
    def lanes(self) -> int:
        return sum(e.lanes for e in self.entries)


@dataclass
class _Group:
    entries: list[PendingEntry] = field(default_factory=list)
    lanes: int = 0  #: occupied sweep lanes (>= len(entries))
    opened_at: float = 0.0  #: enqueue time of the group's first entry


class MicroBatcher:
    """Groups pending entries by key; flushes on batch-full or deadline."""

    def __init__(self, max_batch: int, deadline_s: float):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        self.max_batch = max_batch
        self.deadline_s = deadline_s
        self._groups: dict[Hashable, _Group] = {}
        self._next_batch_id = 0
        self._pending = 0

    @property
    def pending(self) -> int:
        """Lanes currently queued across all groups (the queue depth).

        Counted in *lanes*, not entries: a wide entry holds as many
        queue slots as sweep lanes it will occupy, so admission control
        sheds on real sweep capacity either way.
        """
        return self._pending

    def add(self, key: Hashable, entry: PendingEntry, now: float) -> list[Batch]:
        """Queue an entry; returns whatever batches this closed (0..2).

        A single-lane entry closes at most the group it joins.  A wide
        entry that does not fit the open group's remaining lanes first
        *spills*: the open group closes as-is and the entry opens a
        fresh group — which may itself close immediately if the entry
        alone reaches ``max_batch`` lanes, hence up to two batches.
        Returned batches have already left the queue — the caller (the
        submitting thread) executes them inline, which is what makes the
        batch-full path zero-latency: no handoff to the dispatcher.
        """
        if entry.lanes > self.max_batch:
            raise ValueError(
                f"entry of {entry.lanes} lanes exceeds max_batch {self.max_batch}"
            )
        closed: list[Batch] = []
        group = self._groups.get(key)
        if group is not None and group.lanes + entry.lanes > self.max_batch:
            closed.append(self._close(key, group))
            group = None
        if group is None:
            group = self._groups[key] = _Group(opened_at=now)
        group.entries.append(entry)
        group.lanes += entry.lanes
        self._pending += entry.lanes
        if group.lanes >= self.max_batch:
            closed.append(self._close(key, group))
        return closed

    def next_deadline(self) -> float | None:
        """When the oldest open group must flush (``None`` if empty)."""
        if not self._groups:
            return None
        return min(g.opened_at for g in self._groups.values()) + self.deadline_s

    def take_due(self, now: float) -> list[Batch]:
        """Close and return every group whose deadline has passed."""
        due = [
            key
            for key, g in self._groups.items()
            if g.opened_at + self.deadline_s <= now
        ]
        return [self._close(key, self._groups[key]) for key in due]

    def take_all(self) -> list[Batch]:
        """Close and return every open group (shutdown drain)."""
        return [self._close(key, g) for key, g in list(self._groups.items())]

    def _close(self, key: Hashable, group: _Group) -> Batch:
        del self._groups[key]
        self._pending -= group.lanes
        batch = Batch(
            batch_id=self._next_batch_id, key=key, entries=tuple(group.entries)
        )
        self._next_batch_id += 1
        return batch
