"""In-memory span recording around the program's public layer functions.

The traced run never edits the program: :meth:`Recorder.install` replaces a
function or method attribute with a wrapper that records one span per
call — ``(id, name, start, end, parent, unit, thread)`` — and
:meth:`Recorder.uninstall` puts the originals back.  Spans nest through
a per-thread stack, so a layer's *self* time is its span's duration
minus the spans it directly encloses.  ``unit`` names the frame, batch,
block or campaign the call worked for: each thread has its own current
unit (:meth:`Recorder.set_unit`), and a thread that set none reads the
process-wide one.  Spans stay in memory until :meth:`Recorder.dump`
writes them out at exit.

A forked child (the serving pool's worker process) starts with an empty
span list and writes its own file when it exits or is terminated, so
the kernel call inside the worker is covered too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import re
import signal
import threading
import time
from collections import defaultdict

# (module, class or None, attribute, layer) for every traced call site.
SERVE_FRONT = [
    ("repro.serve.net.protocol", None, "decode_request", "net.decode"),
    ("repro.serve.net.protocol", None, "encode_response", "net.encode"),
    ("repro.serve.service", "PermutationService", "submit_wide", "service.admit"),
    ("repro.serve.supervisor", "SweepSupervisor", "execute", "supervisor.execute"),
    ("repro.serve.pool", "WorkerPool", "execute", "pool.execute"),
    # both tiers import the checker by name, so patch their bindings
    ("repro.serve.supervisor", None, "check_served_batch", "check.batch"),
    ("repro.serve.pool", None, "check_served_batch", "check.batch"),
    ("repro.serve.engine", "ConverterEngine", "run", "hdl.kernel"),
    ("repro.core.knuth", "KnuthShuffleCircuit", "sample", "knuth.sweep"),
]

VALIDATE = [
    ("repro.rng.lfsr", "FibonacciLFSR", "words", "rng.words"),
    ("repro.rng.scaled", "ScaledRandomInteger", "ints", "rng.scale"),
    ("repro.hdl.vector", None, "vec_from_ints", "hdl.pack"),
    ("repro.hdl.simulator", "BatchEntry", "run", "hdl.kernel"),
    ("repro.hdl.vector", "VectorOutputs", "__getitem__", "hdl.unpack"),
    ("repro.analysis.stream", None, "rank_bucket_counts", "lehmer.rank"),
    ("repro.analysis.stream", "PopulationStats", "update", "stream.accumulate"),
]

FAULTS = [
    ("repro.robustness.campaign", None, "fault_list", "campaign.plan"),
    # imported by name inside campaign._build_netlist on every call
    ("repro.flow", None, "build_circuit", "campaign.plan"),
    ("repro.hdl.simulator", "CombinationalSimulator", "run", "campaign.sweep"),
    ("repro.hdl.simulator", "SequentialSimulator", "step", "campaign.sweep"),
]


class Recorder:
    """Collects spans from wrapped calls on every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # the unit of threads that set none of their own
        self.shared_unit = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._child_dump: str | None = None
        self._child_state = "idle"  # idle -> armed -> dumping -> done

    # -- recording ----------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def unit(self):
        """The calling thread's current unit."""
        unit = getattr(self._local, "unit", None)
        return self.shared_unit if unit is None else unit

    def set_unit(self, unit, shared: bool = False):
        """Set the calling thread's unit (and, with ``shared``, the
        process-wide one); returns ``unit``."""
        self._local.unit = unit
        if shared:
            self.shared_unit = unit
        return unit

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside one span (the workload's root spans)."""
        return self._wrap(fn, name)(*args)

    def _wrap(self, fn, name: str, enter=None, leave=None):
        """``enter(rec, args, kwargs)`` may name the span's unit before
        the call; ``leave(rec, args, kwargs, result)`` after it."""
        rec = self
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            unit = enter(rec, args, kwargs) if enter is not None else None
            if unit is None:
                unit = rec.unit()
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if leave is not None:
                    named = leave(rec, args, kwargs, result)
                    unit = unit if named is None else named
                rec.spans.append(
                    (sid, name, t0, t1, parent, unit, threading.get_ident())
                )

        return traced

    def install(self, table, hooks=None) -> None:
        """Wrap every call site of ``table`` (see the module constants).

        ``hooks`` maps a layer to its ``(enter, leave)`` unit hooks.
        """
        hooks = hooks or {}
        for module, cls, attr, layer in table:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            enter, leave = hooks.get(layer, (None, None))
            self.patch(
                owner, attr, self._wrap(getattr(owner, attr), layer, enter, leave)
            )

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``, remembering the original for undo."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------- #

    def dump(self, path: str, **extra) -> None:
        doc = {"pid": os.getpid(), "spans": self.spans, **extra}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    # -- forked children ----------------------------------------------- #

    def follow_forks(self, path_prefix: str) -> None:
        """Give each forked child an empty span list and its own file.

        The child dumps on a clean exit (multiprocessing finalizer) or on
        SIGTERM (the pool terminates retired workers).  The SIGTERM hook
        is armed on the child's first traced call, after the program has
        reset the child's signal dispositions.
        """

        def after_fork() -> None:
            self.spans = []
            self._local = threading.local()
            self.shared_unit = None
            self._child_dump = f"{path_prefix}.{os.getpid()}.json"
            self._child_state = "idle"

        os.register_at_fork(after_in_child=after_fork)

    def arm_child(self) -> bool:
        """Called from a traced call: install exit hooks once per child.

        Returns whether this process is a forked child.
        """
        if self._child_dump is None:
            return False
        if self._child_state != "idle":
            return True
        self._child_state = "armed"
        from multiprocessing import util

        util.Finalize(None, self._dump_child, exitpriority=100)

        def on_term(signum, frame):
            if self._child_state == "armed":
                self._dump_child()
            if self._child_state == "done":
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)
            # "dumping": the clean-exit path is already writing; let it end

        signal.signal(signal.SIGTERM, on_term)
        return True

    def _dump_child(self) -> None:
        if self._child_state != "armed":
            return
        self._child_state = "dumping"
        self.dump(self._child_dump)
        self._child_state = "done"


def layer_table(spans, lo: float = float("-inf"), hi: float = float("inf")) -> dict:
    """Per-layer ``{"self_s", "total_s", "calls"}`` over spans starting in
    ``[lo, hi)``.

    Self time is a span's duration minus its direct children's.  ``calls``
    counts a layer's outermost spans only, so a layer that nests in
    itself (``fault_list`` around ``build_circuit``) is one call per
    outer entry, while every nested span's self time still adds in.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for s in spans:
        if not lo <= s[2] < hi:
            continue
        row = out[s[1]]
        dur = s[3] - s[2]
        row["self_s"] += dur - child_time[s[0]]
        parent = by_id.get(s[4])
        nested = False
        while parent is not None:
            if parent[1] == s[1]:
                nested = True
                break
            parent = by_id.get(parent[4])
        if not nested:
            row["calls"] += 1
            row["total_s"] += dur
    return dict(out)


def root_spans(spans, lo: float = float("-inf"), hi: float = float("inf")):
    """Spans with no recorded parent, starting in ``[lo, hi)``."""
    return [s for s in spans if s[4] < 0 and lo <= s[2] < hi]


def unit_summary(spans) -> tuple:
    """``(spans, distinct units, unit name patterns)`` of a span list."""
    units = {s[5] for s in spans}
    kinds = sorted({re.sub(r"\d+", "#", str(u)) for u in units})
    return len(spans), len(units), ", ".join(kinds)
