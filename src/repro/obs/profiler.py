"""Continuous sampling profiler: phase attribution without slowing code.

``sys.setprofile``-style tracing multiplies the cost of every function
call, which would invalidate the very latencies this repo measures.
:class:`SamplingProfiler` instead runs one daemon thread that wakes
every ``interval_s``, grabs a snapshot of every other thread's stack via
``sys._current_frames()`` (one C call; the profiled threads never
execute a single extra bytecode), and attributes the sample to a
**phase** — LFSR draws, lane pack/unpack, compiled-kernel execution,
ranking, statistics accumulation, the micro-batcher, the
serving/supervision layer, the worker pool, the network front end,
map-reduce sharding — by matching frames innermost-first against a rule
table keyed on file path and function name.

Alongside the phase tally it keeps *folded stacks* (the
``a;b;c count`` format flamegraph tools eat) with a bounded table:
beyond ``max_stacks`` distinct stacks new ones collapse into an
``__overflow__`` row, the same budget discipline as the metrics
registry's label-cardinality bound.

The profiler is approximate by construction — a phase that never holds
the CPU for a full interval can be missed — but it is *safe to leave on
in production*, which a tracing profiler is not.  Reports are
``repro-profile/1`` JSON documents (:meth:`SamplingProfiler.report`,
:func:`validate_profile`).
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time

__all__ = [
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "classify_frame",
    "validate_profile",
]

PROFILE_SCHEMA = "repro-profile/1"

#: Stack-frame → phase rules, matched innermost-first; first hit wins.
#: Each rule is ``(phase, path_fragment, function_prefix)`` — empty
#: fragment/prefix matches anything.  Phases that have a benchmark stage
#: carry its name (``rng``, ``pack_unpack``, ``kernel``, ``rank``,
#: ``accumulate``, ``pool``, ``net``).
_PHASE_RULES: tuple[tuple[str, str, str], ...] = (
    ("kernel", "", "_kernel"),  # the generated straight-line sweep fn
    ("pack_unpack", "hdl/compile.py", "pack_lanes"),
    ("pack_unpack", "hdl/compile.py", "unpack_lanes"),
    # the packed-lane driver's boundary transposes (pack_bus,
    # packed_bit_columns, unpack_buses, _fold_bits and the lazy bus reads
    # of PackedOutputs / VectorOutputs) and each lane format's
    # pack_rows / unpack_rows / pack_bools / unpack_bools
    ("pack_unpack", "hdl/simulator.py", "pack"),
    ("pack_unpack", "hdl/simulator.py", "unpack"),
    ("pack_unpack", "hdl/simulator.py", "_fold_bits"),
    ("pack_unpack", "hdl/simulator.py", "__getitem__"),
    ("pack_unpack", "hdl/vector.py", "pack"),
    ("pack_unpack", "hdl/vector.py", "unpack"),
    ("pack_unpack", "hdl/vector.py", "vec_from_ints"),
    ("pack_unpack", "hdl/vector.py", "lanes_to_words"),
    ("pack_unpack", "hdl/vector.py", "words_to_lanes"),
    ("kernel", "hdl/compile.py", ""),
    ("kernel", "hdl/simulator.py", ""),
    ("kernel", "hdl/vector.py", ""),
    ("rng", "repro/rng/", ""),
    ("rank", "core/lehmer.py", ""),
    ("rank", "analysis/uniformity.py", "rank_bucket_counts"),
    ("accumulate", "repro/analysis/", ""),
    ("batcher", "serve/batcher.py", ""),
    ("serve", "serve/service.py", ""),
    ("supervise", "serve/supervisor.py", ""),
    ("engine", "serve/engine.py", ""),
    ("pool", "serve/pool.py", ""),
    ("net", "serve/net/", ""),
    ("sharding", "parallel/sharding.py", ""),
)

_OVERFLOW_STACK = "__overflow__"


def classify_frame(filename: str, funcname: str) -> str | None:
    """The phase for one frame, or ``None`` when no rule matches."""
    path = filename.replace("\\", "/")
    for phase, fragment, prefix in _PHASE_RULES:
        if fragment and fragment not in path:
            continue
        if prefix and not funcname.startswith(prefix):
            continue
        return phase
    return None


def _classify_stack(frame) -> tuple[str, list[str]]:
    """Phase (innermost match, ``"other"`` fallback) + folded frames."""
    phase: str | None = None
    frames: list[str] = []
    f = frame
    while f is not None:
        code = f.f_code
        frames.append(code.co_name)
        if phase is None:
            phase = classify_frame(code.co_filename, code.co_name)
        f = f.f_back
    frames.reverse()  # outermost first, the folded-stack convention
    return phase if phase is not None else "other", frames


class SamplingProfiler:
    """Samples every thread's stack on a fixed interval; start/stop safe.

    ``interval_s`` is the sampling period (default 5 ms ≈ 200 Hz — cheap
    enough to leave on, fine enough to see millisecond phases).
    ``max_stacks`` bounds the folded-stack table.  Use as a context
    manager or via :meth:`start`/:meth:`stop`; :meth:`report` and
    :meth:`dump` work while running or after stopping.
    """

    def __init__(self, interval_s: float = 0.005, max_stacks: int = 512):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_stacks < 1:
            raise ValueError("max_stacks must be positive")
        self.interval_s = interval_s
        self.max_stacks = max_stacks
        self.samples = 0
        self.phase_counts: dict[str, int] = {}
        self.stack_counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._wall_s = 0.0

    # ------------------------------------------------------------------ #

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        if self._started_at is not None:
            self._wall_s += time.perf_counter() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(me)

    def _sample(self, own_ident: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                phase, stack = _classify_stack(frame)
                self.samples += 1
                self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1
                folded = ";".join(stack)
                if (
                    folded not in self.stack_counts
                    and len(self.stack_counts) >= self.max_stacks
                ):
                    folded = _OVERFLOW_STACK
                self.stack_counts[folded] = self.stack_counts.get(folded, 0) + 1

    # ------------------------------------------------------------------ #

    def report(self, top_stacks: int = 40) -> dict:
        """The profile as a ``repro-profile/1`` document."""
        with self._lock:
            phases = dict(sorted(self.phase_counts.items()))
            stacks = sorted(
                self.stack_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )[:top_stacks]
            samples = self.samples
        wall = self._wall_s
        if self._started_at is not None:
            wall += time.perf_counter() - self._started_at
        return {
            "schema": PROFILE_SCHEMA,
            "interval_s": self.interval_s,
            "wall_s": wall,
            "samples": samples,
            "phases": phases,
            "phase_fractions": {
                p: c / samples for p, c in phases.items()
            }
            if samples
            else {},
            "stacks": [
                {"stack": folded, "count": count} for folded, count in stacks
            ],
        }

    def dump(self, path: str | pathlib.Path, top_stacks: int = 40) -> dict:
        doc = self.report(top_stacks=top_stacks)
        pathlib.Path(path).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )
        return doc


def validate_profile(doc: object) -> None:
    """Raise :class:`ValueError` unless ``doc`` is a valid profile dump."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ValueError("profile must be a JSON object")
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("samples"), int) or doc.get("samples", -1) < 0:
        problems.append("samples must be a non-negative integer")
    phases = doc.get("phases")
    if not isinstance(phases, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in phases.items()
    ):
        problems.append("phases must map phase name to sample count")
    elif isinstance(doc.get("samples"), int) and sum(phases.values()) != doc["samples"]:
        problems.append("phase counts must sum to samples")
    stacks = doc.get("stacks")
    if not isinstance(stacks, list) or not all(
        isinstance(s, dict)
        and isinstance(s.get("stack"), str)
        and isinstance(s.get("count"), int)
        for s in stacks
    ):
        problems.append("stacks must be [{stack, count}] rows")
    if problems:
        raise ValueError("; ".join(problems))
