"""Host conditions, process memory and percentile helpers."""

from __future__ import annotations

import bisect
import math
import os
import resource
import signal
import time

# /proc/stat cpu fields: user nice system idle iowait irq softirq steal
_STEAL = 7
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_ticks(cpu: int | None = None) -> list[int]:
    """/proc/stat ticks of all CPUs, or of CPU ``cpu``."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == label:
                return [int(v) for v in fields[1:9]]
    raise LookupError(f"{label} not in /proc/stat")


class HostWindow:
    """CPU ticks and this process's CPU and wall time over one window.

    :func:`host_summary` merges windows, so a run measured in several
    segments reports its host conditions over the segments only.
    """

    def __init__(self) -> None:
        self._ticks = _cpu_ticks()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def close(self) -> dict:
        delta = [b - a for a, b in zip(self._ticks, _cpu_ticks())]
        return {
            "steal": delta[_STEAL],
            "ticks": sum(delta),
            "cpu_s": time.process_time() - self._cpu,
            "wall_s": time.perf_counter() - self._wall,
        }


def host_summary(windows, speeds, cpus: int | None = None, pinned=None) -> dict:
    """``nproc`` (``cpus`` when the run was pinned to vCPU ``pinned``),
    CPU steal share, this process's busy share and the median host
    speed (see :class:`SpeedSampler`)."""
    steal = sum(w["steal"] for w in windows)
    ticks = sum(w["ticks"] for w in windows)
    cpu = sum(w["cpu_s"] for w in windows)
    wall = sum(w["wall_s"] for w in windows)
    return {
        "nproc": nproc() if cpus is None else cpus,
        "steal_share": steal / ticks if ticks else 0.0,
        "busy_share": cpu / wall if wall > 0 else 0.0,
        "speed": median(speeds),
        "pinned": pinned,
    }


# Host speed.  On a shared VM the speed of each vCPU swings by up to 2x
# within seconds as other tenants load the core under it, with no steal
# showing in /proc/stat, and no run length averages that out.  Times are
# therefore scaled to a nominal host speed measured while the work
# runs: an interval timer runs a short, fixed pure-Python reference
# loop every SAMPLE_EVERY_S, and the nominal speed is the one at which
# that loop takes NOMINAL_SAMPLE_S.  The in-process workloads sample
# inside the work itself, on a CPU-time timer, and time the work in CPU
# time, which leaves stolen time out; the load generator, pinned to one
# vCPU with the server, samples on a wall-clock timer and also reads the
# time stolen from that vCPU.
NOMINAL_SAMPLE_S = 0.0003
SAMPLE_EVERY_S = 0.02
_SAMPLE_ITERATIONS = 1500


def _reference_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(_SAMPLE_ITERATIONS):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 1023] = acc
    return time.perf_counter() - t0


class SpeedSampler:
    """Host-speed samples taken while the measured code runs.

    While the sampler is entered, a timer fires every ``SAMPLE_EVERY_S``
    of this process's CPU time (``SIGPROF``) or, with ``wall``, of wall
    time (``SIGALRM``), and the handler times the reference loop in the
    main thread, between two bytecodes of whatever runs there.
    :meth:`nominal` turns the time between two :meth:`mark` calls into
    seconds at the nominal speed: each interval between adjacent samples
    is scaled by the mean speed of its two end samples, and the samples'
    own time is left out.  :meth:`speed` is the median speed over a
    stretch of wall time.
    """

    def __init__(self, wall: bool = False, steal_cpu: int | None = None) -> None:
        self._steal_cpu = steal_cpu
        if wall:
            self._timer, self._signal = signal.ITIMER_REAL, signal.SIGALRM
            self._clock = time.perf_counter
        else:
            self._timer, self._signal = signal.ITIMER_PROF, signal.SIGPROF
            self._clock = time.process_time
        # (clock before the loop, loop seconds, clock after it, stolen
        # ticks of steal_cpu so far)
        self.samples: list[tuple] = []
        self._previous = None
        self._times: list[float] = []
        self._speeds: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t = self._clock()
        ref = _reference_s()
        stolen = 0 if self._steal_cpu is None else _cpu_ticks(self._steal_cpu)[_STEAL]
        self.samples.append((t, ref, self._clock(), stolen))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(self._signal, self._sample)
        self._sample()
        signal.setitimer(self._timer, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(self._timer, 0)
        signal.signal(self._signal, self._previous)

    def mark(self) -> int:
        """Take a sample now; return its index."""
        self._sample()
        return len(self.samples) - 1

    def nominal(self, i0: int, i1: int) -> float:
        """Nominal seconds of CPU time between marks ``i0`` and ``i1``."""
        s = self.samples
        return sum(
            (s[k][0] - s[k - 1][2]) * 2 * NOMINAL_SAMPLE_S / (s[k][1] + s[k - 1][1])
            for k in range(i0 + 1, i1 + 1)
        )

    def speeds(self) -> list[float]:
        """Each sample's speed relative to the nominal speed."""
        return [NOMINAL_SAMPLE_S / s[1] for s in self.samples]

    def _range(self, t0: float, t1: float) -> tuple:
        if len(self._times) != len(self.samples):
            self._times = [s[0] for s in self.samples]
            self._speeds = self.speeds()
        return (bisect.bisect_left(self._times, t0),
                bisect.bisect_right(self._times, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Median speed of the samples started in ``[t0, t1]`` (a sample
        that a burst of steal hit is an outlier), or of the last one
        before ``t1`` when none was.  Call after sampling."""
        lo, hi = self._range(t0, t1)
        if hi > lo:
            return median(self._speeds[lo:hi])
        return self._speeds[max(0, hi - 1)]

    def stolen_s(self, t0: float, t1: float) -> float:
        """Seconds stolen from ``steal_cpu`` between the samples around
        ``[t0, t1]`` (0 when it is not read).  Call after sampling."""
        if self._steal_cpu is None:
            return 0.0
        lo, hi = self._range(t0, t1)
        first = self.samples[max(0, lo - 1)][3]
        last = self.samples[min(hi, len(self.samples) - 1)][3]
        return (last - first) / _CLK_TCK

    def nominal_span(self, t0: float, t1: float) -> float:
        """Wall seconds ``[t0, t1]`` at nominal speed, less the time
        stolen from ``steal_cpu`` around them."""
        span = t1 - t0
        span = max(0.1 * span, span - self.stolen_s(t0, t1))
        return span * self.speed(t0, t1)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, 0 when it is already gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(v) for v in fh.read().split())
        except FileNotFoundError:
            continue
    return out


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of an ascending list.

    ``+inf`` samples (failed frames) are kept: a quantile that reaches
    one is ``+inf``.  (``statistics.quantiles`` returns NaN there.)
    """
    if not sorted_vals:
        return math.inf
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    low = sorted_vals[lo]
    if frac == 0:
        return low
    high = sorted_vals[lo + 1]
    if math.isinf(high):
        return high
    return low + (high - low) * frac


def median(vals) -> float:
    return percentile(sorted(vals), 0.5)


def beyond(vals, threshold: float) -> int:
    """How many samples lie above ``threshold``."""
    return sum(v > threshold for v in vals)
