"""Multi-process serving benchmark: socket front end over the worker pool.

One measurement campaign, written to ``results/serving_mp.{txt,json}``:

1. **Throughput vs worker count** — the socket load generator drives a
   live ``repro-serve/1`` TCP front end backed by a
   :class:`~repro.serve.pool.PooledService` at 1/2/4/8 replica workers
   per shard.  Every frame is a full 63-lane unrank sweep (one frame =
   one worker sweep, the pool's unit of parallelism) and every response
   is verified client-side against the rank oracle.  The table records
   lane throughput, client-observed latency percentiles and
   availability per worker count; every row must keep availability
   ≥ 0.99 — 4–8 frames in flight are far inside the admission bound, so
   a shed frame there is a backpressure bug, not load.
2. **Seeded worker-crash chaos** — the same load with a killer thread
   hard-crashing a pool worker every few milliseconds.  The supervision
   ladder must absorb every crash: zero incorrect responses, every
   crashed sweep served by the fallback rung, restarts recorded.

The scaling assertion (1 → 4 workers must reach ≥ 2.5×; smoke relaxes
to ≥ 1×) only makes sense when the host actually has cores to scale
onto, so it is gated on ``os.cpu_count() >= 4`` — the recorded ``cores``
field keeps single-core runs honest in the history ledger.  Hosts below
the gate still assert a no-collapse floor: more workers must never cost
more than 60 % of single-worker throughput.

The front result cache is disabled (wide frames skip it anyway) so
every lane is a real sweep and the scaling numbers measure the pool,
not cache luck.
"""

import os
import threading
import time

from conftest import write_report

from repro.serve import (
    LadderConfig,
    NetServer,
    PooledService,
    ServiceConfig,
    run_socket_loadgen,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 8
FRAME_LANES = 63  # one compiled sweep quantum per socket frame
WORKER_COUNTS = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
FRAMES = 48 if SMOKE else 240
CONNECTIONS = 4 if SMOKE else 8
DEPTH = 2
TRIALS = 2 if SMOKE else 3
CHAOS_FRAMES = 32 if SMOKE else 120
CHAOS_WORKERS = 2 if SMOKE else 4
CHAOS_KILL_PERIOD_S = 0.03
CORES = os.cpu_count() or 1
SCALING_GATE_CORES = 4
MIN_SCALING_X = 1.0 if SMOKE else 2.5
MIN_NO_COLLAPSE_X = 0.4  # ungated floor: parallelism must never implode
MIN_AVAILABILITY = 0.99  # every non-chaos row
SEED = 11


def _configs(workers: int) -> tuple[ServiceConfig, LadderConfig]:
    return (
        ServiceConfig(batch_deadline_s=0.002, cache_capacity=0),
        LadderConfig(workers=workers, restart_backoff_s=0.02),
    )


def _drive(svc: PooledService, server: NetServer, frames: int):
    host, port = server.address
    return run_socket_loadgen(
        host,
        port,
        N,
        total=frames,
        connections=CONNECTIONS,
        depth=DEPTH,
        frame_count=FRAME_LANES,
        mix={"unrank": 1.0},
        seed=SEED,
        verify=True,
    )


def _point(workers: int) -> dict:
    """Best-of-TRIALS socket run at one worker count."""
    best = None
    for _ in range(TRIALS):
        cfg, pool_cfg = _configs(workers)
        with PooledService(cfg, pool_cfg) as svc:
            with NetServer(svc) as server:
                _drive(svc, server, CONNECTIONS * DEPTH)  # warm: spawn + compile
                report = _drive(svc, server, FRAMES)
            stats = svc.stats()["pool"]
        assert report.incorrect == 0, (
            f"{report.incorrect} wrong responses at {workers} workers"
        )
        assert report.completed == FRAMES
        if best is None or report.lanes_per_second > best[0].lanes_per_second:
            best = (report, stats)
    report, stats = best
    pct = report.latency_percentiles()
    return {
        "workers": workers,
        "lanes_per_s": report.lanes_per_second,
        "frames_per_s": report.throughput_rps,
        "p50_ms": pct["p50"] * 1e3,
        "p99_ms": pct["p99"] * 1e3,
        "availability": report.availability,
        "shed": report.shed,
        "restarts": stats["restarts"],
        "served_fallback": stats["served_fallback"],
    }


def _chaos_trial() -> dict:
    """Kill a worker every few ms under verified load; count the carnage."""
    cfg, pool_cfg = _configs(CHAOS_WORKERS)
    killed = 0
    with PooledService(cfg, pool_cfg) as svc:
        with NetServer(svc) as server:
            _drive(svc, server, CONNECTIONS * DEPTH)  # warm
            stop = threading.Event()

            def killer():
                nonlocal killed
                while not stop.is_set():
                    if svc.pool.kill_worker() is not None:
                        killed += 1
                    time.sleep(CHAOS_KILL_PERIOD_S)

            t = threading.Thread(target=killer, name="chaos-killer")
            t.start()
            try:
                report = _drive(svc, server, CHAOS_FRAMES)
            finally:
                stop.set()
                t.join()
        stats = svc.stats()["pool"]
    return {
        "workers": CHAOS_WORKERS,
        "killed": killed,
        "incorrect": report.incorrect,
        "completed": report.completed,
        "availability": report.availability,
        "restarts": stats["restarts"],
        "served_fallback": stats["served_fallback"],
    }


def test_multiprocess_serving_scales_and_survives_chaos(benchmark, results_dir):
    points = [_point(w) for w in WORKER_COUNTS]
    benchmark.pedantic(lambda: _point(1), rounds=1, iterations=1)

    for p in points:
        assert p["availability"] >= MIN_AVAILABILITY, (
            f"{p['workers']} workers shed {p['shed']} frames "
            f"(availability {p['availability']:.4f} < {MIN_AVAILABILITY})"
        )
    by_workers = {p["workers"]: p for p in points}
    scaling_1_to_4 = (
        by_workers[4]["lanes_per_s"] / by_workers[1]["lanes_per_s"]
        if 4 in by_workers
        else None
    )
    scaling_enforced = scaling_1_to_4 is not None and CORES >= SCALING_GATE_CORES
    if scaling_enforced:
        assert scaling_1_to_4 >= MIN_SCALING_X, (
            f"1→4 workers scaled {scaling_1_to_4:.2f}x on {CORES} cores, "
            f"required {MIN_SCALING_X}x"
        )
    # even on a starved host, more workers must not collapse throughput
    widest = points[-1]
    no_collapse = widest["lanes_per_s"] / by_workers[1]["lanes_per_s"]
    assert no_collapse >= MIN_NO_COLLAPSE_X, (
        f"{widest['workers']} workers ran at {no_collapse:.2f}x the "
        f"single-worker rate — the pool is serialising somewhere"
    )

    chaos = _chaos_trial()
    assert chaos["incorrect"] == 0, (
        f"{chaos['incorrect']} wrong responses under worker-crash chaos"
    )
    assert chaos["completed"] == CHAOS_FRAMES
    assert chaos["killed"] >= 1, "chaos trial never landed a kill"
    assert chaos["restarts"] >= 1, "killed workers were never respawned"

    table = "\n".join(
        f"  {p['workers']:>7}  {p['lanes_per_s']:>12.0f}  "
        f"{p['frames_per_s']:>10.1f}  {p['p50_ms']:>8.3f}  "
        f"{p['p99_ms']:>8.3f}  {p['availability']:>6.4f}  {p['restarts']:>8}"
        for p in points
    )
    scaling_txt = (
        f"{scaling_1_to_4:.2f}x" if scaling_1_to_4 is not None else "n/a"
    )
    gate_txt = (
        f"enforced (>= {MIN_SCALING_X}x)"
        if scaling_enforced
        else f"recorded only ({CORES} cores < {SCALING_GATE_CORES})"
    )
    write_report(
        results_dir,
        "serving_mp",
        f"Multi-process serving (repro-serve/1 over TCP, unrank n={N}, "
        f"{FRAME_LANES} lanes/frame, front cache off, verified)\n"
        f"host cores: {CORES}\n\n"
        f"  {'workers':>7}  {'lanes/s':>12}  {'frames/s':>10}  "
        f"{'p50 ms':>8}  {'p99 ms':>8}  {'avail':>6}  {'restarts':>8}\n"
        + table
        + f"\n\nscaling 1→4 workers: {scaling_txt}  [{gate_txt}]\n\n"
        f"worker-crash chaos ({CHAOS_WORKERS} workers, kill every "
        f"{CHAOS_KILL_PERIOD_S * 1e3:.0f} ms):\n"
        f"  killed={chaos['killed']}  restarts={chaos['restarts']}  "
        f"fallback={chaos['served_fallback']}  "
        f"incorrect={chaos['incorrect']}  "
        f"availability={chaos['availability']:.4f}",
        benchmark=benchmark,
        data={
            "n": N,
            "smoke": SMOKE,
            "cores": CORES,
            "frame_lanes": FRAME_LANES,
            "connections": CONNECTIONS,
            "depth": DEPTH,
            "frames": FRAMES,
            "points": points,
            "scaling_1_to_4_x": scaling_1_to_4,
            "scaling_enforced": scaling_enforced,
            "min_scaling_x": MIN_SCALING_X,
            "chaos": chaos,
        },
    )
