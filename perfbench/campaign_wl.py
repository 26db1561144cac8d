"""The in-process workloads: ``validate`` and ``faults``.

Both call the program's public campaign entry points inline
(``workers=1``) in this process, repeatedly, until the measured time is
over.  The untraced run measures in segments with a fresh-process
set-up before each, so set-up times and throughput sample the same
stretch of host time.  Outputs are checked against a second engine
outside the timed region.  The traced run measures an untraced window
first (the reference for ``trace.overhead_x``), then installs the layer
wrappers and measures a traced window of the same length.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time

import spans
from host import (
    HostWindow,
    SpeedSampler,
    host_summary,
    median,
    percentile,
    self_peak_rss_mb,
)

_PROBE_TIMEOUT_S = 120.0

VALIDATE_LAYERS = (
    "rng.words",
    "rng.scale",
    "hdl.pack",
    "hdl.kernel",
    "hdl.unpack",
    "lehmer.rank",
    "stream.accumulate",
)
FAULT_LAYERS = ("campaign.plan", "campaign.sweep")


def setup_time(ctx, kind: str, seed: int, i: int) -> tuple:
    """Process start to the ``i``-th set-up probe's ``first`` line:
    ``(wall seconds, the same at nominal host speed)``, scaled by the
    host speed the probe sampled in itself."""
    probe = os.path.join(ctx.bench, "setup_probe.py")
    probe_seed = random.Random(f"{seed}/setup/{i}").getrandbits(31)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, probe, kind, str(probe_seed)],
        cwd=ctx.root,
        env=ctx.env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = ctx.readline(proc, _PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
    finally:
        proc.terminate()
        proc.communicate(timeout=_PROBE_TIMEOUT_S)
    word, _, speed = line.partition(" ")
    if word != "first":
        raise RuntimeError(f"{kind} set-up probe failed (exit {proc.returncode})")
    return elapsed, elapsed * float(speed)


def _measure(ctx, kind, seed, seconds, trace, rec, table, hooks, warm_up, unit):
    """Warm up, then measure ``unit(traced, timed)`` for ``seconds``.

    Untraced, the time is cut into ``setups_per_run`` segments with one
    fresh-process set-up before each.  With ``trace``, one untraced and
    one traced window of ``seconds`` each, without set-ups.  ``unit``
    runs each campaign of one unit of work through ``timed(fn, *args)``,
    which returns ``(result, wall seconds, nominal seconds)``: the
    call's CPU time (stolen time excluded) at the nominal host speed,
    from the :class:`~host.SpeedSampler` samples taken during it.
    ``unit`` returns ``(work, wall_s, nominal_s, results, attempted,
    failed)``, with ``None`` times when its work failed.  A phase's rate
    is its work over its nominal seconds.
    """

    def phase(traced: bool, setups: int) -> dict:
        out = {"work": 0, "latencies": [], "raw_latencies": [], "results": [],
               "attempted": 0, "failed": 0, "setup": [], "raw_setup": []}
        segments = max(1, setups)
        measured = 0.0
        windows = []
        sampler = SpeedSampler()

        def timed(fn, *args):
            i0 = sampler.mark()
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
            return result, wall, sampler.nominal(i0, sampler.mark())

        for i in range(segments):
            if i < setups:
                raw, scaled = setup_time(ctx, kind, seed, i)
                out["raw_setup"].append(raw)
                out["setup"].append(scaled)
            # segment i ends when the measured time reaches its share, so
            # one segment's overrun shortens the next
            until = seconds * (i + 1) / segments
            window = HostWindow()
            t_start = time.perf_counter()
            with sampler:
                while measured + time.perf_counter() - t_start < until:
                    work, wall, nominal, results, attempted, failed = unit(
                        traced, timed)
                    if wall is not None:
                        out["work"] += work
                        out["latencies"].append(nominal)
                        out["raw_latencies"].append(wall)
                    out["results"] += results
                    out["attempted"] += attempted
                    out["failed"] += failed
            measured += time.perf_counter() - t_start
            windows.append(window.close())
        out["rate"] = out["work"] / sum(out["latencies"])
        out["raw_rate"] = out["work"] / sum(out["raw_latencies"])
        out["host"] = host_summary(windows, sampler.speeds())
        return out

    try:
        warm_up()
        plain = phase(False, 0 if trace else ctx.spec["setups_per_run"])
        rss = self_peak_rss_mb()
        traced = None
        if trace:
            rec.install(table, hooks)
            traced = phase(True, 0)
    finally:
        rec.uninstall()
    return plain, rss, traced


def _report(throughput_name, units, wrong, plain, rss, traced, rec, layers):
    lat = sorted(plain["latencies"])
    raw = sorted(plain["raw_latencies"])
    out = {
        "wrong": wrong,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "host": plain["host"],
        "units": units,
        "throughput_name": throughput_name,
        "e2e": {
            "throughput_per_s": plain["rate"],
            "p50_ms": percentile(lat, 0.5) * 1e3,
            "p99_ms": percentile(lat, 0.99) * 1e3,
            "setup_s": median(plain["setup"]) if plain["setup"] else None,
            "peak_rss_mb": rss,
        },
        "raw": {
            "throughput_per_s": plain["raw_rate"],
            "p50_ms": percentile(raw, 0.5) * 1e3,
            "p99_ms": percentile(raw, 0.99) * 1e3,
            "setup_s": median(plain["raw_setup"]) if plain["raw_setup"] else None,
        },
        "latencies": lat,
        "setups": len(plain["setup"]),
    }
    if traced is None:
        return out, None
    table = spans.layer_table(rec.spans)
    wall = sum(s[3] - s[2] for s in spans.root_spans(rec.spans))
    rows = []
    for layer in layers:
        row = table.get(layer, {"self_s": 0.0, "calls": 0})
        rows.append((layer, row["self_s"], row["calls"]))
    rows.append(("unattributed", wall - sum(r[1] for r in rows), 0))
    out["attempted"] += traced["attempted"]
    out["failed"] += traced["failed"]
    out["stage_total"] = ("traced wall", wall)
    out["stages"] = rows
    out["units_traced"] = spans.unit_summary(rec.spans)
    out["layers"] = {
        "trace.unattributed_share": (rows[-1][1] / wall if wall else 0.0, None),
        "trace.overhead_x": (plain["rate"] / traced["rate"], None),
    }
    return out, table


def _per_call(table: dict, layer: str, scale: float) -> tuple:
    """``(self time per call x scale, calls)`` of one layer."""
    row = table.get(layer)
    if not row or not row["calls"]:
        return 0.0, 0
    return row["self_s"] / row["calls"] * scale, row["calls"]


# --------------------------------------------------------------------- #
# validate


def run_validate(ctx, seed: int, seconds: float, trace: bool) -> dict:
    from repro.analysis import stream
    from repro.errors import WorkerFailedError

    cfg = ctx.spec["workloads"]["validate"]
    samples = cfg["samples"]
    # one campaign seed per run, as for faults: every repeat of the
    # campaign is the same work and must reproduce the same state
    campaign_seed = random.Random(seed).getrandbits(31)
    rec = spans.Recorder()

    def campaign(n: int, **config):
        return stream.run_population_campaign(
            stream.CampaignConfig(seed=campaign_seed, samples=n, **config),
            shards=1,
            workers=1,
        )

    # span units: a block's work starts by drawing its indices and ends
    # by folding its permutations into the accumulators
    blocks = {"campaign": None, "ids": None}

    def open_block(rec, args, kwargs):
        return rec.set_unit(f"{blocks['campaign']} block {next(blocks['ids'])}")

    def close_block(rec, args, kwargs, result):
        rec.set_unit(blocks["campaign"])

    hooks = {"rng.scale": (open_block, None), "stream.accumulate": (None, close_block)}
    campaigns = itertools.count()

    def unit(traced: bool, timed):
        try:
            if traced:
                blocks["campaign"] = rec.set_unit(f"campaign {next(campaigns)}")
                blocks["ids"] = itertools.count()
                res, wall, nominal = timed(
                    rec.call, "validate.campaign", campaign, samples)
            else:
                res, wall, nominal = timed(campaign, samples)
        except WorkerFailedError as exc:  # the campaign's one shard failed
            print(f"  validate campaign failed: {exc}")
            return 0, None, None, [], 1, 1
        return res.stats.samples, wall, nominal, [res], 1, 0

    plain, rss, traced = _measure(
        ctx, "validate", seed, seconds, trace, rec, spans.VALIDATE, hooks,
        lambda: campaign(samples // 4), unit,
    )

    wrong = []
    results = plain["results"] + (traced["results"] if traced else [])
    if results:
        first = results[0]
        state = first.stats.state_dict()
        if not first.verdict["passed"]:
            wrong.append(f"campaign seed {campaign_seed}: verdict failed "
                         f"{first.verdict['gates']}")
        if any(r.stats.state_dict() != state for r in results[1:]):
            wrong.append("repeated campaigns disagree")
        # the same campaign on a second engine
        if campaign(samples, engine=cfg["check_engine"]).stats.state_dict() != state:
            wrong.append(f"{cfg['check_engine']} engine state differs")

    out, table = _report(
        "perms_per_s", f"{len(plain['results'])} campaigns x {samples} samples",
        wrong, plain, rss, traced, rec, VALIDATE_LAYERS,
    )
    if table is not None:
        for layer in VALIDATE_LAYERS:
            out["layers"][f"{layer}_us"] = _per_call(table, layer, 1e6)
    return out


# --------------------------------------------------------------------- #
# faults


def _signature(res) -> tuple:
    return (res.total, res.benign, res.detected, res.silent, res.test_vectors,
            res.examples)


def run_faults(ctx, seed: int, seconds: float, trace: bool) -> dict:
    from repro.obs.events import CollectingSink
    from repro.robustness.campaign import CampaignSpec, run_campaign

    cfg = ctx.spec["workloads"]["faults"]
    test_seed = random.Random(seed).getrandbits(31)
    specs = [
        CampaignSpec(circuit="converter", n=ctx.spec["n"], model=m, seed=test_seed)
        for m in cfg["models"]
    ]
    rec = spans.Recorder()
    sweeps = []  # (faults, sweeps) per traced campaign
    campaigns = itertools.count()

    def campaign(spec):
        sink = CollectingSink()
        res = run_campaign(spec, workers=1, degrade=True, events=sink)
        shards = next(e.fields["shards"] for e in sink.events if e.kind == "plan")
        return res, shards

    def unit(traced: bool, timed):  # a stuck-at + SEU pair is the unit
        results, attempted, failed, faults = [], 0, 0, 0
        wall = nominal = 0.0
        for spec in specs:
            if traced:  # span unit: the campaign
                rec.set_unit(f"campaign {next(campaigns)} {spec.model}")
                (res, shards), w, n = timed(rec.call, "faults.campaign", campaign,
                                            spec)
                sweeps.append((res.total, res.sweeps))
            else:
                (res, shards), w, n = timed(campaign, spec)
            wall += w
            nominal += n
            results.append((spec, res))
            attempted += shards
            failed += res.failed_shards
            faults += res.total
        return faults, wall, nominal, results, attempted, failed

    def warm_up():  # kernel compilation, netlist caches
        for spec in specs:
            campaign(spec)

    plain, rss, traced = _measure(
        ctx, "faults", seed, seconds, trace, rec, spans.FAULTS, None, warm_up, unit
    )

    wrong = []
    timed = plain["results"] + (traced["results"] if traced else [])
    for spec in specs:  # every timed result against a second engine
        ref = _signature(
            run_campaign(dataclasses.replace(spec, engine=cfg["check_engine"]),
                         workers=1, degrade=True)
        )
        if any(s == spec and _signature(res) != ref for s, res in timed):
            wrong.append(
                f"{spec.model} campaign differs from the {cfg['check_engine']} engine"
            )

    out, table = _report(
        "faults_per_s", f"{len(plain['latencies'])} stuck-at + SEU campaign pairs",
        wrong, plain, rss, traced, rec, FAULT_LAYERS,
    )
    if table is not None:
        total, swept = (sum(v) for v in zip(*sweeps))
        out["layers"].update({
            "campaign.plan_ms": _per_call(table, "campaign.plan", 1e3),
            "campaign.sweep_ms": _per_call(table, "campaign.sweep", 1e3),
            "campaign.faults_per_sweep": (total / swept if swept else 0.0, swept),
        })
    return out
