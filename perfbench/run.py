"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-rpc|serve-bulk|validate|faults|all
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` repeats the untraced measurement as
the overhead reference, measures again with layer wrappers installed
and prints the per-layer metrics with their call counts and the stage
table that adds up to the measured total.  Every run checks the
program's outputs; a wrong output fails the run (exit 1) and no metric
is written down.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``all`` runs
each workload in its own process and prefixes its metrics with
``<workload>.``.  End-to-end times are reported at a nominal host speed
(see ``host.SpeedSampler``), with the wall-clock figures beside them.

Workload configuration, seeds and the rationale of every metric live in
``perfbench/spec.json``; the metric names and units in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import subprocess
import sys

from host import beyond, percentile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


class Context:
    """Paths, environment and configuration shared by the workloads."""

    def __init__(self) -> None:
        self.root = ROOT
        self.bench = BENCH
        self.workdir = os.path.join(ROOT, ".perfbench")
        with open(os.path.join(BENCH, "spec.json")) as fh:
            self.spec = json.load(fh)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.benchmark = json.load(fh)
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")

    @staticmethod
    def readline(proc, timeout: float) -> str:
        """One stdout line of ``proc``, or ``""`` on timeout or exit."""
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        return proc.stdout.readline() if ready else ""


def run_workload(ctx: Context, name: str, seed: int, seconds: float, trace: bool):
    if name in ("serve-rpc", "serve-bulk"):
        from serve_wl import run_serve

        return run_serve(ctx, name, seed, seconds, trace)
    from campaign_wl import run_faults, run_validate

    fn = run_validate if name == "validate" else run_faults
    return fn(ctx, seed, seconds, trace)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(ctx: Context, name: str, res: dict, trace: bool) -> dict:
    """Print the human-readable tables; return the JSON metrics."""
    host = res["host"]
    busy = 100 * host["busy_share"]
    if name.startswith("serve"):
        # the load generator is one thread: near a full core it, not the
        # server, set the pace
        flag = "  CLIENT SATURATED" if busy > 90 else ""
        who = f"load-generator busy={busy:.1f}%{flag}"
    else:
        who = f"campaign process busy={busy:.1f}%"
    pinned = "" if host["pinned"] is None else f" (run pinned to cpu{host['pinned']})"
    print(f"  host      nproc={host['nproc']}{pinned} "
          f"steal={100 * host['steal_share']:.1f}% {who} "
          f"speed={host['speed']:.4g}x nominal")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  fail_ratio {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} attempted)")
    units = {m["name"]: m["unit"] for m in ctx.benchmark["end_to_end"]}
    e2e = res["e2e"]
    if not trace:
        print(f"  end-to-end over {res['units']} (at nominal host speed; "
              f"wall-clock figures in brackets):")
        for metric in units:
            # the shared throughput metric under the workload's own name
            label = res["throughput_name"] if metric == "throughput_per_s" else metric
            note = ""
            if metric == "p99_ms":
                lat = res["latencies"]
                note = (f"  ({len(lat)} samples, "
                        f"{beyond(lat, e2e[metric] / 1e3)} beyond it)")
                if "all_latencies" in res:
                    every = res["all_latencies"]
                    plain = percentile(every, 0.99) * 1e3
                    note = (f"  ({len(lat)} round trips with no stolen time "
                            f"seen, {beyond(lat, e2e[metric] / 1e3)} beyond "
                            f"it; over all {len(every)}: {_fmt(plain)} ms, "
                            f"{beyond(every, plain / 1e3)} beyond it)")
            elif metric == "setup_s":
                note = f"  (median of {res['setups']} fresh starts)"
            wall = res.get("raw", {}).get(metric)
            wall = "" if wall is None else f" [{_fmt(wall)}]"
            print(f"    {label:<22} {_fmt(e2e[metric]):>14} {units[metric]}"
                  f"{wall}{note}")
        return {m: {"value": e2e[m], "unit": u} for m, u in units.items()}

    total_label, total = res["stage_total"]
    print(f"  stage table (self time; rows sum to the {total_label} "
          f"{1e3 * total:.4f} ms):")
    for stage, value, calls in res["stages"]:
        share = 100 * value / total if total else 0.0
        print(f"    {stage:<22} {1e3 * value:>12.4f} ms {share:6.1f}%  "
              f"({calls} calls)")
    print(f"    {'total':<22} {1e3 * sum(r[1] for r in res['stages']):>12.4f} ms")
    for stage, value, calls in res.get("sweep_stages", ()):
        print(f"      per sweep: {stage:<16} {1e6 * value:>10.2f} us  ({calls} calls)")
    spans_n, units_n, kinds = res["units_traced"]
    print(f"  {spans_n} spans over {units_n} units: {kinds}")
    layers = {m["name"]: m["unit"] for m in ctx.benchmark["per_layer"]}
    out = {}
    print("  per-layer:")
    for metric, unit in layers.items():
        value, calls = res["layers"].get(metric, (0.0, 0))
        count = "" if calls is None else f"  ({calls} calls)"
        print(f"    {metric:<26} {_fmt(value):>14} {unit}{count}")
        out[metric] = {"value": value, "unit": unit}
    return out


def run_all(names, args) -> int:
    """Each workload in its own process, so none inherits another's
    memory high-water mark; their metrics merge under ``<workload>.``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        correct &= res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    ok = correct and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if ok else {},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = Context()
    names = [w["name"] for w in ctx.benchmark["workloads"]]
    if args.workload == "all":
        return run_all(names, args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    name = args.workload
    seed = ctx.spec["default_seed"] if args.seed is None else args.seed
    seconds = args.seconds or ctx.benchmark["run_seconds"]
    trace = bool(args.trace)

    os.makedirs(ctx.workdir, exist_ok=True)
    metrics = {}
    try:
        print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
        res = run_workload(ctx, name, seed, seconds, trace)
        correct = not res["wrong"]
        for line in res["wrong"]:
            print(f"  WRONG OUTPUT: {line}")
        if correct:
            metrics = report(ctx, name, res, trace)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    finite = all(math.isfinite(v["value"]) for v in metrics.values())
    if not finite:
        print("  more than 1% of frames failed: p99 is unbounded")
    ok = correct and finite and res["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics if ok else {},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
