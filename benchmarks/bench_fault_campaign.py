"""Robustness extension: fault-campaign throughput and checked-mode overhead.

Four questions an operator asks before enabling the robustness layer:

1. how fast do campaigns run (faults simulated per second), i.e. what
   does a nightly exhaustive stuck-at sweep cost?
2. how many sweeps does a campaign cost on each fault-parallel engine —
   pinned to the closed-form pass count of each engine's lane budget,
   with the classification identity that makes the packing trustworthy?
3. does ``auto`` pick the faster campaign engine — compiled against
   vector sweeps and wall time on the n=8 stuck-at and SEU campaigns,
   with identical classification?
4. what does online checking cost per conversion — bijectivity alone,
   and with the rank∘unrank oracle — relative to the bare converter?
"""

import statistics
import time

from conftest import write_report

from repro.core.converter import IndexToPermutationConverter
from repro.robustness.campaign import CampaignSpec, fault_list, run_campaign
from repro.robustness.checkers import CheckedConverter

N_CAMPAIGN = 5
N_WIDE = 6
N_ENGINES = 8
ENGINE_TRIALS = 7
N_CHECKED = 8
BATCH = 2048
#: Closed-form passes of the exhaustive n = 6 stuck-at campaign (456
#: faults, 64 test vectors): a vector pass holds 4,096 faults, a
#: compiled pass 32,768 // 64 - 1 = 511.
WIDE_PASSES = {"compiled": 1, "vector": 1}


def test_stuck_campaign_throughput(benchmark, results_dir):
    spec = CampaignSpec(circuit="converter", n=N_CAMPAIGN, model="stuck")

    def run():
        return run_campaign(spec)

    # the process's first campaign on this spec: planning included
    t0 = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    total = len(fault_list(spec))
    assert result.total == total
    assert result.benign + result.detected + result.silent == total
    # benchmark.stats is None under --benchmark-disable (smoke mode)
    elapsed = benchmark.stats["mean"] if benchmark.stats else wall
    throughput = total / elapsed
    write_report(
        results_dir,
        "fault_campaign",
        f"Fault-injection campaign throughput (converter n={N_CAMPAIGN}, "
        f"exhaustive stuck-at)\n"
        f"faults: {total}  time: {elapsed:.2f}s  "
        f"throughput: {throughput:.0f} faults/s\n\n" + result.render(),
        benchmark=benchmark,
        data={
            "n": N_CAMPAIGN,
            "model": "stuck",
            "faults": total,
            "elapsed_s": elapsed,
            "faults_per_second": throughput,
            "benign": result.benign,
            "detected": result.detected,
            "silent": result.silent,
        },
    )


def test_vector_campaign_faults_per_sweep(benchmark, results_dir):
    """Each fault-parallel engine runs the whole n=6 campaign in its
    closed-form pass count, with identical classification.

    Sweep counts are deterministic (pure slot arithmetic, no timing), so
    the pins and the classification identity hold on any machine, smoke
    mode included.
    """
    spec_c = CampaignSpec(
        circuit="converter", n=N_WIDE, model="stuck", engine="compiled"
    )
    spec_v = CampaignSpec(
        circuit="converter", n=N_WIDE, model="stuck", engine="vector"
    )
    total = len(fault_list(spec_c))
    res_c = run_campaign(spec_c)

    def run():
        return run_campaign(spec_v)

    res_v = benchmark.pedantic(run, rounds=1, iterations=1)

    assert (res_c.benign, res_c.detected, res_c.silent) == (
        res_v.benign,
        res_v.detected,
        res_v.silent,
    )
    assert res_c.examples == res_v.examples
    assert res_c.total == res_v.total == total
    sweeps = {"compiled": res_c.sweeps, "vector": res_v.sweeps}
    assert sweeps == WIDE_PASSES, f"{sweeps} sweeps, closed form {WIDE_PASSES}"

    per_sweep_c = total / res_c.sweeps
    per_sweep_v = total / res_v.sweeps
    write_report(
        results_dir,
        "fault_campaign_vector",
        f"Wide-lane fault campaign (converter n={N_WIDE}, exhaustive "
        f"stuck-at, {total} faults)\n"
        f"  compiled : {res_c.sweeps:4d} sweeps  "
        f"({per_sweep_c:7.1f} faults/sweep)  {res_c.wall_s:.2f}s\n"
        f"  vector   : {res_v.sweeps:4d} sweeps  "
        f"({per_sweep_v:7.1f} faults/sweep)  {res_v.wall_s:.2f}s\n"
        f"  passes   : closed form on both engines, identical "
        f"classification\n\n" + res_v.render(),
        benchmark=benchmark,
        data={
            "n": N_WIDE,
            "model": "stuck",
            "faults": total,
            "compiled_sweeps": res_c.sweeps,
            "vector_sweeps": res_v.sweeps,
            "compiled_faults_per_sweep": per_sweep_c,
            "vector_faults_per_sweep": per_sweep_v,
            "compiled_wall_s": res_c.wall_s,
            "vector_wall_s": res_v.wall_s,
            "benign": res_v.benign,
            "detected": res_v.detected,
            "silent": res_v.silent,
        },
    )


def test_campaign_engine_choice(benchmark, results_dir):
    """Compiled against vector on the n=8 stuck-at and SEU campaigns.

    Each engine's wall time is the median of ``ENGINE_TRIALS`` repeated
    campaigns after one warm-up run (kernels compiled, plan memoised,
    native build bound), which is how a long-lived process sees them;
    the two engines' trials alternate.  The gate is the choice
    ``engine="auto"`` makes: for each model the engine an auto campaign
    reports must have the lower median — compiled for stuck-at, and for
    SEU vector where the native build binds (compiled without it).  The
    sweep counts are exact: a compiled SEU campaign is one pass of the
    stream length.
    """
    rows = []
    data = {"n": N_ENGINES, "trials": ENGINE_TRIALS}
    for model in ("stuck", "seu"):
        specs = {
            engine: CampaignSpec(
                circuit="converter", n=N_ENGINES, model=model, engine=engine
            )
            for engine in ("compiled", "vector")
        }
        auto = run_campaign(CampaignSpec(circuit="converter", n=N_ENGINES, model=model))
        walls: dict[str, list[float]] = {"compiled": [], "vector": []}
        results = {engine: run_campaign(spec) for engine, spec in specs.items()}
        for trial in range(ENGINE_TRIALS):
            for engine in ("compiled", "vector")[:: 1 if trial % 2 == 0 else -1]:
                results[engine] = run_campaign(specs[engine])
                walls[engine].append(results[engine].wall_s)
        res_c, res_v = results["compiled"], results["vector"]
        walls_c, walls_v = walls["compiled"], walls["vector"]
        assert (res_c.benign, res_c.detected, res_c.silent) == (
            res_v.benign,
            res_v.detected,
            res_v.silent,
        )
        assert res_c.examples == res_v.examples == auto.examples
        assert res_c.total == res_v.total == auto.total
        if model == "seu":
            assert res_c.sweeps == res_c.test_vectors + N_ENGINES - 1
        wall_c, wall_v = statistics.median(walls_c), statistics.median(walls_v)
        faster = "compiled" if wall_c <= wall_v else "vector"
        assert auto.engine == faster, (
            f"{model}: auto runs {auto.engine}, but {faster} is faster "
            f"(compiled {1e3 * wall_c:.1f} ms, vector {1e3 * wall_v:.1f} ms)"
        )
        rows.append(
            f"  {model:<5} {res_c.total:5d} faults  compiled {res_c.sweeps:3d} "
            f"sweeps {1e3 * wall_c:7.1f} ms   vector {res_v.sweeps:3d} sweeps "
            f"{1e3 * wall_v:7.1f} ms   vector/compiled {wall_v / wall_c:5.2f}x   "
            f"auto: {auto.engine}"
        )
        data[model] = {
            "faults": res_c.total,
            "compiled_sweeps": res_c.sweeps,
            "vector_sweeps": res_v.sweeps,
            "compiled_wall_s": wall_c,
            "vector_wall_s": wall_v,
            "compiled_wall_iqr_s": _iqr(walls_c),
            "vector_wall_iqr_s": _iqr(walls_v),
            "vector_over_compiled_x": wall_v / wall_c,
            "auto_engine": auto.engine,
            "benign": res_c.benign,
            "detected": res_c.detected,
            "silent": res_c.silent,
        }
    spec = CampaignSpec(circuit="converter", n=N_ENGINES, model="seu")
    benchmark.pedantic(lambda: run_campaign(spec), rounds=1, iterations=1)
    write_report(
        results_dir,
        "fault_campaign_engines",
        f"Campaign engine choice (converter n={N_ENGINES}, exhaustive, "
        f"workers=1, median of {ENGINE_TRIALS} warm campaigns, engines "
        f"alternating), identical classification on both engines; auto "
        f"must run the faster one\n" + "\n".join(rows),
        benchmark=benchmark,
        data=data,
    )


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def test_checked_mode_overhead(benchmark, results_dir):
    conv = IndexToPermutationConverter(N_CHECKED)
    checked = CheckedConverter(conv)
    dual = CheckedConverter(conv, dual_rail=True)
    indices = list(range(BATCH))

    def timed(fn):
        t0 = time.perf_counter()
        for _ in range(5):
            fn(indices)
        return (time.perf_counter() - t0) / 5

    bare = timed(conv.convert_batch)
    plain = timed(checked.convert_batch)
    railed = timed(dual.convert_batch)

    def run():
        return checked.convert_batch(indices)

    benchmark.pedantic(run, rounds=3, iterations=1)
    overhead = plain / bare
    # checking is pure-python O(n·B) next to the vectorised datapath; keep
    # an alarm threshold so a regression (e.g. per-row netlist sim sneaking
    # in) fails loudly rather than silently eating throughput.
    assert overhead < 60.0
    write_report(
        results_dir,
        "checked_overhead",
        f"Checked-mode overhead (n={N_CHECKED}, batch={BATCH})\n"
        f"bare converter      : {1e6 * bare / BATCH:8.2f} us/perm\n"
        f"checked (oracle)    : {1e6 * plain / BATCH:8.2f} us/perm  "
        f"({plain / bare:.1f}x)\n"
        f"checked + dual rail : {1e6 * railed / BATCH:8.2f} us/perm  "
        f"({railed / bare:.1f}x)\n",
        benchmark=benchmark,
        data={
            "n": N_CHECKED,
            "batch": BATCH,
            "bare_us_per_perm": 1e6 * bare / BATCH,
            "checked_us_per_perm": 1e6 * plain / BATCH,
            "dual_rail_us_per_perm": 1e6 * railed / BATCH,
            "checked_overhead_x": plain / bare,
            "dual_rail_overhead_x": railed / bare,
        },
    )
