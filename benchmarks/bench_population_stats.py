"""Population-scale streaming validation throughput (perms/s per engine).

The campaign layer's claim is that statistical validation over 10⁸+
permutations is engine-bound, not analysis-bound: the mergeable
accumulators fold each block in O(block) and the three simulation
backends feed them at their native sweep rates.  This bench streams the
same deterministic campaign through ``interp``, ``compiled`` and
``vector`` and records perms/s for each, asserting

1. every engine produces the **bit-identical** accumulator state (the
   invariance the checkpoint/resume contract rests on), and
2. at the population-scale block width the vector engine's perms/s is
   at least the compiled engine's.  NumPy's ~0.5 µs/ufunc dispatch
   only amortises past ~10⁶ lanes per sweep (DESIGN.md §8 — below
   that, CPython big-int ops win), so the throughput comparison runs
   at a 2²⁰-lane block; a 10⁸-permutation campaign would configure
   the same.

It also records both packed engines at ``repro validate``'s default
4096-permutation block, where consecutive blocks share one
``SWEEP_LANES``-lane sweep, and requires their states to be identical.
Every campaign folds each sweep into its accumulators in one update,
as ``repro validate``'s shard worker does; at the 2²⁰-lane block a
sweep is one block.

The packed engines are timed in ``PAIRS`` interleaved compiled/vector
pairs on process CPU time, and the gate reads the median of the
per-pair ratios.  Both runs of a pair see the same stretch of host
speed; a best-of-N wall time per engine, taken over separate
stretches, let the gate flip on host noise alone.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the campaign
to blocks far below the vector crossover, so it only requires vector
not to *lose badly*; the identity assertion is unconditional.
"""

import os
import statistics
import time

import numpy as np
from conftest import write_report

from repro.analysis.stream import (
    SWEEP_LANES,
    CampaignConfig,
    PopulationStats,
    _sweeps,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 6 if SMOKE else 8
SAMPLES = 8_192 if SMOKE else 3_145_728
BLOCK = 2_048 if SMOKE else 1_048_576
PAIRS = 3 if SMOKE else 15
MIN_VECTOR_RATIO = 0.5 if SMOKE else 1.0
ENGINES = ("interp", "compiled", "vector")
# interp walks the gate list per cycle — cap its share of the campaign
INTERP_SAMPLES = min(SAMPLES, 8_192)
# the `repro validate --block` default, on the packed engines
DEFAULT_BLOCK = 4_096
DEFAULT_SAMPLES = 16_384 if SMOKE else 1_048_576
PACKED_ENGINES = ("compiled", "vector")


def _campaign(
    engine: str, samples: int, block: int = BLOCK
) -> tuple[float, PopulationStats]:
    """One campaign → (process CPU seconds, its stats), one update per
    sweep as ``run_population_campaign``'s shard worker folds them."""
    cfg = CampaignConfig(
        n=N, samples=samples, block=block, engine=engine, source="lfsr"
    ).validated()
    stats = PopulationStats.fresh(cfg)
    t0 = time.process_time()
    for rows in _sweeps(cfg, range(cfg.total_blocks)):
        stats.update(rows)
    return time.process_time() - t0, stats


def _pairs(samples: int, block: int) -> tuple[dict[str, list[float]], list[float], dict]:
    """``PAIRS`` interleaved compiled/vector runs, alternating which goes first.

    Returns the CPU seconds per engine, the per-pair vector/compiled
    throughput ratios and each engine's last state.
    """
    cpu: dict[str, list[float]] = {"compiled": [], "vector": []}
    states: dict[str, dict] = {}
    for i in range(PAIRS):
        for engine in PACKED_ENGINES[:: 1 if i % 2 == 0 else -1]:
            cpu_s, stats = _campaign(engine, samples, block)
            cpu[engine].append(cpu_s)
            states[engine] = stats.state_dict()
    ratios = [c / v for c, v in zip(cpu["compiled"], cpu["vector"])]
    return cpu, ratios, states


def _iqr(values: list[float]) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def test_population_stats_throughput(benchmark, results_dir):
    # warm each backend's kernel/entry cache out of the timed region
    for engine in ENGINES:
        _campaign(engine, BLOCK)

    cpu_s, ratios, states = _pairs(SAMPLES, BLOCK)
    cpu = {engine: statistics.median(cpu_s[engine]) for engine in PACKED_ENGINES}
    interp_runs = [_campaign("interp", INTERP_SAMPLES) for _ in range(PAIRS)]
    cpu["interp"] = statistics.median(c for c, _ in interp_runs)
    states["interp"] = interp_runs[-1][1].state_dict()
    samples = {e: INTERP_SAMPLES if e == "interp" else SAMPLES for e in ENGINES}
    rates = {e: samples[e] / cpu[e] for e in ENGINES}
    ratio = statistics.median(ratios)

    default_cpu_s, default_ratios, default_states = _pairs(DEFAULT_SAMPLES, DEFAULT_BLOCK)
    assert default_states["vector"] == default_states["compiled"]
    default_cpu = {e: statistics.median(default_cpu_s[e]) for e in PACKED_ENGINES}
    default_rates = {e: DEFAULT_SAMPLES / c for e, c in default_cpu.items()}

    # engine invariance on the common prefix: rerun the interp-sized
    # campaign under the packed engines and require identical state
    for engine in PACKED_ENGINES:
        _, prefix = _campaign(engine, INTERP_SAMPLES)
        assert prefix.state_dict() == states["interp"], engine
    assert states["vector"] == states["compiled"]

    assert ratio >= MIN_VECTOR_RATIO, (
        f"vector/compiled median {ratio:.3f}x over {PAIRS} pairs "
        f"({', '.join(f'{r:.3f}' for r in ratios)}) < {MIN_VECTOR_RATIO}x"
    )

    benchmark(lambda: _campaign("vector", SAMPLES // 4))

    lines = [
        f"Population validation throughput (n={N}, lfsr source, "
        f"block={BLOCK}; process CPU time, median of {PAIRS} runs, "
        "compiled and vector interleaved in pairs)",
        f"{'engine':<10} {'samples':>10} {'cpu s':>9} {'perms/s':>12}",
    ]
    for engine in ENGINES:
        lines.append(
            f"{engine:<10} {samples[engine]:>10,} {cpu[engine]:>9.3f} "
            f"{rates[engine]:>12,.0f}"
        )
    lines.append(
        f"vector/compiled speedup: {ratio:.2f}x median per pair, "
        f"IQR {_iqr(ratios):.3f}  "
        "(accumulator state bit-identical across all engines)"
    )
    lines.append(f"  per pair: {' '.join(f'{r:.3f}' for r in ratios)}")
    lines.append(
        f"at the validate default block={DEFAULT_BLOCK} "
        f"({SWEEP_LANES}-lane sweeps, state bit-identical):"
    )
    for engine in PACKED_ENGINES:
        lines.append(
            f"{engine:<10} {DEFAULT_SAMPLES:>10,} {default_cpu[engine]:>9.3f} "
            f"{default_rates[engine]:>12,.0f}"
        )
    lines.append(
        f"vector/compiled: {statistics.median(default_ratios):.2f}x median "
        f"per pair, IQR {_iqr(default_ratios):.3f}"
    )
    lines.append(f"  per pair: {' '.join(f'{r:.3f}' for r in default_ratios)}")
    text = "\n".join(lines)
    print("\n" + text)

    write_report(
        results_dir,
        "population_stats",
        text,
        data={
            "n": N,
            "block": BLOCK,
            "smoke": SMOKE,
            "clock": "process_time",
            "pairs": PAIRS,
            "engines": {
                engine: {
                    "samples": samples[engine],
                    "cpu_s": cpu[engine],
                    "perms_per_s": rates[engine],
                }
                for engine in ENGINES
            },
            "vector_vs_compiled_speedup_x": ratio,
            "pair_ratios": ratios,
            "pair_ratio_iqr": _iqr(ratios),
            "state_bit_identical": True,
            "default_block": {
                "block": DEFAULT_BLOCK,
                "sweep_lanes": SWEEP_LANES,
                "engines": {
                    engine: {
                        "samples": DEFAULT_SAMPLES,
                        "cpu_s": default_cpu[engine],
                        "perms_per_s": default_rates[engine],
                    }
                    for engine in PACKED_ENGINES
                },
                "vector_vs_compiled_speedup_x": statistics.median(default_ratios),
                "pair_ratios": default_ratios,
                "pair_ratio_iqr": _iqr(default_ratios),
            },
        },
        benchmark=benchmark,
    )
