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

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the campaign
to blocks far below the vector crossover, so it only requires vector
not to *lose badly*; the identity assertion is unconditional.
"""

import os
import time

from conftest import write_report

from repro.analysis.stream import (
    SWEEP_LANES,
    CampaignConfig,
    PopulationStats,
    stream_blocks,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 6 if SMOKE else 8
SAMPLES = 8_192 if SMOKE else 3_145_728
BLOCK = 2_048 if SMOKE else 1_048_576
TRIALS = 1 if SMOKE else 3
MIN_VECTOR_RATIO = 0.5 if SMOKE else 1.0
ENGINES = ("interp", "compiled", "vector")
# interp walks the gate list per cycle — cap its share of the campaign
INTERP_SAMPLES = min(SAMPLES, 8_192)
# the `repro validate --block` default, on the packed engines
DEFAULT_BLOCK = 4_096
DEFAULT_SAMPLES = 16_384 if SMOKE else 1_048_576
DEFAULT_ENGINES = ("compiled", "vector")


def _campaign(
    engine: str, samples: int, block: int = BLOCK
) -> tuple[float, PopulationStats]:
    cfg = CampaignConfig(
        n=N, samples=samples, block=block, engine=engine, source="lfsr"
    ).validated()
    stats = PopulationStats.fresh(cfg)
    t0 = time.perf_counter()
    for perms in stream_blocks(cfg, range(cfg.total_blocks)):
        stats.update(perms)
    return time.perf_counter() - t0, stats


def _best_of(
    engine: str, samples: int, block: int = BLOCK
) -> tuple[float, PopulationStats]:
    """Fastest wall time of ``TRIALS`` runs, with the last run's stats."""
    best = float("inf")
    for _ in range(TRIALS):
        wall_s, stats = _campaign(engine, samples, block)
        best = min(best, wall_s)
    return best, stats


def test_population_stats_throughput(benchmark, results_dir):
    # warm each backend's kernel/entry cache out of the timed region
    for engine in ENGINES:
        _campaign(engine, BLOCK)

    wall: dict[str, float] = {}
    states: dict[str, dict] = {}
    rates: dict[str, float] = {}
    for engine in ENGINES:
        samples = INTERP_SAMPLES if engine == "interp" else SAMPLES
        wall[engine], stats = _best_of(engine, samples)
        rates[engine] = stats.samples / wall[engine]
        states[engine] = stats.state_dict()

    default_wall: dict[str, float] = {}
    default_states: dict[str, dict] = {}
    for engine in DEFAULT_ENGINES:
        default_wall[engine], stats = _best_of(engine, DEFAULT_SAMPLES, DEFAULT_BLOCK)
        default_states[engine] = stats.state_dict()
    assert default_states["vector"] == default_states["compiled"]
    default_rates = {e: DEFAULT_SAMPLES / w for e, w in default_wall.items()}

    # engine invariance on the common prefix: rerun the interp-sized
    # campaign under the packed engines and require identical state
    for engine in ("compiled", "vector"):
        _, prefix = _campaign(engine, INTERP_SAMPLES)
        assert prefix.state_dict() == states["interp"], engine
    assert states["vector"] == states["compiled"]

    assert rates["vector"] >= MIN_VECTOR_RATIO * rates["compiled"], (
        f"vector {rates['vector']:,.0f} perms/s < "
        f"{MIN_VECTOR_RATIO}x compiled {rates['compiled']:,.0f} perms/s"
    )

    benchmark(lambda: _campaign("vector", SAMPLES // 4))

    lines = [
        f"Population validation throughput (n={N}, lfsr source, "
        f"block={BLOCK})",
        f"{'engine':<10} {'samples':>10} {'wall s':>9} {'perms/s':>12}",
    ]
    for engine in ENGINES:
        samples = INTERP_SAMPLES if engine == "interp" else SAMPLES
        lines.append(
            f"{engine:<10} {samples:>10,} {wall[engine]:>9.3f} "
            f"{rates[engine]:>12,.0f}"
        )
    lines.append(
        f"vector/compiled speedup: {rates['vector'] / rates['compiled']:.2f}x  "
        "(accumulator state bit-identical across all engines)"
    )
    lines.append(
        f"at the validate default block={DEFAULT_BLOCK} "
        f"({SWEEP_LANES}-lane sweeps, state bit-identical):"
    )
    for engine in DEFAULT_ENGINES:
        lines.append(
            f"{engine:<10} {DEFAULT_SAMPLES:>10,} {default_wall[engine]:>9.3f} "
            f"{default_rates[engine]:>12,.0f}"
        )
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
            "engines": {
                engine: {
                    "samples": INTERP_SAMPLES if engine == "interp" else SAMPLES,
                    "wall_s": wall[engine],
                    "perms_per_s": rates[engine],
                }
                for engine in ENGINES
            },
            "vector_vs_compiled_speedup_x": rates["vector"] / rates["compiled"],
            "state_bit_identical": True,
            "default_block": {
                "block": DEFAULT_BLOCK,
                "sweep_lanes": SWEEP_LANES,
                "engines": {
                    engine: {
                        "samples": DEFAULT_SAMPLES,
                        "wall_s": default_wall[engine],
                        "perms_per_s": default_rates[engine],
                    }
                    for engine in DEFAULT_ENGINES
                },
            },
        },
        benchmark=benchmark,
    )
