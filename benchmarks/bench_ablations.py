"""Ablations — design choices DESIGN.md calls out, measured.

1. Unranking implementations: naive O(n²) vs Fenwick O(n log n) vs NumPy
   batch — where does each win?
2. Pipelining: combinational vs pipelined converter Fmax (the §II-B
   trade: registers buy clock rate).
3. LFSR width m vs index bias (the Fig.-2 knob).
4. LUT size k vs mapped area (technology-mapping knob behind Table III).
5. Per-stage LFSR polynomial reuse: the identical-polynomial shuffle is
   visibly less uniform than the distinct-polynomial default.
6. Pass pipeline: none / sweep-only / full optimisation through the
   unified flow — the gate, LUT and level deltas behind Tables III/IV,
   with the no-regression guarantee asserted.
"""

import numpy as np
from conftest import write_report

from repro.analysis.stream import RankBucketAccumulator
from repro.core.converter import IndexToPermutationConverter
from repro.core.knuth import KnuthShuffleCircuit
from repro.core.lehmer import unrank_batch, unrank_fenwick, unrank_naive
from repro.flow import FlowTarget, build_circuit
from repro.flow import synthesize as flow_synthesize
from repro.fpga import synthesize
from repro.fpga.lut_map import map_to_luts
from repro.rng.scaled import bias_profile


def test_ablation_unrank_naive_n64(benchmark):
    benchmark(lambda: unrank_naive(12345678901234567890 % 10**18, 64))


def test_ablation_unrank_fenwick_n64(benchmark):
    benchmark(lambda: unrank_fenwick(12345678901234567890 % 10**18, 64))


def test_ablation_unrank_fenwick_n512(benchmark):
    """At n = 512 the O(n log n) pool wins decisively over list.pop."""
    import math

    idx = 98765432123456789 % math.factorial(512)
    benchmark(lambda: unrank_fenwick(idx, 512))


def test_ablation_unrank_batch_n12(benchmark):
    idx = np.arange(0, 479_001_600, 120_000)
    benchmark(lambda: unrank_batch(idx, 12))


def test_ablation_pipeline_fmax(benchmark, results_dir):
    def measure():
        rows = []
        for n in (4, 6, 8, 10):
            comb = synthesize(IndexToPermutationConverter(n).build_netlist(), n)
            pipe = synthesize(IndexToPermutationConverter(n).build_netlist(pipelined=True), n)
            rows.append((n, comb.fmax_mhz, pipe.fmax_mhz, pipe.registers))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for n, comb_f, pipe_f, regs in rows:
        assert pipe_f > comb_f  # registers buy clock rate
        assert regs > 0

    lines = ["Ablation: pipelining vs combinational Fmax (converter)", "",
             f"{'n':>3}  {'comb MHz':>9}  {'pipe MHz':>9}  {'pipe regs':>9}  {'gain':>6}"]
    for n, comb_f, pipe_f, regs in rows:
        lines.append(f"{n:>3}  {comb_f:>9.1f}  {pipe_f:>9.1f}  {regs:>9}  {pipe_f / comb_f:>6.2f}x")
    write_report(
        results_dir,
        "ablation_pipeline",
        "\n".join(lines),
        benchmark=benchmark,
        data={
            "rows": [
                {"n": n, "comb_mhz": comb_f, "pipe_mhz": pipe_f, "pipe_registers": regs}
                for n, comb_f, pipe_f, regs in rows
            ]
        },
    )


def test_ablation_lfsr_width_vs_bias(benchmark, results_dir):
    ms = [5, 6, 8, 12, 16, 24, 31]
    reports = benchmark(lambda: [bias_profile(24, m) for m in ms])
    errs = [r.max_relative_error for r in reports]
    assert errs == sorted(errs, reverse=True)
    lines = ["Ablation: LFSR width m vs index bias (k = 24)", "",
             f"{'m':>3}  {'max rel err':>12}  {'ratio':>10}"]
    for m, r in zip(ms, reports):
        lines.append(f"{m:>3}  {r.max_relative_error:>12.3e}  {r.ratio:>10.6f}")
    write_report(
        results_dir,
        "ablation_lfsr_width",
        "\n".join(lines),
        benchmark=benchmark,
        data={
            "k": 24,
            "rows": [
                {"m": m, "max_relative_error": r.max_relative_error, "ratio": r.ratio}
                for m, r in zip(ms, reports)
            ],
        },
    )


def test_ablation_lut_k_vs_area(benchmark, results_dir):
    nl = IndexToPermutationConverter(8).build_netlist()

    def measure():
        return {k: len(map_to_luts(nl, k=k)) for k in (3, 4, 5, 6, 7)}

    counts = benchmark(measure)
    sizes = [counts[k] for k in (3, 4, 5, 6, 7)]
    assert sizes == sorted(sizes, reverse=True)  # bigger LUTs -> fewer of them
    lines = ["Ablation: LUT input size k vs mapped LUT count (converter, n = 8)", "",
             f"{'k':>3}  {'LUTs':>6}"]
    for k in (3, 4, 5, 6, 7):
        lines.append(f"{k:>3}  {counts[k]:>6}")
    write_report(
        results_dir,
        "ablation_lut_k",
        "\n".join(lines),
        benchmark=benchmark,
        data={"n": 8, "lut_counts": {str(k): counts[k] for k in (3, 4, 5, 6, 7)}},
    )


#: The pipeline variants the pass ablation compares.
_PASS_VARIANTS = {
    "none": FlowTarget(passes=()),
    "sweep-only": FlowTarget(passes=("sweep",)),
    "full": FlowTarget(),
}

#: Table III/IV circuits the ablation measures (both papers' tables use
#: the pipelined datapaths).
_PASS_CIRCUITS = [("converter", 6), ("converter", 8), ("shuffle", 6), ("shuffle", 8)]


def test_ablation_pass_pipeline(benchmark, results_dir):
    """Pass-pipeline ablation: what each level of optimisation buys.

    Also the acceptance gate for the pipeline itself: on the Table
    III/IV circuits the full pipeline must never *increase* gate count,
    LUT count or LUT levels over the unoptimised flow.
    """

    def measure():
        rows = []
        for circuit, n in _PASS_CIRCUITS:
            nl = build_circuit(circuit, n, pipelined=True)
            per_variant = {}
            for variant, target in _PASS_VARIANTS.items():
                res = flow_synthesize(nl, target, n=n)
                per_variant[variant] = {
                    "gates": res.netlist.num_logic_gates,
                    "registers": res.netlist.num_registers,
                    "luts": res.total_luts,
                    "levels": res.lut_levels,
                    "fmax_mhz": res.fmax_mhz,
                }
            rows.append({"circuit": circuit, "n": n, "variants": per_variant})
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    for row in rows:
        none, swp, full = (
            row["variants"]["none"],
            row["variants"]["sweep-only"],
            row["variants"]["full"],
        )
        # the no-regression guarantee (ISSUE acceptance criterion)
        for key in ("gates", "luts", "levels"):
            assert full[key] <= none[key], (row["circuit"], row["n"], key)
            assert swp[key] <= none[key], (row["circuit"], row["n"], key)
        # sweep reclaims dead logic on every generator-built circuit
        assert swp["gates"] < none["gates"]
        # the full pipeline is at least as strong as sweep alone
        assert full["gates"] <= swp["gates"]

    lines = [
        "Ablation: pass pipeline (none / sweep-only / full) through the",
        "unified synthesis flow, Table III/IV circuits (pipelined).",
        "",
        f"{'circuit':>9}  {'n':>2}  {'variant':>10}  {'gates':>6}  "
        f"{'LUTs':>6}  {'levels':>6}  {'regs':>6}  {'Fmax':>7}",
    ]
    for row in rows:
        for variant, v in row["variants"].items():
            lines.append(
                f"{row['circuit']:>9}  {row['n']:>2}  {variant:>10}  "
                f"{v['gates']:>6}  {v['luts']:>6}  {v['levels']:>6}  "
                f"{v['registers']:>6}  {v['fmax_mhz']:>7.1f}"
            )
    write_report(
        results_dir,
        "ablation_passes",
        "\n".join(lines),
        benchmark=benchmark,
        data={
            "variants": {k: list(t.passes) if t.passes is not None else "default"
                         for k, t in _PASS_VARIANTS.items()},
            "rows": rows,
        },
    )


def test_ablation_polynomial_reuse(benchmark, results_dir):
    """Identical per-stage polynomials couple the stages (each stream is a
    phase shift of the same m-sequence): the joint distribution skews.
    Distinct widths (the default) restore uniformity."""
    samples = 1 << 17

    def uniformity(circuit):
        # 24 exact rank cells: the Fig.-4 histogram's chi², TV, entropy
        acc = RankBucketAccumulator(4, 24)
        acc.update(circuit.sample(samples))
        return acc.summary()

    def measure():
        shared = KnuthShuffleCircuit(4, m=31, widths=[31, 31, 31])
        distinct = KnuthShuffleCircuit(4, m=31)
        return uniformity(shared), uniformity(distinct)

    shared_rep, distinct_rep = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert distinct_rep["tv_distance"] < shared_rep["tv_distance"]
    write_report(
        results_dir,
        "ablation_polynomial_reuse",
        "Ablation: per-stage LFSR polynomial reuse (n = 4, 2^17 samples)\n\n"
        f"identical polynomials: chi2 p = {shared_rep['p_value']:.2e}, "
        f"TV = {shared_rep['tv_distance']:.5f}\n"
        f"distinct polynomials : chi2 p = {distinct_rep['p_value']:.2e}, "
        f"TV = {distinct_rep['tv_distance']:.5f}",
        benchmark=benchmark,
        data={
            "n": 4,
            "samples": samples,
            "shared": {
                "p_value": float(shared_rep["p_value"]),
                "tv_distance": float(shared_rep["tv_distance"]),
            },
            "distinct": {
                "p_value": float(distinct_rep["p_value"]),
                "tv_distance": float(distinct_rep["tv_distance"]),
            },
        },
    )
