"""Vector engine vs compiled bigints: bit-exact equivalence at any width.

The vector backend runs the *same* exec-compiled kernels as the bigint
engine, just over NumPy ``uint64`` word arrays — so the two must agree
bit for bit on every circuit, batch width, overlay and SEU schedule.
Hypothesis drives random netlists through both; explicit cases pin the
wide-sweep behaviour (≥ 1024 lanes in one sweep), the cached lane
constants and the native C kernel behind prepared sweeps (its builds,
fallbacks, quarantine and on-disk cache).  With no ``cc`` on ``PATH``
the native-only cases skip and the rest run the NumPy kernel.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from math import factorial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.compile import PackedFaultPlan, evict_kernel
from repro.hdl.gates import Op
from repro.hdl.simulator import (
    BatchEntry,
    CombinationalSimulator,
    SequentialSimulator,
)
from repro.hdl.native import (
    clear_native_cache,
    find_compiler,
    native_cache_info,
    native_kernel,
)
from repro.hdl.vector import VECTOR_SWEEP_LANES, vector_constants
from repro.robustness.faults import FaultOverlay, SEUFault, StuckAtFault

from .test_compile import _ints, _registered
from .test_fuzz import random_circuit, _build


# --------------------------------------------------------------------- #
# combinational equivalence


@given(random_circuit())
@settings(max_examples=100)
def test_vector_matches_compiled_combinational(case):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    compiled = CombinationalSimulator(nl, backend="compiled").run({"a": vectors})
    vector = CombinationalSimulator(nl, backend="vector").run({"a": vectors})
    assert _ints(compiled) == _ints(vector)


@given(random_circuit(), st.data())
@settings(max_examples=60)
def test_vector_matches_compiled_with_stuck_overlay(case, data):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    if not logic:
        return
    faults = [
        StuckAtFault(
            wire=data.draw(st.sampled_from(logic)), value=data.draw(st.booleans())
        )
        for _ in range(data.draw(st.integers(1, min(3, len(logic)))))
    ]
    overlay = FaultOverlay(faults, nl)
    compiled = CombinationalSimulator(nl, backend="compiled").run(
        {"a": vectors}, overlay=overlay
    )
    vector = CombinationalSimulator(nl, backend="vector").run(
        {"a": vectors}, overlay=overlay
    )
    assert _ints(compiled) == _ints(vector)


@given(random_circuit(), st.data())
@settings(max_examples=40)
def test_vector_matches_compiled_with_packed_plan(case, data):
    n_inputs, ops, picks, _ = case
    nl, _ = _build(n_inputs, ops, picks)
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    if not logic:
        return
    slots = data.draw(st.integers(2, 5))
    per = data.draw(st.integers(1, 6))
    lanes = slots * per
    plan = PackedFaultPlan(lanes)
    for s in range(1, slots):
        plan.stick(
            data.draw(st.sampled_from(logic)),
            data.draw(st.booleans()),
            slice(s * per, (s + 1) * per),
        )
    vecs = [
        data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(lanes)
    ]
    compiled = CombinationalSimulator(nl, backend="compiled").run(
        {"a": vecs}, overlay=plan
    )
    vector = CombinationalSimulator(nl, backend="vector").run(
        {"a": vecs}, overlay=plan
    )
    assert _ints(compiled) == _ints(vector)


# --------------------------------------------------------------------- #
# sequential equivalence


@given(random_circuit(), st.data())
@settings(max_examples=50)
def test_vector_matches_compiled_sequential(case, data):
    nl, n_inputs = _registered(case)
    batch = data.draw(st.integers(1, 5))
    cycles = data.draw(st.integers(1, 6))
    streams = [
        [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(batch)]
        for _ in range(cycles)
    ]
    sc = SequentialSimulator(nl, batch=batch, backend="compiled")
    sv = SequentialSimulator(nl, batch=batch, backend="vector")
    for vec in streams:
        assert _ints(sc.step({"a": vec})) == _ints(sv.step({"a": vec}))
    assert {
        q: [bool(b) for b in lanes] for q, lanes in sc.state.items()
    } == {q: [bool(b) for b in lanes] for q, lanes in sv.state.items()}


@given(random_circuit(), st.data())
@settings(max_examples=40)
def test_vector_matches_compiled_sequential_with_faults(case, data):
    nl, n_inputs = _registered(case)
    regs = [r.q for r in nl.registers]
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    faults = []
    if logic and data.draw(st.booleans()):
        faults.append(
            StuckAtFault(
                wire=data.draw(st.sampled_from(logic)),
                value=data.draw(st.booleans()),
            )
        )
    faults.append(
        SEUFault(
            register=data.draw(st.sampled_from(regs)),
            cycle=data.draw(st.integers(0, 3)),
        )
    )
    vectors = [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(5)]
    outs = []
    for backend in ("compiled", "vector"):
        sim = SequentialSimulator(
            nl, batch=1, overlay=FaultOverlay(faults, nl), backend=backend
        )
        outs.append([_ints(sim.step({"a": v})) for v in vectors])
    assert outs[0] == outs[1]


# --------------------------------------------------------------------- #
# wide sweeps: the point of the engine


class TestWideSweeps:
    def test_comb_sweep_beyond_1024_lanes(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 5)
        lanes = 1500
        assert lanes > 1024
        idx = [i % 120 for i in range(lanes)]
        a = CombinationalSimulator(nl, backend="compiled").run({"index": idx})
        b = CombinationalSimulator(nl, backend="vector").run({"index": idx})
        assert _ints(a) == _ints(b)

    def test_quantum_covers_at_least_1024_lanes(self):
        assert VECTOR_SWEEP_LANES >= 1024

    def test_full_quantum_single_sweep(self):
        """One sweep at the full 4096-lane quantum stays bit-exact."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4)
        idx = [i % 24 for i in range(VECTOR_SWEEP_LANES)]
        a = CombinationalSimulator(nl, backend="compiled").run({"index": idx})
        b = CombinationalSimulator(nl, backend="vector").run({"index": idx})
        assert _ints(a) == _ints(b)

    def test_batch_entry_lazy_and_materialized(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 5)
        idx = np.arange(1200) % 120
        ec = BatchEntry(nl, backend="compiled")
        ev = BatchEntry(nl, backend="vector")
        assert ev.engine.name == "vector"
        a = ec.run({"index": idx})
        lazy = ev.run({"index": idx}, materialize=False)
        full = ev.run({"index": idx})
        assert _ints(a) == _ints(dict(lazy)) == _ints(full)

    def test_run_stream_held_input_pipeline(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4, pipelined=True)
        idx = np.arange(1100, dtype=np.int64) % 24
        stream = [{"index": idx}] * 7
        sc = SequentialSimulator(nl, batch=1100, backend="compiled")
        sv = SequentialSimulator(nl, batch=1100, backend="vector")
        ref = sc.run_stream(stream)
        lazy = sv.run_stream(stream, materialize=False)
        for a, b in zip(ref, lazy):
            assert _ints(a) == _ints(b)

    def test_wide_packed_plan_one_sweep(self):
        """A whole fault campaign's worth of lanes in one vector sweep."""
        from repro.flow import build_circuit
        from repro.robustness.faults import stuck_fault_sites

        nl = build_circuit("converter", 4)
        idx = list(range(24))
        sites = stuck_fault_sites(nl)[:60]
        T, slots = len(idx), len(sites) + 1
        lanes = slots * T
        assert lanes > 1024
        plan = PackedFaultPlan(lanes)
        for s, f in enumerate(sites, start=1):
            plan.stick(f.wire, f.value, slice(s * T, (s + 1) * T))
        a = CombinationalSimulator(nl, backend="compiled").run(
            {"index": idx * slots}, overlay=plan
        )
        b = CombinationalSimulator(nl, backend="vector").run(
            {"index": idx * slots}, overlay=plan
        )
        assert _ints(a) == _ints(b)

    def test_plan_lane_mismatch_rejected(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 3)
        plan = PackedFaultPlan(12)
        plan.stick(10, True, [1])
        with pytest.raises(ValueError, match="lanes"):
            CombinationalSimulator(nl, backend="vector").run(
                {"index": list(range(6))}, overlay=plan
            )


# --------------------------------------------------------------------- #
# the cached lane constants


class TestVectorCache:
    def test_constants_tail_mask(self):
        zero, ones = vector_constants(70)
        assert zero.shape == ones.shape == (2,)
        assert int(ones[0]) == 0xFFFFFFFFFFFFFFFF
        assert int(ones[1]) == (1 << 6) - 1
        with pytest.raises(ValueError):
            ones[0] = 0  # read-only


# --------------------------------------------------------------------- #
# the native kernel behind prepared sweeps

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no cc on PATH")

#: lane counts around every word boundary, up to a campaign sweep
NATIVE_LANES = (1, 63, 64, 65, 4095, 8192)


def _numpy_kernel():
    """Run prepared vector sweeps on the NumPy kernel."""
    return mock.patch("repro.hdl.vector.native_kernel", return_value=None)


def _words(outs):
    """Every output bus's raw lane words, tail bits included."""
    return {name: np.stack(words) for name, words in outs._buses.items()}


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """A private library cache and no bindings, before and after."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    clear_native_cache()
    yield tmp_path / "cache" / "repro" / "native"
    clear_native_cache()


@given(random_circuit(), st.sampled_from(NATIVE_LANES), st.integers(0, 2**32))
@settings(max_examples=25)
def test_native_sweep_matches_numpy_words_and_compiled_lanes(case, lanes, seed):
    n_inputs, ops, picks, _ = case
    nl, _ = _build(n_inputs, ops, picks)
    idx = np.random.default_rng(seed).integers(0, 1 << n_inputs, lanes)
    entry = BatchEntry(nl, backend="vector")
    got = entry.run({"a": idx}, materialize=False)
    if find_compiler() is not None:
        assert native_kernel(entry.kernel) is not None
    with _numpy_kernel():
        ref = entry.run({"a": idx}, materialize=False)
    got_words, ref_words = _words(got), _words(ref)
    assert got_words.keys() == ref_words.keys()
    for name in ref_words:
        assert np.array_equal(got_words[name], ref_words[name])
    compiled = BatchEntry(nl, backend="compiled").run({"a": idx})
    assert _ints(dict(got)) == _ints(compiled)


@pytest.mark.parametrize("n", range(1, 13))
def test_native_converter_identical(n):
    from repro.flow import build_circuit

    nl = build_circuit("converter", n)
    idx = np.random.default_rng(n).integers(0, factorial(n), 130)
    entry = BatchEntry(nl, backend="vector")
    got = _ints(entry.run({"index": idx}))
    with _numpy_kernel():
        assert got == _ints(entry.run({"index": idx}))
    assert got == _ints(BatchEntry(nl, backend="compiled").run({"index": idx}))


def test_no_compiler_runs_numpy_kernel(fresh_native, monkeypatch, tmp_path):
    from repro.flow import build_circuit

    monkeypatch.setenv("PATH", str(tmp_path))  # no cc anywhere on it
    nl = build_circuit("converter", 5)
    idx = np.arange(300) % 120
    entry = BatchEntry(nl, backend="vector")
    got = entry.run({"index": idx})
    assert native_kernel(entry.kernel) is None
    assert native_cache_info() == {
        "size": 0, "built": 0, "loaded": 0, "fallbacks": 1
    }
    assert _ints(got) == _ints(BatchEntry(nl, backend="compiled").run({"index": idx}))
    assert not fresh_native.exists()


def test_failing_compiler_falls_back_counted_and_logged_once(
    fresh_native, monkeypatch, tmp_path, caplog
):
    from repro.flow import build_circuit
    from repro.obs.metrics import REGISTRY

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 3\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    REGISTRY.enable()
    try:
        with caplog.at_level(logging.WARNING, logger="repro.hdl.native"):
            for n in (4, 5):
                nl = build_circuit("converter", n)
                idx = np.arange(200) % factorial(n)
                entry = BatchEntry(nl, backend="vector")
                ref = _ints(BatchEntry(nl, backend="compiled").run({"index": idx}))
                for _ in range(2):  # a failed build is not retried per sweep
                    assert _ints(entry.run({"index": idx})) == ref
        text = REGISTRY.render_exposition()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    assert native_cache_info()["fallbacks"] == 2
    assert 'repro_native_kernel_total{result="build_failed"} 2' in text
    records = [r for r in caplog.records if r.name == "repro.hdl.native"]
    assert len(records) == 1
    assert "exited 3" in records[0].getMessage()
    assert not any(p.suffix == ".so" for p in fresh_native.iterdir())


@needs_cc
def test_evict_kernel_drops_binding_and_library(fresh_native):
    from repro.flow import build_circuit

    nl = build_circuit("converter", 4)
    idx = np.arange(100) % 24
    entry = BatchEntry(nl, backend="vector")
    ref = _ints(entry.run({"index": idx}))
    clear_native_cache()  # as a later process: the library is on disk
    entry.run({"index": idx})
    first = native_kernel(entry.kernel)
    assert first is not None and first.loaded_from == first.path
    assert native_cache_info()["loaded"] == 1
    assert evict_kernel(entry.kernel.fingerprint) >= 1
    assert native_cache_info()["size"] == 0
    assert not os.path.exists(first.path)
    # the rebuild loads under a name this process has never mapped
    assert _ints(entry.run({"index": idx})) == ref
    second = native_kernel(entry.kernel)
    assert second is not None and second is not first
    assert native_cache_info()["built"] == 1
    assert second.loaded_from != first.loaded_from
    assert second.path == first.path and os.path.exists(second.path)


_BUILDER = """
import sys
import numpy as np
from repro.flow import build_circuit
from repro.hdl.native import native_cache_info
from repro.hdl.simulator import BatchEntry

nl = build_circuit("converter", 7)
entry = BatchEntry(nl, backend="vector")
idx = np.arange(5000) % 5040
print("ready", flush=True)
sys.stdin.readline()  # start both builds together
got = entry.run({"index": idx})
ref = BatchEntry(nl, backend="compiled").run({"index": idx})
assert all(np.array_equal(got[k], ref[k]) for k in ref)
info = native_cache_info()
print(info["size"], info["fallbacks"])
"""


@needs_cc
def test_concurrent_builders_both_load_a_complete_library(tmp_path):
    import repro

    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILDER],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    try:
        for proc in procs:
            assert proc.stdout.readline().strip() == "ready"
        outs = [proc.communicate("go\n", timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert out.split() == ["1", "0"]  # a binding, no fallback
    libs = os.listdir(tmp_path / "repro" / "native")
    assert len(libs) == 1 and libs[0].endswith(".so") and ".tmp." not in libs[0]
