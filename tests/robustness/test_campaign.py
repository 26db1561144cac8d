"""Campaign runner: classification, determinism, sharded execution."""

import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import flow
from repro.core.factorial import factorial
from repro.errors import CampaignConfigError
from repro.hdl.compile import compile_netlist
from repro.hdl.native import find_compiler, native_binding, native_cache_info
from repro.hdl.simulator import SequentialSimulator
from repro.obs.events import CollectingSink
from repro.robustness import campaign
from repro.robustness.campaign import (
    CampaignSpec,
    fault_list,
    run_campaign,
)
from repro.robustness.faults import SEUFault, StuckAtFault


def _signature(res):
    return (res.total, res.benign, res.detected, res.silent, res.examples)


#: 600 sampled stuck-at sites at 64 test vectors: two compiled passes of
#: up to 511 faults, so the campaign cuts two shards at any worker count
_TWO_PASSES = CampaignSpec(n=7, model="stuck", samples=600)


def _run_sharded(spec, workers):
    """Run ``spec``; return the result and the shard count it planned."""
    sink = CollectingSink()
    res = run_campaign(spec, workers=workers, events=sink)
    (plan,) = [e.fields for e in sink.events if e.kind == "plan"]
    return res, plan["shards"]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(circuit="cpu")
        with pytest.raises(ValueError):
            CampaignSpec(model="metastability")
        with pytest.raises(ValueError):
            CampaignSpec(n=1)

    @pytest.mark.parametrize(
        "field", [{"test_count": 0}, {"test_count": 1}, {"stream_length": 0}]
    )
    def test_rejects_empty_test_streams(self, field):
        with pytest.raises(CampaignConfigError):
            CampaignSpec(**field)
        with pytest.raises(CampaignConfigError):
            CampaignSpec(circuit="shuffle", model="seu", **field)

    def test_test_indices_exact_past_int64(self):
        """21! > 2**63: draws are exact Python ints below n!, not int64."""
        for n in (21, 25):
            spec = CampaignSpec(n=n, seed=3)
            limit = factorial(n)
            indices = campaign._test_indices(spec)
            assert len(indices) == spec.test_count
            assert indices[:2] == [0, limit - 1]
            assert all(0 <= i < limit for i in indices)
            assert max(indices[2:]) > 2**63  # drawn over the whole range
            assert indices == campaign._test_indices(spec)

    def test_test_indices_unchanged_up_to_n20(self):
        spec = CampaignSpec(n=20, seed=11)
        draws = np.random.default_rng(11).integers(
            0, factorial(20), size=62, dtype=np.int64
        )
        expected = [0, factorial(20) - 1] + [int(x) for x in draws]
        assert campaign._test_indices(spec) == expected

    def test_fault_list_deterministic(self):
        spec = CampaignSpec(circuit="converter", n=4, model="bridge", samples=20)
        assert fault_list(spec) == fault_list(spec)

    def test_sampling_caps_the_universe(self):
        full = fault_list(CampaignSpec(n=4, model="stuck"))
        sampled = fault_list(CampaignSpec(n=4, model="stuck", samples=10))
        assert len(sampled) == 10
        assert set(sampled) <= set(full)


class TestClassify:
    @staticmethod
    def _one_fault(golden, rows, n):
        """The classification rule applied to a single fault's rows."""
        if np.array_equal(golden, rows):
            return "benign"
        perms = np.broadcast_to(np.arange(n), rows.shape)
        return "silent" if np.array_equal(np.sort(rows, axis=1), perms) else "detected"

    def test_bulk_matches_per_fault_rule(self, rng):
        n, rows = 5, 7
        golden = np.array([rng.permutation(n) for _ in range(rows)])
        cube = np.repeat(golden[None], 60, axis=0)
        for f in range(20, 40):  # one row re-permuted: silent (or benign)
            cube[f, rng.integers(rows)] = rng.permutation(n)
        for f in range(40, 60):  # one element duplicated: detected
            r, t = rng.integers(rows), rng.integers(n)
            cube[f, r, t] = cube[f, r, (t + 1) % n]
        # _classify reads bus-major (n, rows) / (n, rows, faults) arrays
        classes = campaign._classify(golden.T, cube.transpose(2, 1, 0), n)
        got = [campaign._CLASSES[k] for k in classes]
        want = [self._one_fault(golden, cube[f], n) for f in range(len(cube))]
        assert got == want
        assert set(want) == {"benign", "detected", "silent"}

    @pytest.mark.parametrize("n", range(2, 10))
    def test_bitmask_matches_sort_rule_over_the_bus_range(self, n, rng):
        """Entries span the whole output bus, 0 .. 2^ceil(log2 n) - 1, so
        rows hold out-of-range values (5-7 at n = 5 and 6) as well as
        duplicates and all-equal rows."""
        top = 1 << (n - 1).bit_length()
        rows = 6
        golden = np.array([rng.permutation(n) for _ in range(rows)])
        cube = np.repeat(golden[None], 250, axis=0)
        for f in range(50, 100):  # one row re-permuted
            cube[f, rng.integers(rows)] = rng.permutation(n)
        for f in range(100, 150):  # one row drawn over the bus range
            cube[f, rng.integers(rows)] = rng.integers(0, top, n)
        for f in range(150, 200):  # one row all equal
            cube[f, rng.integers(rows)] = rng.integers(0, top)
        for f in range(200, 250):  # one entry redrawn: a duplicate or out of range
            cube[f, rng.integers(rows), rng.integers(n)] = rng.integers(0, top)
        want = [self._one_fault(golden, cube[f], n) for f in range(len(cube))]
        assert set(want) == {"benign", "detected", "silent"}
        for dtype in (np.int64, np.uint8):  # as drawn, and as a sweep reads
            classes = campaign._classify(
                golden.T.astype(dtype), cube.transpose(2, 1, 0).astype(dtype), n
            )
            assert [campaign._CLASSES[k] for k in classes] == want


class TestPlanMemo:
    """Netlists and fault lists are planned once per process."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count flow.build_circuit calls; start from an empty memo.

        A build inside a worker process raises, failing its shard.
        """
        calls = []
        build = flow.build_circuit
        home = os.getpid()

        def counting(circuit, n, *, pipelined=False):
            if os.getpid() != home:
                raise RuntimeError("a worker process rebuilt the netlist")
            calls.append((circuit, n, pipelined))
            return build(circuit, n, pipelined=pipelined)

        monkeypatch.setattr(flow, "build_circuit", counting)
        campaign._build_netlist.cache_clear()
        campaign._plan.cache_clear()
        yield calls
        campaign._build_netlist.cache_clear()
        campaign._plan.cache_clear()

    def test_one_build_per_netlist_and_none_on_repeat(self, builds):
        specs = [
            CampaignSpec(n=4, model="stuck"),  # one inline shard
            CampaignSpec(n=4, model="seu"),  # the pipelined netlist
            CampaignSpec(n=4, model="bridge", samples=8),  # reuses stuck's
        ]
        first = [_signature(run_campaign(s)) for s in specs]
        assert sorted(builds) == [
            ("converter", 4, False),
            ("converter", 4, True),
        ]
        builds.clear()
        assert [_signature(run_campaign(s)) for s in specs] == first
        assert builds == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the plan only when forked",
    )
    def test_forked_workers_inherit_the_plan(self, builds):
        # two shards, so they run in worker processes, not inline
        res, shards = _run_sharded(_TWO_PASSES, workers=2)
        assert shards == 2
        assert res.failed_shards == 0 and res.total == 600
        assert builds == [("converter", 7, False)]

    def test_mutating_fault_list_leaves_next_campaign(self):
        spec = CampaignSpec(n=4, model="stuck", samples=20)
        before = _signature(run_campaign(spec))
        faults = fault_list(spec)
        pristine = list(faults)
        faults.reverse()
        faults.append(StuckAtFault(wire=0, value=True))
        assert fault_list(spec) == pristine
        assert _signature(run_campaign(spec)) == before


class TestConverterCampaign:
    def test_exhaustive_stuck_accounting(self):
        res = run_campaign(CampaignSpec(circuit="converter", n=4, model="stuck"))
        assert res.exhaustive
        assert res.total == len(fault_list(res.spec))
        assert res.benign + res.detected + res.silent == res.total
        assert res.corrupting > 0
        # every corrupting fault is caught by the rank oracle; the
        # bijectivity check alone gets a strict subset
        assert 0.0 < res.bijection_coverage <= 1.0

    def test_seu_campaign_targets_registers(self):
        spec = CampaignSpec(circuit="converter", n=4, model="seu")
        faults = fault_list(spec)
        assert faults and all(isinstance(f, SEUFault) for f in faults)
        res = run_campaign(spec)
        assert res.total == len(faults)

    def test_worker_count_invariance(self):
        a, shards_a = _run_sharded(_TWO_PASSES, workers=1)  # inline
        b, shards_b = _run_sharded(_TWO_PASSES, workers=2)  # worker processes
        assert shards_a == shards_b == 2
        assert _signature(a) == _signature(b)

    def test_render_mentions_key_numbers(self):
        res = run_campaign(CampaignSpec(n=4, model="stuck", samples=16))
        text = res.render()
        assert "bijection-check coverage" in text
        assert "Wilson CI" in text  # sampled campaigns quote the interval
        assert "rank oracle" in text


class TestEngineIdentity:
    """The fault-parallel compiled path must match the per-fault interpreter
    exactly — counts, per-fault classification order and rendered examples."""

    @pytest.mark.parametrize(
        "circuit,model,n",
        [
            ("converter", "stuck", 4),
            ("converter", "seu", 4),
            ("shuffle", "stuck", 4),
            ("shuffle", "seu", 4),
        ],
    )
    def test_compiled_matches_interp(self, circuit, model, n):
        def run(engine):
            return run_campaign(
                CampaignSpec(
                    circuit=circuit, n=n, model=model, samples=24, engine=engine
                )
            )

        a, b = run("interp"), run("compiled")
        assert (a.benign, a.detected, a.silent) == (b.benign, b.detected, b.silent)
        assert a.examples == b.examples
        assert a.engine == "interp" and b.engine == "compiled"
        # fault-parallelism: far fewer sweeps than one-per-fault
        assert 0 < b.sweeps < a.sweeps

    @pytest.mark.parametrize(
        "circuit,samples,stream",
        [
            ("converter", None, 24 + 3),  # 87 faults; 4! vectors + fill
            ("shuffle", 120, 16 + 1),  # stream_length + seed-state cycle
        ],
    )
    def test_wide_sequential_pass(self, circuit, samples, stream):
        """Compiled SEU campaigns wider than 64 lanes run in one pass and
        classify exactly as the interpreter and the vector engine do."""
        spec = CampaignSpec(circuit=circuit, n=4, model="seu", samples=samples)

        def run(engine, workers):
            return run_campaign(replace(spec, engine=engine), workers=workers)

        ref = run("interp", 1)
        assert ref.total > 64
        for engine, workers in [
            ("interp", 2),
            ("compiled", 1),
            ("compiled", 2),
            ("vector", 1),
            ("vector", 2),
        ]:
            res = run(engine, workers)
            assert _signature(res) == _signature(ref), (engine, workers)
            if engine == "compiled":
                assert res.sweeps == stream, workers

    def test_wide_combinational_pass(self):
        """Compiled stuck-at passes take the compiled pass budget, not
        the serving quantum: ceil(faults / chunk) passes at any worker
        count, classified exactly as the interpreter and the vector
        engine do."""
        def run(engine, workers):
            return run_campaign(replace(_TWO_PASSES, engine=engine), workers=workers)

        ref = run("interp", 1)
        chunk = campaign._COMPILED_PASS_LANES // ref.test_vectors - 1
        assert ref.test_vectors == 64 and chunk == 511 < ref.total
        for engine, workers in [("compiled", 1), ("compiled", 2), ("vector", 1)]:
            res = run(engine, workers)
            assert _signature(res) == _signature(ref), (engine, workers)
            if engine == "compiled":
                assert res.sweeps == -(-ref.total // chunk) == 2, workers

    @pytest.mark.parametrize("samples", [63, 64, 65, 127])
    @pytest.mark.parametrize(
        "config",
        [
            {"circuit": "converter", "n": 5, "test_count": 2},
            {"circuit": "shuffle", "n": 4, "stream_length": 4},
        ],
        ids=["converter", "shuffle"],
    )
    def test_seu_passes_across_word_boundaries(self, config, samples):
        """A golden slot and 63, 64, 65 or 127 SEU sites put an SEU
        pass's last lane on either side of a 64-lane word boundary.
        Every engine classifies them alike at 1 and 2 workers, and so
        does the vector engine without its native stream.  (Short test
        streams keep the per-fault interpreter quick; the boundaries
        are in the lanes, one per fault.)"""
        spec = CampaignSpec(model="seu", samples=samples, **config)

        def run(engine, workers):
            res = run_campaign(replace(spec, engine=engine), workers=workers)
            return _signature(res)

        ref = run("interp", 1)
        assert ref[0] == samples
        for engine in ("auto", "compiled", "vector", "interp"):
            for workers in (1, 2):
                assert run(engine, workers) == ref, (engine, workers)
        with mock.patch("repro.hdl.vector.native_binding", return_value=None):
            for workers in (1, 2):
                assert run("vector", workers) == ref, ("numpy", workers)

    def test_auto_resolves_to_fault_parallel(self):
        res = run_campaign(CampaignSpec(n=4, model="stuck", samples=12))
        assert res.engine == "compiled"
        assert "faults/s" in res.render()

    @pytest.fixture
    def fresh_plans(self):
        """No memoised campaign plan, before and after: a plan keeps the
        lane format its first run chose."""
        campaign._plan.cache_clear()
        yield
        campaign._plan.cache_clear()

    @pytest.mark.skipif(find_compiler() is None, reason="no cc on PATH")
    def test_auto_runs_seu_on_the_native_stream(self, fresh_plans):
        seu = run_campaign(CampaignSpec(n=5, model="seu"))
        stuck = run_campaign(CampaignSpec(n=5, model="stuck"))
        assert (seu.engine, stuck.engine) == ("vector", "compiled")
        assert native_binding(compile_netlist(campaign._plan(seu.spec).netlist))
        # a pass of one 64-lane word (63 faults and the golden slot)
        # stays on bigints, 64 faults take the native stream
        one_word = run_campaign(CampaignSpec(n=5, model="seu", samples=63))
        two_words = run_campaign(CampaignSpec(n=5, model="seu", samples=64))
        assert (one_word.engine, two_words.engine) == ("compiled", "vector")

    def test_auto_runs_seu_on_compiled_without_cc(
        self, fresh_native, fresh_plans, monkeypatch, tmp_path
    ):
        spec = CampaignSpec(n=5, model="seu")
        ref = run_campaign(replace(spec, engine="compiled"))
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc anywhere on it
        res = run_campaign(spec)
        assert res.engine == "compiled"
        assert _signature(res) == _signature(ref) and res.sweeps == ref.sweeps
        assert native_cache_info()["fallbacks"] == 1

    def test_no_build_outside_a_plan(self, fresh_native, fresh_plans):
        """Clocked steps only look a binding up: a vector step or stream
        on a netlist nobody bound, and planning an SEU campaign, build
        and load nothing."""
        nl = flow.build_circuit("converter", 3, pipelined=True)
        before = native_cache_info()
        sim = SequentialSimulator(nl, batch=5, backend="vector")
        sim.step({"index": [0, 1, 2, 3, 4]})
        sim.run_stream([{"index": 5}] * 3)
        fault_list(CampaignSpec(n=4, model="seu"))
        assert native_cache_info() == before
        assert native_binding(compile_netlist(nl)) is None

    def test_bridge_model_falls_back_to_interp(self):
        res = run_campaign(CampaignSpec(n=4, model="bridge", samples=12))
        assert res.engine in ("auto", "interp")

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(engine="verilator")


GOLDEN = Path(__file__).parent / "golden_campaigns.json"
SIGNATURE = ("total", "benign", "detected", "silent", "test_vectors", "examples", "sweeps")


class TestGoldenSignatures:
    """Exhaustive campaigns pinned to recorded signatures.

    :class:`TestEngineIdentity` compares engines with each other, so a
    defect shared by every engine — in the classification rule, the
    fault-plan masks or the output read — would pass it.  The values in
    ``golden_campaigns.json`` were recorded from the campaign code before
    its fault plans, leaf layouts and output reads were rewritten for
    speed; this test only reads them.
    """

    @pytest.mark.parametrize(
        "case",
        json.loads(GOLDEN.read_text()),
        ids=lambda c: f"{c['circuit']}-n{c['n']}-{c['model']}-{c['engine']}",
    )
    def test_signature(self, case):
        spec = CampaignSpec(
            circuit=case["circuit"], n=case["n"], model=case["model"], engine=case["engine"]
        )
        res = run_campaign(spec)
        assert {k: getattr(res, k) for k in SIGNATURE} == {k: case[k] for k in SIGNATURE}


class TestShuffleCampaign:
    def test_stuck_campaign_runs(self):
        res = run_campaign(
            CampaignSpec(circuit="shuffle", n=4, model="stuck", samples=20)
        )
        assert res.total == 20
        assert res.benign + res.detected + res.silent == 20
        assert "statistical monitoring" in res.render()

    def test_seu_in_lfsr_is_always_silent_or_benign(self):
        """An upset LFSR bit reshuffles the randomness: outputs stay valid
        permutations, so per-sample checking can never catch it."""
        res = run_campaign(
            CampaignSpec(circuit="shuffle", n=4, model="seu", samples=30)
        )
        assert res.detected == 0
        assert res.total == 30
