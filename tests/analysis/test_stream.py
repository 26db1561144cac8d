"""Population-scale streaming validation tests.

The load-bearing properties: accumulator merges are exactly associative
and commutative (pure-integer state), campaign statistics are invariant
to shard count / engine / interruption, and checkpoint resume after a
mid-campaign kill reproduces the uninterrupted run bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stream
from repro.analysis.checkpoint import load_checkpoint
from repro.analysis.stream import (
    ACCUMULATOR_KINDS,
    CampaignConfig,
    FirstElementBiasAccumulator,
    FixedPointAccumulator,
    PopulationStats,
    RankBucketAccumulator,
    SerialCorrelationAccumulator,
    battery_passed,
    battery_report,
    campaign_verdict,
    expected_tv_noise,
    merge_states,
    pigeonhole_curve,
    run_population_campaign,
    stream_blocks,
)
from repro.analysis.randtests import battery
from repro.core.knuth import KnuthShuffleCircuit
from repro.errors import CampaignConfigError, CheckpointMismatchError
from repro.rng.lfsr import FibonacciLFSR
from repro.rng.scaled import bias_profile

N = 6
CELLS = 97


def _fresh_accumulators(n=N):
    return {
        "rank_buckets": RankBucketAccumulator(n, CELLS),
        "fixed_points": FixedPointAccumulator(n),
        "serial": SerialCorrelationAccumulator(n, (1, 2)),
        "first_element": FirstElementBiasAccumulator(n, 31, "lfsr"),
    }


def _update(acc, perms):
    """Fold ``perms`` into ``acc`` as one block."""
    if acc.kind == "serial":
        acc.update(perms, len(perms))
    else:
        acc.update(perms)


def _random_state(seed, n=N, batches=3):
    """A state dict fed from a few random permutation batches."""
    rng = np.random.default_rng(seed)
    accs = _fresh_accumulators(n)
    total = 0
    for _ in range(batches):
        perms = rng.permuted(np.tile(np.arange(n), (rng.integers(1, 50), 1)), axis=1)
        total += len(perms)
        for acc in accs.values():
            _update(acc, perms)
    return {
        "version": stream.STATE_VERSION,
        "samples": total,
        "accumulators": {k: a.state_dict() for k, a in accs.items()},
    }


class TestMergeAlgebra:
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_merge_associative_and_commutative(self, seeds):
        a, b, c = (_random_state(s) for s in seeds)
        ab_c = merge_states(merge_states(a, b), c)
        a_bc = merge_states(a, merge_states(b, c))
        ba = merge_states(b, a)
        assert ab_c == a_bc
        assert merge_states(a, b) == ba

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_per_kind_merge_matches_joint_update(self, seed):
        """merge(update(A), update(B)) == update(A ∥ B) for every kind."""
        rng = np.random.default_rng(seed)
        base = np.tile(np.arange(N), (40, 1))
        batch_a = rng.permuted(base, axis=1)
        batch_b = rng.permuted(base, axis=1)
        for kind, cls in ACCUMULATOR_KINDS.items():
            acc_a, acc_b, acc_all = (
                _fresh_accumulators()[kind] for _ in range(3)
            )
            _update(acc_a, batch_a)
            _update(acc_b, batch_b)
            _update(acc_all, batch_a)
            _update(acc_all, batch_b)
            merged = cls.merge_state(acc_a.state_dict(), acc_b.state_dict())
            assert merged == acc_all.state_dict(), kind

    def test_state_roundtrip(self):
        for kind, acc in _fresh_accumulators().items():
            _update(acc, np.tile(np.arange(N), (17, 1)))
            state = acc.state_dict()
            assert ACCUMULATOR_KINDS[kind].from_state(state).state_dict() == state

    def test_version_and_kind_mismatch_rejected(self):
        a = _random_state(1)
        bad = dict(a, version="repro-analysis/999")
        with pytest.raises(ValueError):
            merge_states(a, bad)
        dropped = dict(a, accumulators={"fixed_points": a["accumulators"]["fixed_points"]})
        with pytest.raises(ValueError):
            merge_states(a, dropped)


class TestAccumulatorUpdates:
    """The one-pass updates against the statistics' definitions."""

    @staticmethod
    def _serial_definition(values, lags):
        sums = {}
        for lag in lags:
            x, y = values[:-lag], values[lag:]
            sums[lag] = (
                [len(x), sum(x), sum(y), sum(a * a for a in x),
                 sum(b * b for b in y), sum(a * b for a, b in zip(x, y))]
                if len(values) > lag
                else [0] * 6
            )
        return sums

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 60),
        block=st.integers(2, 40),
        short=st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_serial_sums_match_definition(self, seed, rows, block, short):
        rng = np.random.default_rng(seed)
        perms = rng.permuted(np.tile(np.arange(N), (rows, 1)), axis=1)
        lags = (1, 2, 7, 60)
        acc = SerialCorrelationAccumulator(N, lags)
        acc.update(np.asfortranarray(perms.astype(np.uint8)), rows)
        acc.update(perms[:0], rows)  # an empty fold adds nothing
        assert acc.sums == self._serial_definition([int(x) for x in perms[:, 0]], lags)

        # one update over three blocks, the last one short: pairs stop
        # at each block boundary and the sums add block by block
        short = min(short, block)
        cfg = CampaignConfig(n=N, samples=2 * block + short, block=block, lags=lags)
        sweep = rng.permuted(np.tile(np.arange(N), (cfg.samples, 1)), axis=1)
        stats = PopulationStats.fresh(cfg.validated())
        stats.update(np.asfortranarray(sweep.astype(np.uint8)))
        want = {lag: [0] * 6 for lag in lags}
        for lo in range(0, cfg.samples, block):
            first = [int(x) for x in sweep[lo : lo + block, 0]]
            for lag, sums in self._serial_definition(first, lags).items():
                want[lag] = [a + b for a, b in zip(want[lag], sums)]
        assert stats.accumulators["serial"].sums == want

    def test_fixed_points_match_definition(self):
        rng = np.random.default_rng(5)
        perms = rng.permuted(np.tile(np.arange(N), (500, 1)), axis=1)
        acc = FixedPointAccumulator(N)
        acc.update(np.asfortranarray(perms))
        fixed = [sum(int(p[i]) == i for i in range(N)) for p in perms]
        assert acc.hist.tolist() == np.bincount(fixed, minlength=N + 1).tolist()


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(CampaignConfigError):
            CampaignConfig(n=1).validated()
        with pytest.raises(CampaignConfigError):
            CampaignConfig(samples=0).validated()
        with pytest.raises(CampaignConfigError):
            CampaignConfig(source="dilithium").validated()
        with pytest.raises(CampaignConfigError):
            CampaignConfig(engine="gpu").validated()
        with pytest.raises(CampaignConfigError):
            CampaignConfig(m=62).validated()
        with pytest.raises(CampaignConfigError):
            CampaignConfig(lags=()).validated()
        # shuffle stages need distinct default widths m, m−1, …, ≥ 8
        with pytest.raises(CampaignConfigError, match="m ≥ 8"):
            CampaignConfig(n=4, m=7, source="shuffle").validated()
        with pytest.raises(CampaignConfigError, match="distinct"):
            CampaignConfig(n=20, m=31, source="shuffle").validated()
        with pytest.raises(CampaignConfigError, match="distinct"):
            CampaignConfig(n=4, m=9, source="shuffle").validated()
        CampaignConfig(n=17, m=31, source="shuffle").validated()
        CampaignConfig(n=3, m=9, source="shuffle").validated()

    def test_roundtrip(self):
        cfg = CampaignConfig(n=5, samples=1234, lags=(1, 3)).validated()
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg

    def test_fingerprint_ignores_engine_only(self):
        cfg = CampaignConfig()
        assert cfg.fingerprint() == CampaignConfig(engine="interp").fingerprint()
        assert cfg.fingerprint() != CampaignConfig(seed=3).fingerprint()
        assert cfg.fingerprint() != CampaignConfig(block=512).fingerprint()
        fingerprints = {CampaignConfig(source=s).fingerprint() for s in stream.SOURCES}
        assert len(fingerprints) == len(stream.SOURCES)

    def test_block_sizes_tile_samples(self):
        cfg = CampaignConfig(samples=10_000, block=4096)
        sizes = [cfg.block_size(b) for b in range(cfg.total_blocks)]
        assert sizes == [4096, 4096, 1808]
        assert sum(sizes) == cfg.samples


class TestStreamInvariance:
    CFG = CampaignConfig(n=N, samples=12_288, block=2048, engine="compiled")

    def _run(self, **kw):
        kw.setdefault("workers", 1)
        kw.setdefault("battery_draws", 0)
        return run_population_campaign(self.CFG, **kw)

    def test_shard_count_invariant(self):
        for source in ("lfsr", "shuffle"):
            cfg = replace(self.CFG, source=source)
            one = run_population_campaign(cfg, shards=1, workers=1, battery_draws=0)
            assert one.stats.samples == cfg.samples
            runs = [(3, 1), (5, 1)] + ([(3, 2)] if source == "shuffle" else [])
            for shards, workers in runs:
                other = run_population_campaign(
                    cfg, shards=shards, workers=workers, battery_draws=0
                )
                assert other.stats.state_dict() == one.stats.state_dict(), (
                    source, shards, workers,
                )

    def test_shuffle_blocks_are_circuit_samples(self):
        """Block b is the Fig.-3 circuit, seeded for b, sampled once —
        short final block included."""
        cfg = CampaignConfig(n=N, samples=5000, block=2048, source="shuffle")
        blocks = list(stream_blocks(cfg, range(cfg.total_blocks)))
        assert [len(p) for p in blocks] == [2048, 2048, 904]
        for b, perms in enumerate(blocks):
            seeds = stream._shuffle_seeds(cfg, b)
            circuit = KnuthShuffleCircuit(N, cfg.m, seeds=seeds)
            assert np.array_equal(perms, circuit.sample(cfg.block_size(b)))
        assert stream._shuffle_seeds(cfg, 0) != stream._shuffle_seeds(cfg, 1)

    def test_shuffle_source_passes_effect_size_gates(self):
        cfg = CampaignConfig(n=N, samples=40_960, block=4096, source="shuffle")
        result = run_population_campaign(cfg, workers=1, battery_draws=0)
        assert result.verdict["mode"] == "effect_size"
        assert result.verdict["passed"], result.summary

    def test_engine_invariant(self):
        states = []
        for engine in ("interp", "compiled", "vector"):
            cfg = CampaignConfig(n=N, samples=4096, block=2048, engine=engine)
            stats = PopulationStats.fresh(cfg)
            for perms in stream_blocks(cfg, range(cfg.total_blocks)):
                stats.update(perms)
            states.append(stats.state_dict())
        assert states[0] == states[1] == states[2]

    def test_streaming_is_lazy(self):
        """stream_blocks yields per block — no (samples, n) array ever
        materialises."""
        cfg = CampaignConfig(n=N, samples=8192, block=1024, engine="compiled")
        sizes = [len(p) for p in stream_blocks(cfg, range(cfg.total_blocks))]
        assert sizes == [1024] * 8

    def test_ideal_source_passes_p_value_gates(self):
        cfg = CampaignConfig(
            n=N, samples=40_960, block=4096, source="ideal", engine="compiled"
        )
        result = run_population_campaign(cfg, workers=1, battery_draws=0)
        assert result.verdict["mode"] == "p_value"
        assert result.verdict["passed"], result.summary

    def test_lfsr_source_passes_effect_size_gates(self):
        result = self._run()
        assert result.verdict["mode"] == "effect_size"
        assert result.verdict["serial_expected_artifact"]
        assert result.verdict["passed"], result.summary


class TestSweepGroups:
    """Several blocks share one engine sweep; the statistics must not see it.

    ``SWEEP_LANES = 1`` makes every block a sweep of its own — the
    one-block-per-sweep reference.  Eleven 2048-lane blocks with a short
    last one: four blocks fill a sweep, so no shard count below divides
    evenly into sweeps.
    """

    CFG = CampaignConfig(n=N, samples=10 * 2048 + 777, block=2048)

    def _state(self, monkeypatch, lanes, engine, cfg=CFG, **kw):
        monkeypatch.setattr(stream, "SWEEP_LANES", lanes)
        kw.setdefault("workers", 1)
        kw.setdefault("battery_draws", 0)
        cfg = replace(cfg, engine=engine)
        return run_population_campaign(cfg, **kw).stats.state_dict()

    @pytest.mark.parametrize("engine", ["vector", "compiled"])
    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_state_matches_one_block_per_sweep(self, monkeypatch, engine, shards):
        """Also for the ideal source, and for 3,000-row blocks: two per
        6,000-lane sweep, the campaign ending on a short one."""
        lanes = stream.SWEEP_LANES  # read before the reference patches it
        for source, block in (("lfsr", 2048), ("ideal", 2048), ("ideal", 3000)):
            cfg = replace(self.CFG, source=source, block=block, samples=10 * block + 777)
            reference = self._state(monkeypatch, 1, engine, cfg, shards=shards)
            grouped = self._state(monkeypatch, lanes, engine, cfg, shards=shards)
            assert grouped == reference, (source, block)
            assert grouped["samples"] == cfg.samples

    def test_kill_and_resume_at_odd_block(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "campaign.json"

        def die_after_first_round(round_index, state):
            if round_index == 0:
                raise RuntimeError("simulated crash")

        monkeypatch.setattr(stream, "_after_round", die_after_first_round)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_population_campaign(
                self.CFG, shards=5, workers=1, checkpoint_every=1,
                checkpoint_path=ckpt, battery_draws=0,
            )
        assert load_checkpoint(ckpt)["completed"] == [[0, 3]]
        monkeypatch.setattr(stream, "_after_round", lambda i, s: None)
        resumed = run_population_campaign(
            self.CFG, workers=1, checkpoint_path=ckpt, resume=True, battery_draws=0
        )
        assert resumed.resumed
        reference = self._state(monkeypatch, 1, "vector")
        assert resumed.stats.state_dict() == reference

    def test_one_array_per_block(self, monkeypatch):
        from repro.hdl.simulator import BatchEntry

        sweeps = []
        run = BatchEntry.run

        def counting_run(self, inputs, materialize=True):
            sweeps.append(len(inputs["index"]))
            return run(self, inputs, materialize)

        cfg = replace(self.CFG, engine="vector")
        monkeypatch.setattr(stream, "SWEEP_LANES", 1)
        reference = list(stream_blocks(cfg, range(cfg.total_blocks)))
        monkeypatch.setattr(stream, "SWEEP_LANES", 4 * 2048)
        monkeypatch.setattr(BatchEntry, "run", counting_run)
        blocks = list(stream_blocks(cfg, range(cfg.total_blocks)))
        assert sweeps == [4 * 2048, 4 * 2048, 2 * 2048 + 777]
        assert [len(p) for p in blocks] == [2048] * 10 + [777]
        for got, want in zip(blocks, reference):
            assert np.array_equal(got, want)
            assert all(got[:, t].flags.c_contiguous for t in range(N))

    @pytest.mark.parametrize("engine", ["interp", "compiled", "vector"])
    def test_blocks_are_narrow_contiguous_columns(self, engine):
        """One bus read per sweep hands the statistics uint8 columns, no
        int64 copy, on every engine."""
        cfg = replace(self.CFG, engine=engine)
        blocks = list(stream_blocks(cfg, range(cfg.total_blocks)))
        assert sum(len(p) for p in blocks) == cfg.samples
        for perms in blocks:
            assert perms.dtype == np.uint8
            assert all(perms[:, t].flags.c_contiguous for t in range(N))

    def test_block_wider_than_budget_is_its_own_sweep(self, monkeypatch):
        monkeypatch.setattr(stream, "SWEEP_LANES", 1000)
        cfg = CampaignConfig(n=N, samples=5000, block=1500, engine="compiled")
        sizes = [len(p) for p in stream_blocks(cfg, range(cfg.total_blocks))]
        assert sizes == [1500, 1500, 1500, 500]


class TestKillAndResume:
    CFG = CampaignConfig(n=N, samples=16_384, block=2048, engine="compiled")

    def test_kill_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        def die_after_first_round(round_index, state):
            if round_index == 0:
                raise RuntimeError("simulated crash")

        for source in ("lfsr", "shuffle"):
            cfg = replace(self.CFG, source=source)
            ckpt = tmp_path / f"{source}.json"
            monkeypatch.setattr(stream, "_after_round", die_after_first_round)
            with pytest.raises(RuntimeError, match="simulated crash"):
                run_population_campaign(
                    cfg,
                    shards=4,
                    workers=1,
                    checkpoint_every=2,
                    checkpoint_path=ckpt,
                    battery_draws=0,
                )
            # the crash happened *after* the round-0 checkpoint landed
            partial = load_checkpoint(ckpt)
            assert partial["state"]["samples"] < cfg.samples
            assert len(partial["completed"]) == 2

            monkeypatch.setattr(stream, "_after_round", lambda i, s: None)
            resumed = run_population_campaign(
                cfg,
                shards=99,  # ignored: the checkpoint's decomposition wins
                workers=1,
                checkpoint_path=ckpt,
                resume=True,
                battery_draws=0,
            )
            uninterrupted = run_population_campaign(
                cfg, shards=1, workers=1, battery_draws=0
            )
            assert resumed.resumed
            assert resumed.shards == 4
            assert resumed.stats.state_dict() == uninterrupted.stats.state_dict(), source

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = tmp_path / "campaign.json"
        run_population_campaign(
            CampaignConfig(n=N, samples=2048, engine="compiled"),
            workers=1,
            checkpoint_path=ckpt,
            battery_draws=0,
        )
        other = CampaignConfig(n=N, samples=2048, seed=999, engine="compiled")
        with pytest.raises(CheckpointMismatchError):
            run_population_campaign(
                other, workers=1, checkpoint_path=ckpt, resume=True, battery_draws=0
            )

    def test_resume_under_different_engine_allowed(self, tmp_path):
        """The fingerprint excludes the engine: a campaign checkpointed
        under one backend may resume under another with identical
        statistics (engines are bit-identical on the same netlist)."""
        cfg = CampaignConfig(n=N, samples=8192, block=2048, engine="compiled")
        ckpt = tmp_path / "campaign.json"
        first = run_population_campaign(
            cfg, shards=4, workers=1, checkpoint_path=ckpt, battery_draws=0
        )
        resumed = run_population_campaign(
            replace(cfg, engine="vector"),
            workers=1,
            checkpoint_path=ckpt,
            resume=True,
            battery_draws=0,
        )
        assert resumed.stats.state_dict() == first.stats.state_dict()

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(CampaignConfigError):
            run_population_campaign(self.CFG, resume=True, workers=1)


class TestVerdictAndReport:
    def test_bucket_tv_measured_against_exact_null_not_uniform(self):
        """Regression: with cells ∤ n! the exact bucket null sits a
        structural ~½·r·(cells−r)/(cells·n!) from uniform (n=8,
        cells=4093 → 1.29e-2).  TV must be measured against the null —
        counts drawn *exactly* from it score 0, not the offset, which
        would fail every unbiased campaign once the noise floor shrinks
        below it (~10⁷ samples)."""
        from repro.analysis.uniformity import bucket_null_probabilities

        n, cells, reps = 8, 4093, 1000
        acc = RankBucketAccumulator(n, cells)
        null = bucket_null_probabilities(n, cells)
        exact = np.rint(null * 40320).astype(np.int64)  # 9s and 10s
        assert int(exact.sum()) == 40320
        acc.counts = exact * reps
        s = acc.summary()
        assert s["tv_distance"] == 0.0
        assert s["chi2"] == pytest.approx(0.0)
        assert s["entropy_bits"] == pytest.approx(s["null_entropy_bits"])
        structural = 0.5 * float(np.abs(null - 1.0 / cells).sum())
        assert structural > 0.012  # the offset the old code reported

    def test_broken_generator_fails_gates(self):
        """A stuck first element must trip the effect-size gates."""
        cfg = CampaignConfig(n=N, samples=4096, engine="compiled").validated()
        stats = PopulationStats.fresh(cfg)
        perms = np.tile(np.arange(N), (4096, 1))  # identity forever
        stats.update(perms)
        verdict = campaign_verdict(cfg, stats.summary())
        assert not verdict["passed"]
        assert not verdict["gates"]["uniformity"]
        assert not verdict["gates"]["derangements"]  # zero derangements

    def test_noise_floor_shrinks_with_samples(self):
        assert expected_tv_noise(CELLS, 10**6) < expected_tv_noise(CELLS, 10**4)
        assert expected_tv_noise(CELLS, 0) == float("inf")

    def test_pigeonhole_curve_matches_closed_form(self):
        points = pigeonhole_curve(8, ms=(16, 31))
        assert [p["m"] for p in points] == [16, 31]
        for p in points:
            profile = bias_profile(8, p["m"])
            assert p["ratio"] == profile.ratio
            assert p["max_relative_error"] == profile.max_relative_error
        # wider modulus → smaller pigeonhole bias
        assert points[1]["ratio"] < points[0]["ratio"]

    def test_report_payload_and_render(self):
        cfg = CampaignConfig(n=N, samples=4096, engine="compiled")
        result = run_population_campaign(cfg, workers=1)
        payload = result.payload()
        assert payload["kind"] == "report"
        assert payload["fingerprint"] == cfg.validated().fingerprint()
        assert payload["battery"]["passed"]
        text = result.render()
        assert "population validation" in text
        assert "verdict" in text

    def test_battery_gates_effect_size_not_p_value(self):
        """Seed 491263128's dense m-sequence window has 45.3 % ones —
        monobit p < 1e-6, which the iid p-value gate used to fail —
        yet stays inside the effect-size bounds; both are reported."""
        report = battery_report(CampaignConfig(seed=491263128))
        results = {r["name"]: r for r in report["results"]}
        assert results["monobit"]["p_value"] < 1e-6
        assert results["monobit"]["effect"] == pytest.approx(0.453125 - 0.5)
        assert not results["monobit"]["expected_artifact"]
        assert results["serial_lag1"]["expected_artifact"]
        assert report["passed"]

    @pytest.mark.parametrize(
        "words",
        [
            # the sparse-seed warm-up window: ~34 % ones over 4096 words
            FibonacciLFSR(31, seed=1).words(4096),
            np.full(4096, 0x5A5A5A5A, dtype=np.uint32),  # constant stream
            FibonacciLFSR(31, seed=12345).words(4096) | np.uint32(1),  # stuck LSB
            np.arange(4096, dtype=np.uint32),  # alternating LSB
        ],
        ids=["warm_up", "constant", "stuck_lsb", "alternating"],
    )
    def test_battery_gate_fails_broken_streams(self, words):
        class Replay:
            def words(self, count):
                return words[:count]

        assert not battery_passed(battery(Replay(), draws=len(words)))

    def test_serial_artifact_present_and_enveloped(self):
        """Raw m-sequence structure shows up at lag 1 (r far from 0) but
        stays inside the documented envelope."""
        cfg = CampaignConfig(n=8, samples=20_480, block=4096, engine="compiled")
        result = run_population_campaign(cfg, workers=1, battery_draws=0)
        lag1 = result.summary["serial"]["lags"]["1"]
        assert abs(lag1["r"]) > 0.2  # the artifact is real
        assert abs(lag1["r"]) <= stream.SERIAL_ENVELOPE
        assert result.verdict["gates"]["serial"]
