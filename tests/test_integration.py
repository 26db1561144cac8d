"""Cross-module integration tests: whole pipelines, end to end."""

import math

import numpy as np
import pytest

from repro import (
    IndexToPermutationConverter,
    KnuthShuffleCircuit,
    Permutation,
    ScaledRandomInteger,
)
from repro.analysis.stream import (
    CampaignConfig,
    RankBucketAccumulator,
    run_population_campaign,
)
from repro.core.lehmer import rank_batch, unrank_batch
from repro.fpga import synthesize
from repro.hdl.verify import assert_equivalent
from repro.rng.scaled import bias_profile


class TestGateLevelEquivalence:
    """The converter netlist is formally checked against the arithmetic
    reference through the generic equivalence harness."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_converter_exhaustive_over_valid_indices(self, n):
        conv = IndexToPermutationConverter(n)
        nl = conv.build_netlist()

        def reference(point):
            idx = point["index"]
            if idx >= conv.index_limit:
                return {}  # outside the specified domain
            perm = conv.convert(idx)
            out = {f"out{t}": perm[t] for t in range(n)}
            out["word"] = Permutation(perm).packed_value()
            return out

        checked = assert_equivalent(
            nl, reference, samples=300, domains={"index": conv.index_limit}
        )
        assert checked == 300

    def test_converter_n6_random(self):
        conv = IndexToPermutationConverter(6)
        nl = conv.build_netlist()

        def reference(point):
            return {f"out{t}": conv.convert(point["index"])[t] for t in range(6)}

        assert_equivalent(nl, reference, samples=100, domains={"index": conv.index_limit})


class TestFullRandomPermutationPipeline:
    def test_indexed_generator_distribution(self):
        """Fig.-2 pipeline end to end: LFSR → scale → converter, tested
        for approximate uniformity over the permutation space."""
        perms = unrank_batch(ScaledRandomInteger(24, m=20).ints(24_000), 4)
        acc = RankBucketAccumulator(4, 24)
        acc.update(perms)
        assert acc.summary()["tv_distance"] < 0.05
        assert acc.counts.min() > 0

    def test_indexed_vs_shuffle_agree_statistically(self):
        """Both §III generators target the same uniform law."""
        a = unrank_batch(ScaledRandomInteger(24, m=20).ints(20_000), 4)
        b = KnuthShuffleCircuit(4, m=20).sample(20_000)
        ca = np.bincount(rank_batch(a), minlength=24) / 20_000
        cb = np.bincount(rank_batch(b), minlength=24) / 20_000
        assert np.abs(ca - cb).max() < 0.02

    def test_source_to_converter_stream(self):
        conv = IndexToPermutationConverter(5)
        out = conv.convert_batch(ScaledRandomInteger(math.factorial(5), m=24).ints(500))
        assert len({tuple(r) for r in out}) > 100  # well spread over 120

    def test_full_period_matches_bias_profile(self):
        """Over one whole LFSR period every permutation occurs, with the
        pigeonhole multiplicities of the §III-A bias analysis."""
        perms = unrank_batch(ScaledRandomInteger(6, m=5).ints((1 << 5) - 1), 3)
        counts = np.bincount(rank_batch(perms), minlength=6)
        assert counts.tolist() == list(bias_profile(6, 5).counts)
        assert counts.min() >= 1


class TestSynthesisPipeline:
    def test_both_circuits_synthesize_at_scale(self):
        """DESIGN.md's Table-III/IV pipeline runs for a spread of n."""
        for n in (2, 6, 10):
            conv_rep = synthesize(
                IndexToPermutationConverter(n).build_netlist(pipelined=True), n
            )
            assert conv_rep.total_luts >= 1 or n == 2
        shuf_rep = synthesize(KnuthShuffleCircuit(6, m=16).build_netlist(pipelined=True), 6)
        assert shuf_rep.registers > 0

    def test_shuffle_area_exceeds_converter_at_same_n(self):
        """Table IV vs Table III: shuffle rows carry the per-stage RNGs,
        so register counts are much higher."""
        n = 6
        conv = synthesize(IndexToPermutationConverter(n).build_netlist(pipelined=True), n)
        shuf = synthesize(KnuthShuffleCircuit(n).build_netlist(pipelined=True), n)
        assert shuf.registers > conv.registers


class TestPaperNarrative:
    def test_permutation_count_and_index_range(self):
        """'Since there are n! n-element permutations, the index ranges
        from 0 to n!−1.'"""
        conv = IndexToPermutationConverter(4)
        assert conv.index_limit == 24
        perms = {conv.convert(i) for i in range(24)}
        assert len(perms) == 24

    def test_one_permutation_per_clock_after_fill(self):
        """§II-B: 'after the first codeword emerges, a codeword emerges at
        each clock period' — counted on the cycle-accurate pipeline."""
        conv = IndexToPermutationConverter(4)
        idx = list(range(10))
        out = conv.simulate_netlist(idx, pipelined=True)
        assert out.shape == (10, 4)  # 10 inputs → 10 outputs, 1/clock

    def test_derangement_to_e_chain(self):
        """§III-C end to end at reduced scale: shuffle → derangements → e."""
        cfg = CampaignConfig(n=4, samples=1 << 14, source="shuffle")
        result = run_population_campaign(cfg, workers=1, battery_draws=0)
        assert abs(result.summary["fixed_points"]["e_estimate"] - math.e) < 0.15
