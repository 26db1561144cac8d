"""Fig.-4 tests: the shuffle campaign's 24 rank cells and their bar chart."""

import numpy as np
import pytest

from repro.analysis.distribution import fig4_bars, render_fig4
from repro.analysis.stream import CampaignConfig, run_population_campaign
from repro.analysis.uniformity import rank_bucket_counts


def _fig4(samples, n=4, **fields):
    cfg = CampaignConfig(n=n, samples=samples, source="shuffle", **fields)
    result = run_population_campaign(cfg, workers=1, battery_draws=0)
    return result.stats.accumulators["rank_buckets"].counts, result.summary["rank_buckets"]


class TestPacking:
    def test_paper_packed_examples(self):
        """Fig. 4: 30 and 228 are the packed words of 0132 and 3210...
        (paper: '00011110 and 11100100 represent 0 1 3 2 and 3 2 1 0')."""
        packed = {perm: word for word, perm, _ in fig4_bars([0] * 24)}
        assert packed["0 1 3 2"] == 30
        assert packed["3 2 1 0"] == 228

    def test_histogram_counts(self):
        arr = np.array([[0, 1, 2, 3]] * 3 + [[3, 2, 1, 0]] * 2)
        bars = fig4_bars(rank_bucket_counts(arr, 24))
        assert {word: count for word, _, count in bars if count} == {27: 3, 228: 2}

    def test_rank_histogram_indexing(self):
        arr = np.array([[0, 1, 2], [2, 1, 0], [2, 1, 0]])
        assert rank_bucket_counts(arr, 6).tolist() == [1, 0, 0, 0, 0, 2]


class TestExperiment:
    def test_small_run_structure(self):
        counts, uni = _fig4(4096, block=1000)
        assert counts.sum() == 4096
        assert len(counts) == 24 and uni["method"] == "exact"
        expected = 4096 / 24
        assert counts.min() <= expected <= counts.max()

    def test_only_permutation_words_appear(self):
        """'Of the 256 possible output values, only 24 represent
        permutations … this bar chart has 24 bars.'"""
        counts, _ = _fig4(2048)
        bars = fig4_bars(counts)
        assert len(bars) == 24
        assert sum(count for _, _, count in bars) == 2048
        assert all(0 <= word < 256 for word, _, _ in bars)

    def test_bars_sorted_by_packed_value(self):
        counts, _ = _fig4(1024)
        packed = [b[0] for b in fig4_bars(counts)]
        assert packed == sorted(packed)
        assert len(packed) == 24

    def test_render_has_24_lines(self):
        counts, _ = _fig4(1024)
        assert len(render_fig4(counts).splitlines()) == 24

    def test_full_scale_uniformity(self):
        """The headline: at 2¹⁸+ samples every bar is within a few % of
        samples/24 and the distribution passes a 0.1 % chi-square test."""
        counts, uni = _fig4(1 << 18)
        expected = (1 << 18) / 24
        spread = (counts.max() - counts.min()) / expected
        assert spread < 0.15
        assert uni["p_value"] > 1e-3
        assert uni["tv_distance"] < 0.02

    def test_custom_circuit(self):
        counts, _ = _fig4(600, n=3, m=16)
        assert len(counts) == 6
        assert len(fig4_bars(counts, n=3)) == 6

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ValueError):
            fig4_bars([1] * 23)
