"""Table-II harness tests (with tiny iteration counts to stay fast)."""

import pytest

from repro.perf.software_baseline import (
    default_iterations,
    software_batch_unrank_ns,
    software_shuffle_ns,
    software_unrank_ns,
)
from repro.perf.speedup import Table2Row, render_table2, table2_rows


class TestBaselines:
    def test_scalar_time_positive(self):
        assert software_unrank_ns(4, iterations=200) > 0

    def test_batch_time_positive(self):
        assert software_batch_unrank_ns(4, iterations=200) > 0

    def test_shuffle_time_positive(self):
        assert software_shuffle_ns(4, iterations=200) > 0

    def test_batch_faster_than_scalar(self):
        """The vectorised unranker must beat the scalar loop per element."""
        scalar = software_unrank_ns(8, iterations=2000)
        batch = software_batch_unrank_ns(8, iterations=2000)
        assert batch < scalar

    def test_default_iterations_decrease_with_n(self):
        assert default_iterations(2) >= default_iterations(6) >= default_iterations(10)


class TestRows:
    def test_row_derived_columns(self):
        row = Table2Row(n=4, hw_ns=10.0, sw_ns=2500.0, sw_batch_ns=200.0, iterations=100)
        assert row.speedup == pytest.approx(250.0)
        assert row.speedup_vs_batch == pytest.approx(20.0)

    def test_table2_shape(self):
        rows = table2_rows(ns=[2, 3], iterations=300)
        assert [r.n for r in rows] == [2, 3]
        for r in rows:
            assert r.hw_ns == pytest.approx(10.0)  # SRC-6 default clock
            assert r.speedup > 1.0

    def test_speedup_grows_with_n(self):
        """The paper's shape: software slows with n, hardware does not,
        so the speedup column increases.

        n = 2 and n = 8 are timed in alternation and each keeps its best
        (fastest-software, so highest-speedup) row of five, so a busy
        stretch of the host slows both sides instead of just one.
        """
        best: dict[int, Table2Row] = {}
        for _ in range(5):
            for row in table2_rows(ns=[2, 8], iterations=3000):
                if row.n not in best or row.speedup > best[row.n].speedup:
                    best[row.n] = row
        rows = [best[2], best[8]]
        assert rows[1].speedup > rows[0].speedup

    def test_render(self):
        rows = table2_rows(ns=[3], iterations=200)
        text = render_table2(rows)
        assert "speedup" in text.splitlines()[0]
        assert len(text.splitlines()) == 2
