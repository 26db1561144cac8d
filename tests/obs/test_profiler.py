"""The stack-sampling profiler: phase attribution and the dump schema."""

import json
import threading
import time

import pytest

from repro.obs.profiler import (
    PROFILE_SCHEMA,
    SamplingProfiler,
    classify_frame,
    validate_profile,
)


def spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(500))


class TestSampling:
    def test_profiles_a_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        try:
            with SamplingProfiler(interval_s=0.001) as prof:
                time.sleep(0.15)
        finally:
            stop.set()
            worker.join()
        assert prof.samples > 10
        assert prof.phase_counts
        assert any("spin" in folded for folded in prof.stack_counts)

    def test_stop_is_idempotent_and_wall_accumulates(self):
        prof = SamplingProfiler(interval_s=0.001)
        prof.start()
        time.sleep(0.02)
        prof.stop()
        prof.stop()
        assert prof.report()["wall_s"] > 0.0

    def test_stack_table_overflow_folds(self):
        prof = SamplingProfiler(interval_s=0.001, max_stacks=1)
        prof.stack_counts["existing"] = 1
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        try:
            prof.start()
            time.sleep(0.05)
            prof.stop()
        finally:
            stop.set()
            worker.join()
        # the table never grew beyond max_stacks + the overflow bucket
        assert len(prof.stack_counts) <= 2

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=0)


class TestClassification:
    def test_repo_phases_attributed_by_path(self):
        assert classify_frame("src/repro/serve/batcher.py", "submit") == "batcher"
        assert classify_frame("/x/other/place.py", "f") is None

    def test_rng_phase(self):
        assert classify_frame("src/repro/rng/lfsr.py", "words") == "rng"
        assert classify_frame("src/repro/rng/scaled.py", "scale_words") == "rng"

    def test_vector_pack_unpack_phase(self):
        # the packed-lane driver's transposes and both lane formats
        for path, func in (
            ("src/repro/hdl/vector.py", "vec_from_ints"),
            ("src/repro/hdl/vector.py", "pack_rows"),
            ("src/repro/hdl/vector.py", "unpack_rows"),
            ("src/repro/hdl/simulator.py", "pack_bus"),
            ("src/repro/hdl/simulator.py", "unpack_buses"),
            ("src/repro/hdl/simulator.py", "pack_bools"),
            ("src/repro/hdl/simulator.py", "_fold_bits"),
            ("src/repro/hdl/simulator.py", "__getitem__"),  # lazy bus reads
        ):
            assert classify_frame(path, func) == "pack_unpack", func
        assert classify_frame("src/repro/hdl/simulator.py", "batch_run") == "kernel"
        assert classify_frame("src/repro/hdl/vector.py", "prepared_sweep") == "kernel"

    def test_rank_phase(self):
        assert classify_frame("src/repro/core/lehmer.py", "rank_batch") == "rank"
        assert (
            classify_frame("src/repro/analysis/uniformity.py", "rank_bucket_counts")
            == "rank"
        )

    def test_accumulate_phase(self):
        assert classify_frame("src/repro/analysis/stream.py", "update") == "accumulate"

    def test_pool_phase(self):
        assert classify_frame("src/repro/serve/pool.py", "execute") == "pool"

    def test_net_phase(self):
        assert classify_frame("src/repro/serve/net/protocol.py", "decode_request") == "net"


class TestReport:
    def _profile(self) -> SamplingProfiler:
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        prof = SamplingProfiler(interval_s=0.001)
        try:
            with prof:
                time.sleep(0.1)
        finally:
            stop.set()
            worker.join()
        return prof

    def test_report_validates_and_fractions_sum_to_one(self):
        doc = self._profile().report()
        validate_profile(doc)
        assert doc["schema"] == PROFILE_SCHEMA
        assert sum(doc["phase_fractions"].values()) == pytest.approx(1.0)

    def test_dump_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "profile.json"
        doc = self._profile().dump(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        validate_profile(on_disk)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_profile({"schema": "nope"})
