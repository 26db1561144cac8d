"""The process executor: correctness, chaos, cache accounting, backpressure."""

import os
import time

import numpy as np
import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.errors import ServiceOverloadedError
from repro.hdl.native import clear_native_cache, find_compiler, native_kernel
from repro.hdl.simulator import BatchEntry
from repro.serve import (
    ChaosMonkey,
    ChaosSpec,
    LadderConfig,
    PermutationService,
    PooledService,
    ServiceConfig,
    run_closed_loop,
)


def unrank_one(svc, n, index, timeout=10.0):
    """Serve a one-lane unrank entry and wait for its response."""
    return svc.submit_wide("unrank", n, 1, [index]).result(timeout)


def row(resp) -> tuple:
    """The one permutation of a one-lane response."""
    (perm,) = resp.permutations
    return tuple(int(v) for v in perm)


def make_pooled(workers: int = 1, chaos=None, backoff_s=0.01, **svc_kw) -> PooledService:
    svc_kw.setdefault("batch_deadline_s", 0.001)
    return PooledService(
        ServiceConfig(**svc_kw),
        LadderConfig(workers=workers, restart_backoff_s=backoff_s),
        chaos=chaos,
    )


class TestCorrectness:
    def test_unrank_matches_functional_model(self):
        conv = IndexToPermutationConverter(6)
        with make_pooled() as svc:
            for idx in (0, 1, 100, 719):
                resp = unrank_one(svc, 6, idx)
                assert row(resp) == conv.convert(idx)

    def test_wide_frame_sweeps_once_in_a_worker(self):
        conv = IndexToPermutationConverter(7)
        indices = [0, 11, 317, 5039]
        with make_pooled() as svc:
            resp = svc.submit_wide("unrank", 7, len(indices), indices).result(20.0)
        assert resp.mode == "worker"
        want = conv.convert_batch(indices)
        assert np.array_equal(resp.permutations, want)

    def test_shuffle_rows_are_valid_permutations(self):
        with make_pooled() as svc:
            resp = svc.submit_wide("shuffle", 8, 6).result(20.0)
        for row in resp.permutations:
            assert sorted(row) == list(range(8))

    def test_vector_worker_backend(self):
        """Workers sweep on the service's engine: 500 lanes need vector."""
        indices = list(range(500))
        with make_pooled(workers=1, engine="vector") as svc:
            resp = svc.submit_wide("unrank", 6, len(indices), indices).result(30.0)
        want = IndexToPermutationConverter(6).convert_batch(indices)
        assert np.array_equal(resp.permutations, want)

    def test_two_shard_groups_coexist(self):
        with make_pooled() as svc:
            a = unrank_one(svc, 5, 10)
            b = unrank_one(svc, 6, 10)
            shards = svc.stats()["pool"]["shards"]
        assert a.n == 5 and b.n == 6
        assert len(shards) == 2


class TestSupervision:
    def test_killed_worker_respawns_and_serves(self):
        conv = IndexToPermutationConverter(6)
        with make_pooled(workers=1) as svc:
            assert row(unrank_one(svc, 6, 1)) == conv.convert(1)
            assert svc.pool.kill_worker() is not None
            # the only replica is gone: the next sweep fails over at once
            # (still the right answer), and once the restart backoff has
            # run out the one after respawns it
            resp = unrank_one(svc, 6, 2)
            assert row(resp) == conv.convert(2)
            time.sleep(0.05)
            again = unrank_one(svc, 6, 3)
            assert row(again) == conv.convert(3)
            assert again.mode == "worker"
            stats = svc.stats()["pool"]
        assert stats["restarts"] >= 1

    def test_chaos_kills_never_corrupt_responses(self):
        """Seeded kill storm under closed-loop load: zero wrong results."""
        import threading
        import time

        with make_pooled(workers=2) as svc:
            stop = threading.Event()

            def killer():
                while not stop.is_set():
                    svc.pool.kill_worker()
                    time.sleep(0.02)

            t = threading.Thread(target=killer)
            t.start()
            try:
                report = run_closed_loop(
                    svc, 6, total=60, clients=4, seed=3, verify=True
                )
            finally:
                stop.set()
                t.join()
        assert report.incorrect == 0
        assert report.completed == 60

    def test_worker_rows_shape(self):
        with make_pooled() as svc:
            unrank_one(svc, 6, 3)
            rows = svc.pool.worker_rows()
        assert rows, "expected at least one worker row"
        for row in rows:
            assert set(row) >= {
                "shard", "replica", "pid", "alive", "busy", "sweeps", "restarts",
            }
            assert row["pid"] > 0 and row["sweeps"] >= 1


class TestCacheAccounting:
    def test_front_tier_counts_count_one_lookups_only(self):
        """A count-1 repeat hits the front cache and never reaches the
        pool; a wide frame skips the front tier and sweeps every lane."""
        with make_pooled(workers=1) as svc:
            unrank_one(svc, 6, 5)
            first = svc.stats()
            assert (first["cache_hits"], first["cache_misses"]) == (0, 1)
            assert first["pool"]["served_worker"] == 1

            # count-1 repeat: front tier answers, pool never sees it
            again = unrank_one(svc, 6, 5)
            second = svc.stats()
            assert again.cached
            assert second["cache_hits"] == 1
            assert second["pool"]["served_worker"] == first["pool"]["served_worker"]

            # wide frame: front tier untouched, one worker sweep
            svc.submit_wide("unrank", 6, 2, [5, 9]).result(20.0)
            third = svc.stats()
            assert (third["cache_hits"], third["cache_misses"]) == (1, 1)
            assert third["pool"]["served_worker"] == 2


def _frames(svc, count, n=6):
    """Flood ``count`` one-sweep frames without waiting → (futures, shed)."""
    lanes = svc.config.max_batch
    futures, shed = [], 0
    for f in range(count):
        indices = [(f * lanes + i) % 720 for i in range(lanes)]
        try:
            futures.append((indices, svc.submit_wide("unrank", n, lanes, indices)))
        except ServiceOverloadedError:
            shed += 1
    return futures, shed


def _slow_sweeps(delay_s=0.2):
    """Every worker sweep sleeps ``delay_s`` first: frames pile up."""
    return ChaosMonkey(ChaosSpec(0.0, 0.0, 1.0, 0.0, 0.0, delay_s=delay_s))


class TestBackpressure:
    def test_saturated_shard_sheds_with_overloaded(self):
        key = ("converter", 6)
        with make_pooled(workers=1) as svc:
            unrank_one(svc, 6, 0)  # materialise the shard
            limit = svc.pool.max_in_flight
            for _ in range(limit):  # pin the shard at its ceiling
                svc.pool.track(key, 1)
            try:
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    svc.submit_wide("unrank", 6, 1, [123])
            finally:
                for _ in range(limit):
                    svc.pool.track(key, -1)
            assert exc_info.value.queue_depth == limit
            # a fresh shard admits unconditionally (lazy shards are healthy)
            assert row(unrank_one(svc, 5, 0)) is not None

    def test_untouched_pool_admits_everything(self):
        with make_pooled() as svc:
            svc.pool.admission_gate(("converter", 9))  # no shard: no veto

    def test_eight_one_sweep_frames_in_flight_shed_nothing(self):
        # one worker, every sweep slow: all eight frames are in flight at
        # once, more than the four sweep threads can run
        conv = IndexToPermutationConverter(6)
        with make_pooled(workers=1, chaos=_slow_sweeps(0.05)) as svc:
            futures, shed = _frames(svc, 8)
            rows = [(idx, f.result(30.0).permutations) for idx, f in futures]
        assert shed == 0
        for indices, perms in rows:
            assert np.array_equal(perms, conv.convert_batch(indices))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flood_sheds_past_the_bound_and_loses_nothing(self, workers):
        conv = IndexToPermutationConverter(6)
        with make_pooled(workers=workers, chaos=_slow_sweeps()) as svc:
            limit = svc.pool.max_in_flight
            futures, shed = _frames(svc, limit + 12)
            rows = [(idx, f.result(60.0).permutations) for idx, f in futures]
            depth = svc.stats()["pool"]["shards"]["('converter', 6)"]["depth"]
        assert shed >= 1
        assert len(futures) >= limit and len(futures) + shed == limit + 12
        for indices, perms in rows:  # every admitted frame answered right
            assert np.array_equal(perms, conv.convert_batch(indices))
        assert depth == 0


class TestProcessChaos:
    """The scripted ladder stories, on worker processes."""

    def test_crash_fails_over_then_respawns(self):
        conv = IndexToPermutationConverter(5)
        monkey = ChaosMonkey(script={0: "crash"})
        with make_pooled(chaos=monkey, backoff_s=0.0, cache_capacity=0) as svc:
            first = unrank_one(svc, 5, 10)
            second = unrank_one(svc, 5, 11)
            stats = svc.stats()["pool"]
        assert (row(first), first.mode) == (conv.convert(10), "fallback")
        assert (row(second), second.mode) == (conv.convert(11), "worker")
        assert stats["restarts"] == 1

    def test_stall_fails_over(self):
        conv = IndexToPermutationConverter(5)
        with PooledService(
            ServiceConfig(batch_deadline_s=0.001, cache_capacity=0),
            LadderConfig(sweep_deadline_s=0.1, restart_backoff_s=0.0),
            chaos=ChaosMonkey(script={0: "stall"}),
        ) as svc:
            first = unrank_one(svc, 5, 7)
            second = unrank_one(svc, 5, 8)
            stats = svc.stats()["pool"]
        assert (row(first), first.mode) == (conv.convert(7), "fallback")
        assert second.mode == "worker"
        assert stats["restarts"] == 1

    @pytest.mark.parametrize("event", ["corrupt", "swap"])
    def test_convicted_rows_are_never_served(self, event):
        conv = IndexToPermutationConverter(5)
        monkey = ChaosMonkey(script={0: event})
        with make_pooled(chaos=monkey, backoff_s=0.0, cache_capacity=0) as svc:
            first = unrank_one(svc, 5, 23)
            second = unrank_one(svc, 5, 24)
            stats = svc.stats()["pool"]
        assert (row(first), first.mode) == (conv.convert(23), "fallback")
        assert second.mode == "worker"
        assert stats["check_failures"] == 1
        assert stats["quarantines"] == 1  # the convicted process is gone
        assert stats["restarts"] == 1

    @pytest.mark.skipif(find_compiler() is None, reason="no cc on PATH")
    def test_vector_conviction_unlinks_the_native_library(self, monkeypatch, tmp_path):
        """The respawn of a convicted vector worker must not load the
        library its predecessor loaded from the disk cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        clear_native_cache()  # bind afresh, in the private cache
        conv = IndexToPermutationConverter(5)
        entry = BatchEntry(conv.build_netlist(), backend="vector")
        entry.run({"index": [0]})  # publish the library the worker loads
        library = native_kernel(entry.kernel).path
        monkey = ChaosMonkey(script={0: "corrupt"})
        with open(library, "rb") as loaded, make_pooled(
            chaos=monkey, backoff_s=0.0, cache_capacity=0, engine="vector"
        ) as svc:
            first = unrank_one(svc, 5, 23)
            assert os.fstat(loaded.fileno()).st_nlink == 0  # unlinked
            second = unrank_one(svc, 5, 24)
            stats = svc.stats()["pool"]
            # the respawn rebuilt and published a new file
            assert os.stat(library).st_ino != os.fstat(loaded.fileno()).st_ino
        assert (row(first), first.mode) == (conv.convert(23), "fallback")
        assert (row(second), second.mode) == (conv.convert(24), "worker")
        assert stats["quarantines"] == 1

    def test_delay_inside_the_deadline_is_not_a_failure(self):
        monkey = ChaosMonkey(script={0: "delay"})
        with make_pooled(chaos=monkey, cache_capacity=0) as svc:
            resp = unrank_one(svc, 5, 3)
            stats = svc.stats()["pool"]
        assert resp.mode == "worker"
        assert stats["restarts"] == 0


class TestLifecycle:
    def test_close_is_idempotent_and_kills_workers(self):
        svc = make_pooled()
        unrank_one(svc, 5, 1)
        rows = svc.pool.worker_rows()
        assert any(r["alive"] for r in rows)
        svc.close()
        svc.close()
        assert not any(r["alive"] for r in svc.pool.worker_rows())

    def test_stats_shape(self):
        with make_pooled() as svc:
            unrank_one(svc, 5, 1)
            stats = svc.stats()
        assert "pool" in stats
        pool = stats["pool"]
        for key in (
            "shards", "restarts", "served_worker", "served_fallback",
            "workers_alive", "check_failures", "quarantines", "breaker_trips",
        ):
            assert key in pool

    def test_plain_service_has_no_pool(self):
        # guard the getattr-based health/report branches in the CLI
        with PermutationService(ServiceConfig(batch_deadline_s=0.001)) as svc:
            assert getattr(svc, "pool", None) is None
