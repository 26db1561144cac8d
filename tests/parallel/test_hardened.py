"""Hardened map-reduce: retries, crash recovery, timeouts, degradation.

Worker callables are module-level classes so they pickle under spawn.
Failure is made *transient* through marker files in a tmp directory: the
first attempt plants the marker and fails, the retry sees it and
succeeds — which is exactly the fault the hardened runner exists to
absorb (resubmit the shard, never the job).
"""

import os
import time

import pytest

from repro.errors import ShardTimeoutError, WorkerFailedError
from repro.parallel.sharding import (
    PartialResult,
    ShardSpec,
    hardened_map_reduce,
    index_shards,
)


def _square_sum(shard: ShardSpec) -> int:
    return sum(i * i for i in shard)


def _add(a: int, b: int) -> int:
    return a + b


class _FlakyOnce:
    """Raises on the first attempt of a chosen shard, succeeds after."""

    def __init__(self, marker_dir: str, bad_shard: int = 1):
        self.marker_dir = marker_dir
        self.bad_shard = bad_shard

    def __call__(self, shard: ShardSpec) -> int:
        marker = os.path.join(self.marker_dir, f"flaky-{shard.shard_id}")
        if shard.shard_id == self.bad_shard and not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError("transient worker failure")
        return _square_sum(shard)


class _CrashOnce:
    """Kills its worker process outright on the first attempt."""

    def __init__(self, marker_dir: str, bad_shard: int = 1):
        self.marker_dir = marker_dir
        self.bad_shard = bad_shard

    def __call__(self, shard: ShardSpec) -> int:
        marker = os.path.join(self.marker_dir, f"crash-{shard.shard_id}")
        if shard.shard_id == self.bad_shard and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)  # simulated segfault: no exception, no cleanup
        return _square_sum(shard)


class _AlwaysFails:
    def __call__(self, shard: ShardSpec) -> int:
        if shard.shard_id == 2:
            raise RuntimeError("shard 2 is cursed")
        return _square_sum(shard)


class _SlowShard:
    def __init__(self, slow_shard: int = 0, delay: float = 1.5):
        self.slow_shard = slow_shard
        self.delay = delay

    def __call__(self, shard: ShardSpec) -> int:
        if shard.shard_id == self.slow_shard:
            time.sleep(self.delay)
        return _square_sum(shard)


EXPECTED_50 = sum(i * i for i in range(50))


class FakeClock:
    """Deterministic stand-in for the module's monotonic/sleep seams."""

    def __init__(self, start: float = 1000.0):
        self.now = start
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def install(self, monkeypatch) -> "FakeClock":
        monkeypatch.setattr("repro.parallel.sharding._monotonic", self.monotonic)
        monkeypatch.setattr("repro.parallel.sharding._sleep", self.sleep)
        return self


class TestRetry:
    def test_transient_failure_is_retried_inline(self, tmp_path):
        shards = index_shards(50, 4)
        got = hardened_map_reduce(
            _FlakyOnce(str(tmp_path)), shards, _add, workers=1, backoff=0.0, jitter=0.0
        )
        assert got == EXPECTED_50

    def test_transient_failure_is_retried_in_pool(self, tmp_path):
        shards = index_shards(50, 4)
        got = hardened_map_reduce(
            _FlakyOnce(str(tmp_path)), shards, _add, workers=2, backoff=0.0, jitter=0.0
        )
        assert got == EXPECTED_50

    def test_retry_budget_exhaustion_raises_with_shard_id(self):
        shards = index_shards(50, 4)
        with pytest.raises(WorkerFailedError) as err:
            hardened_map_reduce(
                _AlwaysFails(), shards, _add,
                workers=1, retries=2, backoff=0.0, jitter=0.0,
            )
        assert err.value.shard_id == 2
        assert err.value.attempts == 3  # 1 initial + 2 retries

    def test_backoff_grows_exponentially(self, monkeypatch):
        clock = FakeClock().install(monkeypatch)
        shards = index_shards(50, 4)
        with pytest.raises(WorkerFailedError):
            hardened_map_reduce(
                _AlwaysFails(), shards, _add,
                workers=1, retries=3, backoff=0.1, jitter=0.0,
            )
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])


class TestMonotonicClock:
    """Deadline/backoff arithmetic must never consult the wall clock."""

    def test_backoff_immune_to_wall_clock_adjustment(self, monkeypatch):
        clock = FakeClock().install(monkeypatch)

        def wall_clock_is_off_limits():
            raise AssertionError("hardened_map_reduce consulted time.time()")

        monkeypatch.setattr(time, "time", wall_clock_is_off_limits)
        shards = index_shards(50, 4)
        with pytest.raises(WorkerFailedError):
            hardened_map_reduce(
                _AlwaysFails(), shards, _add,
                workers=1, retries=2, backoff=0.1, jitter=0.0,
            )
        # schedule driven purely by the (fake) monotonic clock
        assert clock.sleeps == pytest.approx([0.1, 0.2])

    def test_sleep_until_survives_short_sleeps(self, monkeypatch):
        """An interrupted sleep (returns early) must loop, not give up."""
        from repro.parallel import sharding

        clock = FakeClock()

        def short_sleep(seconds):
            clock.sleeps.append(seconds)
            clock.now += seconds / 2  # OS woke us early every time

        monkeypatch.setattr(sharding, "_monotonic", clock.monotonic)
        monkeypatch.setattr(sharding, "_sleep", short_sleep)
        sharding._sleep_until(clock.now + 1.0)
        assert clock.now >= 1000.0 + 1.0 - 1e-9
        assert len(clock.sleeps) > 1  # it actually had to re-arm

    def test_jitter_is_seeded_and_reproducible(self, monkeypatch):
        def schedule(seed):
            clock = FakeClock().install(monkeypatch)
            with pytest.raises(WorkerFailedError):
                hardened_map_reduce(
                    _AlwaysFails(), index_shards(50, 4), _add,
                    workers=1, retries=2, backoff=0.1, jitter=0.05, seed=seed,
                )
            return clock.sleeps

        first, again, other = schedule(7), schedule(7), schedule(8)
        assert first == again
        assert first != other


def _pid(shard: ShardSpec) -> int:
    return os.getpid()


class TestOneShard:
    """One shard runs in the caller's process unless it has a timeout,
    which only a pool can enforce."""

    def test_one_shard_runs_in_callers_process(self):
        assert hardened_map_reduce(
            _pid, index_shards(10, 1), _add, workers=2
        ) == os.getpid()

    def test_one_shard_with_timeout_goes_through_the_pool(self):
        assert hardened_map_reduce(
            _pid, index_shards(10, 1), _add, workers=2, timeout=60.0
        ) != os.getpid()
        with pytest.raises(ShardTimeoutError):
            hardened_map_reduce(
                _SlowShard(slow_shard=0, delay=1.5), index_shards(10, 1), _add,
                workers=2, timeout=0.3, retries=0, backoff=0.0, jitter=0.0,
            )


class TestCrashRecovery:
    def test_worker_crash_resubmits_shard_not_job(self, tmp_path):
        shards = index_shards(50, 4)
        got = hardened_map_reduce(
            _CrashOnce(str(tmp_path)), shards, _add,
            workers=2, backoff=0.0, jitter=0.0,
        )
        assert got == EXPECTED_50
        # the shard really did crash once: its marker exists
        assert os.path.exists(os.path.join(str(tmp_path), "crash-1"))


class TestTimeout:
    def test_slow_shard_times_out_and_degrades(self):
        shards = index_shards(40, 4)
        partial = hardened_map_reduce(
            _SlowShard(slow_shard=0, delay=1.5), shards, _add,
            workers=2, timeout=0.3, retries=0, degrade=True,
            backoff=0.0, jitter=0.0,
        )
        assert isinstance(partial, PartialResult)
        assert not partial.complete
        assert [f.shard_id for f in partial.failed] == [0]
        assert partial.failed[0].timed_out
        assert partial.completed == 3
        expected = sum(_square_sum(s) for s in shards if s.shard_id != 0)
        assert partial.value == expected

    def test_timeout_without_degrade_raises_typed(self):
        shards = index_shards(40, 4)
        with pytest.raises(ShardTimeoutError) as err:
            hardened_map_reduce(
                _SlowShard(slow_shard=1, delay=1.5), shards, _add,
                workers=2, timeout=0.3, retries=0,
                backoff=0.0, jitter=0.0,
            )
        assert err.value.shard_id == 1
        assert isinstance(err.value, WorkerFailedError)  # taxonomy nesting


class TestDegradedMode:
    def test_partial_result_manifest(self):
        shards = index_shards(50, 4)
        partial = hardened_map_reduce(
            _AlwaysFails(), shards, _add,
            workers=1, retries=1, degrade=True, backoff=0.0, jitter=0.0,
        )
        assert not partial.complete
        assert partial.completed == 3 and partial.total == 4
        assert partial.coverage == pytest.approx(0.75)
        (failure,) = partial.failed
        assert failure.shard_id == 2
        assert failure.attempts == 2
        assert "cursed" in failure.error
        expected = sum(_square_sum(s) for s in shards if s.shard_id != 2)
        assert partial.value == expected

    def test_complete_run_has_empty_manifest(self):
        shards = index_shards(50, 4)
        partial = hardened_map_reduce(
            _square_sum, shards, _add, workers=1, degrade=True
        )
        assert partial.complete
        assert partial.value == EXPECTED_50
        assert partial.coverage == 1.0

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            hardened_map_reduce(_square_sum, [], _add)


class TestPlainRunnerErrorWrapping:
    """Without retries the runner is a plain fail-fast map-reduce: the
    first worker failure surfaces as a typed error naming its shard."""

    def test_inline_exception_wrapped(self):
        shards = index_shards(50, 4)
        with pytest.raises(WorkerFailedError) as err:
            hardened_map_reduce(_AlwaysFails(), shards, _add, workers=1, retries=0)
        assert err.value.shard_id == 2
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_pool_exception_wrapped(self):
        shards = index_shards(50, 4)
        with pytest.raises(WorkerFailedError) as err:
            hardened_map_reduce(_AlwaysFails(), shards, _add, workers=2, retries=0)
        assert err.value.shard_id == 2

    def test_total_zero_yields_empty_shards_which_are_rejected(self):
        assert index_shards(0, 3) == []
        with pytest.raises(ValueError):
            hardened_map_reduce(_square_sum, index_shards(0, 3), _add, retries=0)


class _AlwaysCrashes:
    """Kills its worker process on every attempt of one shard.

    The small delay lets healthy shards in the same wave finish before
    the pool is torn down, keeping the failure isolated to its shard.
    """

    def __init__(self, bad_shard: int = 1, delay: float = 0.25):
        self.bad_shard = bad_shard
        self.delay = delay

    def __call__(self, shard: ShardSpec) -> int:
        if shard.shard_id == self.bad_shard:
            time.sleep(self.delay)
            os._exit(1)
        return _square_sum(shard)


class TestFailureManifest:
    """Satellite: per-shard attempts and final-failure causes surface."""

    def test_worker_crash_mid_campaign_yields_partial_with_coverage(self):
        shards = index_shards(40, 4)
        partial = hardened_map_reduce(
            _AlwaysCrashes(), shards, _add,
            workers=2, retries=2, degrade=True, backoff=0.0, jitter=0.0,
        )
        assert not partial.complete
        failed_ids = {f.shard_id for f in partial.failed}
        assert 1 in failed_ids
        # coverage is accurate: completed + failed account for every shard
        assert partial.completed == 4 - len(failed_ids)
        assert partial.coverage == pytest.approx(partial.completed / 4)
        crash = next(f for f in partial.failed if f.shard_id == 1)
        assert crash.cause_type == "BrokenProcessPool"
        assert crash.attempts == 3  # 1 initial + 2 retries, all consumed
        assert partial.attempts[1] == 3
        assert partial.failure_causes()["BrokenProcessPool"] >= 1
        assert partial.retried_shards >= 1
        # the reduction covers exactly the surviving shards
        expected = sum(
            _square_sum(s) for s in shards if s.shard_id not in failed_ids
        )
        assert partial.value == expected

    def test_attempt_counts_cover_clean_and_retried_shards(self, tmp_path):
        shards = index_shards(50, 4)
        partial = hardened_map_reduce(
            _FlakyOnce(str(tmp_path)), shards, _add,
            workers=1, degrade=True, backoff=0.0, jitter=0.0,
        )
        assert partial.complete
        assert partial.attempts[1] == 2  # the flaky shard needed a retry
        assert all(
            partial.attempts[s.shard_id] == 1 for s in shards if s.shard_id != 1
        )
        assert partial.total_attempts == 5
        assert partial.retried_shards == 1
        assert partial.failure_causes() == {}
