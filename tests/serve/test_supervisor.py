"""Supervised serving tier: breakers, restarts, ladder, oracle checks.

The chaos harness's *scripted* mode drives exact failures at exact
sweeps, so these tests assert precise supervisor behaviour — which sweep
crashed, what got quarantined, which rung served — rather than
probabilistic outcomes (the seeded-campaign invariants live in
``test_chaos.py``).
"""

import threading
import time

import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.errors import (
    ServiceDegradedError,
    ServiceShutdownError,
    WorkerCrashedError,
    WorkerStalledError,
)
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import Tracer
from repro.serve import (
    BreakerConfig,
    ChaosMonkey,
    ChaosSpec,
    CircuitBreaker,
    LadderConfig,
    ServiceConfig,
    SupervisedService,
)
from repro.serve.supervisor import ShardWorker
from repro.serve import supervisor as sup_mod


def unrank_one(svc, n, index, timeout=10.0):
    """Serve a one-lane unrank entry and wait for its response."""
    return svc.submit_wide("unrank", n, 1, [index]).result(timeout)


def row(resp) -> tuple:
    """The one permutation of a one-lane response."""
    (perm,) = resp.permutations
    return tuple(int(v) for v in perm)


class FakeClock:
    """Deterministic stand-in for the supervisor's monotonic seam."""

    def __init__(self, start: float = 500.0):
        self.now = start

    def monotonic(self) -> float:
        return self.now

    def install(self, monkeypatch) -> "FakeClock":
        monkeypatch.setattr(sup_mod, "_monotonic", self.monotonic)
        return self


def make_supervised(
    script=None,
    *,
    chaos=None,
    breaker=None,
    fallback_breaker=None,
    deadline=0.5,
    **svc_kw,
) -> SupervisedService:
    svc_kw.setdefault("batch_deadline_s", 0.001)
    if script is not None:
        chaos = ChaosMonkey(script=script)
    cfg = LadderConfig(
        sweep_deadline_s=deadline,
        restart_backoff_s=0.0,
        restart_backoff_max_s=0.0,
        breaker=breaker or BreakerConfig(failure_threshold=3, recovery_s=0.05),
        fallback_breaker=fallback_breaker or LadderConfig().fallback_breaker,
    )
    return SupervisedService(ServiceConfig(**svc_kw), cfg, chaos=chaos)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, monkeypatch):
        FakeClock().install(monkeypatch)
        br = CircuitBreaker(BreakerConfig(failure_threshold=3, recovery_s=10.0))
        assert br.state == "closed" and br.allow()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"  # under threshold
        br.record_failure()
        assert br.state == "open" and not br.allow()
        assert br.trips == 1

    def test_success_resets_the_failure_streak(self):
        br = CircuitBreaker(BreakerConfig(failure_threshold=2))
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # streak broken; never reached 2

    def test_half_opens_on_the_clock_and_closes_on_probe(self, monkeypatch):
        clock = FakeClock().install(monkeypatch)
        br = CircuitBreaker(BreakerConfig(failure_threshold=1, recovery_s=5.0))
        br.record_failure()
        assert br.state == "open"
        clock.now += 4.9
        assert br.state == "open"
        clock.now += 0.2
        assert br.state == "half_open" and br.allow()
        br.record_success()
        assert br.state == "closed"

    def test_failed_probe_reopens_and_restarts_recovery(self, monkeypatch):
        clock = FakeClock().install(monkeypatch)
        br = CircuitBreaker(BreakerConfig(failure_threshold=1, recovery_s=5.0))
        br.record_failure()
        clock.now += 5.1
        assert br.state == "half_open"
        br.record_failure()
        assert br.state == "open"
        clock.now += 4.9
        assert br.state == "open"  # recovery clock restarted at the probe
        clock.now += 0.2
        assert br.state == "half_open"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(recovery_s=-1.0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)


class _ListEngine:
    """Trivial engine stub: echoes a canned payload, optionally slowly."""

    def __init__(self, value="ok", delay_s: float = 0.0):
        self.value = value
        self.delay_s = delay_s
        self.calls = 0

    def run(self, payload):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.value


class TestShardWorker:
    def test_runs_sweeps_and_beats_heartbeat(self):
        worker = ShardWorker(("converter", 4), 0, _ListEngine(value=[1, 2]))
        try:
            assert worker.run("payload", deadline_s=2.0) == [1, 2]
            assert worker.alive
            assert worker.heartbeat_age_s < 2.0
        finally:
            worker.kill()

    def test_deadline_miss_raises_stall(self):
        worker = ShardWorker(("converter", 4), 0, _ListEngine(delay_s=0.5))
        try:
            with pytest.raises(WorkerStalledError):
                worker.run("payload", deadline_s=0.05)
        finally:
            worker.kill()

    def test_crash_kills_the_worker(self):
        monkey = ChaosMonkey(script={0: "crash"})
        worker = ShardWorker(("converter", 4), 0, _ListEngine(), chaos=monkey)
        try:
            with pytest.raises(WorkerCrashedError):
                worker.run("payload", deadline_s=2.0)
            assert not worker.alive
            with pytest.raises(WorkerCrashedError):
                worker.run("again", deadline_s=2.0)  # dead workers stay dead
        finally:
            worker.kill()


class TestDegradationLadder:
    def test_clean_sweeps_serve_from_the_worker_rung(self):
        conv = IndexToPermutationConverter(5)
        with make_supervised(cache_capacity=0) as svc:
            resp = unrank_one(svc, 5, 42)
        assert row(resp) == conv.convert(42)
        assert resp.mode == "worker"

    def test_crash_fails_over_and_restarts_the_worker(self):
        conv = IndexToPermutationConverter(5)
        with make_supervised(script={0: "crash"}, cache_capacity=0) as svc:
            first = unrank_one(svc, 5, 10)
            second = unrank_one(svc, 5, 11)
            stats = svc.supervisor.stats()
        # the crashed sweep still served — from the interp fallback
        assert row(first) == conv.convert(10)
        assert first.mode == "fallback"
        # the next sweep found a respawned worker
        assert row(second) == conv.convert(11)
        assert second.mode == "worker"
        assert stats["restarts"] == 1
        shard = stats["shards"]["('converter', 5)"]
        assert shard["worker_alive"] and shard["mode"] == "full"

    def test_stall_fails_over_and_discards_the_late_result(self):
        conv = IndexToPermutationConverter(5)
        with make_supervised(
            script={0: "stall"}, cache_capacity=0, deadline=0.1
        ) as svc:
            resp = unrank_one(svc, 5, 7, timeout=10.0)
            after = unrank_one(svc, 5, 8, timeout=10.0)
            stats = svc.supervisor.stats()
        assert row(resp) == conv.convert(7)
        assert resp.mode == "fallback"
        assert after.mode == "worker"  # replacement worker took over
        assert stats["restarts"] == 1

    def test_delay_inside_deadline_is_not_a_failure(self):
        with make_supervised(script={0: "delay"}, cache_capacity=0) as svc:
            resp = unrank_one(svc, 5, 3)
            stats = svc.supervisor.stats()
        assert resp.mode == "worker"
        assert stats["restarts"] == 0

    def test_corrupt_payload_is_never_served(self):
        conv = IndexToPermutationConverter(5)
        with make_supervised(script={0: "corrupt"}, cache_capacity=0) as svc:
            resp = unrank_one(svc, 5, 23)
            after = unrank_one(svc, 5, 24)
            stats = svc.supervisor.stats()
        # bijectivity conviction: the fallback served the true result
        assert row(resp) == conv.convert(23)
        assert resp.mode == "fallback"
        # the replacement worker recompiled a clean kernel and took over
        assert row(after) == conv.convert(24)
        assert after.mode == "worker"
        assert stats["check_failures"] == 1
        assert stats["quarantines"] == 1  # the compiled kernel was evicted
        assert stats["restarts"] == 1

    def test_valid_but_wrong_payload_is_caught_by_the_rank_oracle(self):
        conv = IndexToPermutationConverter(5)
        with make_supervised(script={0: "swap"}, cache_capacity=0) as svc:
            resp = unrank_one(svc, 5, 99)
            stats = svc.supervisor.stats()
        assert row(resp) == conv.convert(99)
        assert resp.mode == "fallback"
        assert stats["check_failures"] == 1

    def test_cache_only_mode_sheds_misses_but_serves_hits(self):
        # every worker sweep crashes and every fallback sweep is corrupt
        chaos = ChaosMonkey(
            ChaosSpec(
                crash_p=1.0, stall_p=0.0, delay_p=0.0, corrupt_p=0.0,
                swap_p=0.0, fallback_corrupt_p=1.0,
            )
        )
        with make_supervised(
            chaos=chaos,
            breaker=BreakerConfig(failure_threshold=1, recovery_s=60.0),
            fallback_breaker=BreakerConfig(failure_threshold=1, recovery_s=60.0),
        ) as svc:
            warm = None
            with pytest.raises(ServiceDegradedError):
                # first sweep crashes; the fallback is convicted → the
                # batch degrades
                unrank_one(svc, 5, 1)
            # breaker now open → shard pinned cache-only; misses shed at
            # admission with the typed signal …
            with pytest.raises(ServiceDegradedError) as err:
                unrank_one(svc, 5, 2)
            assert err.value.mode == "cache_only"
            assert svc.stats()["degraded_shed"] == 1
            assert svc.supervisor.mode_for(("converter", 5)) == "cache_only"

    def test_breaker_recloses_after_recovery(self):
        # crash the first sweep only; threshold 1 trips the breaker
        with make_supervised(
            script={0: "crash"},
            breaker=BreakerConfig(failure_threshold=1, recovery_s=0.05),
            cache_capacity=0,
        ) as svc:
            first = unrank_one(svc, 5, 4)
            assert first.mode == "fallback"
            assert svc.supervisor.mode_for(("converter", 5)) == "degraded"
            time.sleep(0.08)  # recovery window elapses → half-open
            probe = unrank_one(svc, 5, 5)
            stats = svc.supervisor.stats()
        assert probe.mode == "worker"  # the half-open probe succeeded
        assert stats["shards"]["('converter', 5)"]["breaker"] == "closed"


class TestObservability:
    def test_ladder_metrics_are_exported(self):
        REGISTRY.enable()
        try:
            with make_supervised(script={0: "crash", 1: "corrupt"}) as svc:
                for idx in (1, 2, 3):
                    unrank_one(svc, 5, idx)
            # render only after close: the telemetry flusher folds batch
            # records asynchronously, and close() is the drain barrier —
            # rendering inside the block races the last batch's record
            text = REGISTRY.render_exposition()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        restart_lines = [
            l for l in text.splitlines()
            if l.startswith("repro_serve_worker_restarts_total{")
        ]
        assert any('reason="crash"' in l for l in restart_lines)
        assert any('reason="check_failure"' in l for l in restart_lines)
        assert 'kind="bijectivity"' in text  # check-failure counter
        assert "repro_serve_failovers_total" in text
        assert "repro_serve_kernel_quarantines_total" in text
        # the enum gauge: exactly one state is 1 for the worker path
        lines = [
            l
            for l in text.splitlines()
            if l.startswith("repro_serve_breaker_state")
            and 'path="worker"' in l
            and "converter:5" in l
        ]
        assert len(lines) == 3  # closed / open / half_open all published
        assert sum(float(l.rsplit(" ", 1)[1]) for l in lines) == 1.0
        # degradation-mode counter: both rungs appear
        assert 'repro_serve_mode_total{mode="worker"}' in text
        assert 'repro_serve_mode_total{mode="fallback"}' in text

    def test_failover_and_restart_spans_are_traced(self):
        # ladder events now join the batch's trace as children rather
        # than surfacing as disconnected roots: one trace_id tells the
        # crash → failover → restart story end to end
        tracer = Tracer()
        svc = SupervisedService(
            ServiceConfig(batch_deadline_s=0.001, cache_capacity=0),
            LadderConfig(restart_backoff_s=0.0, restart_backoff_max_s=0.0),
            chaos=ChaosMonkey(script={0: "crash"}),
            tracer=tracer,
        )
        try:
            unrank_one(svc, 5, 6)
            unrank_one(svc, 5, 8)
        finally:
            svc.close()
        assert all(r.name == "serve.batch" for r in tracer.roots)
        spans = [s for r in tracer.roots for s in r.walk()]
        names = [s.name for s in spans]
        assert "serve.failover" in names
        assert "serve.worker_restart" in names
        failover = next(s for s in spans if s.name == "serve.failover")
        assert failover.attrs["reason"] == "crash"
        # the failover span shares its batch's trace_id
        crashed = next(
            r for r in tracer.roots if r.find_all("serve.failover")
        )
        assert failover.trace_id == crashed.trace_id


class TestCloseSemantics:
    def test_close_under_load_settles_every_future(self):
        # a huge deadline + huge batch: submissions queue and only the
        # close() drain can ever execute them
        svc = make_supervised(batch_deadline_s=60.0, max_batch=63)
        futures = [svc.submit_wide("unrank", 6, 1, [i]) for i in range(20)]

        settled = []

        def closer():
            svc.close()

        t = threading.Thread(target=closer)
        t.start()
        for f in futures:
            try:
                settled.append(f.result(timeout=10.0))
            except ServiceShutdownError:
                settled.append(None)
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert len(settled) == 20  # nothing hung
        # the drain executed the queued batch: results are real
        conv = IndexToPermutationConverter(6)
        for i, resp in enumerate(settled):
            if resp is not None:
                assert row(resp) == conv.convert(i)

    def test_submit_after_close_raises_typed_shutdown(self):
        svc = make_supervised()
        svc.close()
        with pytest.raises(ServiceShutdownError):
            svc.submit_wide("unrank", 5, 1, [0])
        # back-compat: ServiceShutdownError still is a RuntimeError
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit_wide("unrank", 5, 1, [0])

    def test_fail_pending_settles_stranded_entries(self):
        # the dispatcher-death belt: anything still queued is failed,
        # not forgotten
        svc = make_supervised(batch_deadline_s=60.0, max_batch=63)
        future = svc.submit_wide("unrank", 6, 1, [1])
        svc._fail_pending(ServiceShutdownError("dispatcher died"))
        with pytest.raises(ServiceShutdownError):
            future.result(timeout=1.0)
        svc.close()
