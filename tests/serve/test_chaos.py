"""Chaos harness: plan semantics, determinism, and campaign invariants."""

import numpy as np
import pytest

from repro.core.lehmer import rank_naive
from repro.errors import WorkerCrashedError
from repro.serve import (
    BreakerConfig,
    ChaosMonkey,
    ChaosSpec,
    LadderConfig,
    ServiceConfig,
    SupervisedService,
    SweepPlan,
    run_chaos_campaign,
)
from repro.serve.chaos import _settle_shards


class TestChaosSpec:
    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            ChaosSpec(crash_p=-0.1)

    def test_rejects_oversubscribed_probabilities(self):
        with pytest.raises(ValueError):
            ChaosSpec(crash_p=0.5, stall_p=0.3, corrupt_p=0.3)


class TestSweepPlan:
    def test_crash_raises_worker_crash(self):
        with pytest.raises(WorkerCrashedError):
            SweepPlan("crash").before()

    def test_corrupt_breaks_bijectivity_on_a_copy(self):
        perms = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        out = SweepPlan("corrupt").apply(perms)
        assert out is not perms  # the engine's buffer is untouched
        assert sorted(out[0]) != [0, 1, 2, 3]  # no longer a permutation
        assert (perms[0] == [0, 1, 2, 3]).all()

    def test_swap_keeps_a_valid_but_wrong_permutation(self):
        perms = np.array([[0, 1, 2, 3]])
        out = SweepPlan("swap").apply(perms)
        assert sorted(out[0]) == [0, 1, 2, 3]  # still a permutation …
        assert rank_naive(out[0]) != rank_naive(perms[0])  # … the wrong one

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan("meteor")


class TestChaosMonkey:
    def test_script_fires_exactly_at_its_ordinals(self):
        monkey = ChaosMonkey(script={1: "crash", 3: "corrupt"})
        events = []
        for _ in range(5):
            plan = monkey.plan_sweep(("converter", 5), 0)
            events.append(None if plan is None else plan.event)
        assert events == [None, "crash", None, "corrupt", None]
        assert monkey.injected["crash"] == 1
        assert monkey.injected["corrupt"] == 1
        assert monkey.total_injected == 2

    def test_same_seed_same_schedule(self):
        def schedule(seed):
            monkey = ChaosMonkey(ChaosSpec(), seed=seed)
            return [
                getattr(monkey.plan_sweep(("converter", 5), 0), "event", None)
                for _ in range(200)
            ]

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_disarm_stops_injection_but_counts_sweeps(self):
        monkey = ChaosMonkey(script={i: "crash" for i in range(10)})
        monkey.disarm()
        assert all(
            monkey.plan_sweep(("converter", 5), 0) is None for _ in range(10)
        )
        assert monkey.sweeps == 10
        assert monkey.total_injected == 0


class TestSettleShards:
    def test_reprobes_a_breaker_that_tripped_at_the_buzzer(self):
        """A breaker tripped by the last chaos sweeps is still OPEN when
        a short campaign ends; the settle loop must wait out recovery_s
        and probe the worker rung back to full instead of reporting a
        stuck shard."""
        monkey = ChaosMonkey(script={i: "crash" for i in range(3)})
        svc = SupervisedService(
            ServiceConfig(cache_capacity=0),
            LadderConfig(
                restart_backoff_s=0.0,
                breaker=BreakerConfig(failure_threshold=3, recovery_s=0.05),
            ),
            chaos=monkey,
        )
        try:
            for _ in range(3):  # three crashes trip the breaker OPEN
                svc.submit_wide("unrank", 5, 1, [7]).result(10.0)
            key = ("converter", 5)
            assert svc.supervisor.mode_for(key) == "degraded"
            monkey.disarm()
            probes = _settle_shards(svc, timeout_s=5.0)
            assert probes >= 1
            assert svc.supervisor.mode_for(key) == "full"
        finally:
            svc.close()

    def test_no_probes_when_already_full(self):
        svc = SupervisedService(ServiceConfig(cache_capacity=0))
        try:
            svc.submit_wide("unrank", 5, 1, [7]).result(10.0)
            assert _settle_shards(svc, timeout_s=1.0) == 0
        finally:
            svc.close()


class TestCampaignInvariants:
    """The acceptance invariants, on a small seeded campaign.

    High injection rates on few requests keep this fast while still
    forcing kills, corruption convictions and failovers.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        return run_chaos_campaign(
            n=5,
            requests=150,
            recovery_requests=60,
            clients=6,
            seed=3,
            spec=ChaosSpec(
                crash_p=0.10, stall_p=0.05, delay_p=0.05, corrupt_p=0.10,
                swap_p=0.05, stall_s=0.3,
            ),
        )

    def test_no_incorrect_response_ever(self, payload):
        assert payload["incorrect_responses"] == 0

    def test_chaos_actually_fired(self, payload):
        assert payload["workers_killed"] >= 1
        assert payload["check_failures"] >= 1

    def test_every_killed_worker_was_replaced(self, payload):
        assert payload["worker_restarts"] >= payload["workers_killed"]
        assert payload["recovered"]
        assert all(m == "full" for m in payload["final_shard_modes"].values())

    def test_availability_floor_holds_under_chaos(self, payload):
        assert payload["availability_chaos"] >= 0.90
        assert payload["availability_recovery"] >= 0.99

    def test_failovers_served_real_traffic(self, payload):
        assert payload["failovers"] >= 1
        assert payload["phases"]["chaos"]["degraded_responses"] >= 1

    def test_recovery_phase_returns_to_the_worker_rung(self, payload):
        # early recovery sweeps may still ride the fallback while the
        # last killed worker respawns (how long depends on scheduler
        # luck); but the worker rung must resume serving real traffic,
        # and the shards must end back at full service
        modes = payload["phases"]["recovery"]["modes"]
        assert modes.get("worker", 0) >= 1
        assert payload["phases"]["recovery"]["incorrect"] == 0

    def test_schema_marker(self, payload):
        assert payload["schema"] == "serving_chaos/v1"
