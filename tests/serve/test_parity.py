"""Parity between the ladder's two executors.

The thread executor's metrics and spans are pinned in
``test_supervisor.py``; these tests hold the process executor to the
same vocabulary, give the thread executor the ``/health`` worker rows
the pooled tier always had, and check that concurrent sweeps keep both
executors' shared books exact.
"""

import sys

import pytest

from repro.cli import _serve_health
from repro.obs.httpexp import render_dashboard
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import Tracer
from repro.serve import (
    ChaosMonkey,
    LadderConfig,
    PooledService,
    ServiceConfig,
    SupervisedService,
    run_closed_loop,
)


def pooled(script, tracer=None) -> PooledService:
    return PooledService(
        ServiceConfig(batch_deadline_s=0.001, cache_capacity=0),
        LadderConfig(workers=1, restart_backoff_s=0.0, restart_backoff_max_s=0.0),
        chaos=ChaosMonkey(script=script),
        tracer=tracer,
    )


def test_pooled_tier_publishes_the_ladder_metrics():
    REGISTRY.enable()
    try:
        with pooled({0: "crash", 1: "corrupt"}) as svc:
            modes = [
                svc.submit_wide("unrank", 5, 1, [i]).result(10.0).mode
                for i in (1, 2, 3)
            ]
        # rendered after close: close() drains the telemetry flusher
        text = REGISTRY.render_exposition()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    assert modes == ["fallback", "fallback", "worker"]
    lines = text.splitlines()
    restarts = [l for l in lines if l.startswith("repro_serve_worker_restarts_total{")]
    assert any('reason="crash"' in l for l in restarts)
    assert any('reason="check_failure"' in l for l in restarts)
    assert any('reason="respawn"' in l for l in restarts)
    assert any(
        l.startswith("repro_serve_check_failures_total{") and 'kind="bijectivity"' in l
        for l in lines
    )
    assert any(l.startswith("repro_serve_failovers_total{") for l in lines)
    assert any(l.startswith("repro_serve_kernel_quarantines_total{") for l in lines)
    breaker = [
        l for l in lines
        if l.startswith("repro_serve_breaker_state{")
        and 'path="worker"' in l and "converter:5" in l
    ]
    assert len(breaker) == 3
    assert sum(float(l.rsplit(" ", 1)[1]) for l in breaker) == 1.0
    assert any(l.startswith("repro_serve_sweep_seconds") for l in lines)
    for name in (
        "repro_serve_pool_queue_depth",
        "repro_serve_pool_workers",
        "repro_serve_pool_worker_sweeps_total",
    ):
        assert any(l.startswith(name + "{") for l in lines), name


def test_pooled_failover_story_is_in_the_batch_traces():
    tracer = Tracer()
    with pooled({0: "crash"}, tracer=tracer) as svc:
        assert svc.submit_wide("unrank", 5, 1, [6]).result(10.0).mode == "fallback"
        assert svc.submit_wide("unrank", 5, 1, [8]).result(10.0).mode == "worker"
    assert all(r.name == "serve.batch" for r in tracer.roots)
    crashed = next(r for r in tracer.roots if r.find_all("serve.failover"))
    names = {s.name for s in crashed.walk()}
    assert {"serve.worker_attempt", "serve.failover", "serve.fallback"} <= names
    assert crashed.find_all("serve.failover")[0].attrs["reason"] == "crash"
    recovered = next(r for r in tracer.roots if r is not crashed)
    assert recovered.find_all("serve.worker_restart")
    assert not recovered.find_all("serve.failover")


def test_supervised_health_has_worker_rows_for_obs_top():
    with SupervisedService(ServiceConfig(batch_deadline_s=0.001)) as svc:
        svc.submit_wide("unrank", 5, 1, [3]).result(10.0)
        health = _serve_health(svc)
    assert health["status"] == "ok"
    assert health["shards"]["converter:5"]["alive"] == 1
    (row,) = health["workers"]
    assert row["shard"] == "converter:5" and row["sweeps"] == 1
    assert row["pid"] > 0 and row["alive"]
    panel = render_dashboard({"metrics": []}, health=health)
    assert "converter:5#0" in panel  # the worker table row
    assert "replicas 1/1 up" in panel


@pytest.mark.parametrize("workers", [0, 2])
def test_concurrent_sweeps_keep_exact_books(workers):
    """Many clients filling 4-lane batches inline race for one shard's
    workers under a tiny switch interval; a lost update to the depth,
    busy or sweep counts would leave the books off."""
    config = ServiceConfig(max_batch=4, batch_deadline_s=0.001, cache_capacity=0)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        svc = (
            PooledService(config, LadderConfig(workers=workers))
            if workers
            else SupervisedService(config)
        )
        with svc:
            report = run_closed_loop(
                svc, 6, total=400, clients=8, mix={"unrank": 1.0}, seed=5, verify=True
            )
            stats = svc.ladder.stats()
            rows = svc.ladder.worker_rows()
    finally:
        sys.setswitchinterval(old)
    assert report.incorrect == 0 and report.completed == 400
    assert stats["shards"]["('converter', 6)"]["depth"] == 0
    assert not any(r["busy"] for r in rows)
    assert sum(r["sweeps"] for r in rows) == stats["served_worker"] > 0
