"""Trace propagation across supervisor failover (satellite of the
telemetry-pipeline PR).

One sampled batch that hits a scripted worker crash must come out as a
*single* trace: the batch root, the failed worker attempt, the restart,
the fallback rung that actually served, and every per-request child —
all sharing one ``trace_id`` with intact parent/child links, surviving a
round trip through the span ring's JSON dump.
"""

import json

from repro.obs.sampling import AlwaysSampler, SpanRing, validate_trace_dump
from repro.obs.tracing import Span, Tracer
from repro.serve import (
    ChaosMonkey,
    LadderConfig,
    ServiceConfig,
    SupervisedService,
)


def serve_crash_then_recover(tracer: Tracer) -> None:
    """Two converted requests; the first sweep's worker is scripted to crash."""
    svc = SupervisedService(
        ServiceConfig(batch_deadline_s=0.001, cache_capacity=0),
        LadderConfig(restart_backoff_s=0.0, restart_backoff_max_s=0.0),
        chaos=ChaosMonkey(script={0: "crash"}),
        tracer=tracer,
    )
    try:
        assert svc.submit_wide("unrank", 5, 1, [6]).result(10.0).mode == "fallback"
        assert svc.submit_wide("unrank", 5, 1, [8]).result(10.0).mode == "worker"
    finally:
        svc.close()


def test_failover_story_is_one_trace_with_intact_links(tmp_path):
    ring = SpanRing(capacity=16)
    tracer = Tracer(sampler=AlwaysSampler(), ring=ring, keep_roots=False)
    serve_crash_then_recover(tracer)

    # the ring dump round-trips through disk and validates as a
    # repro-traces/1 document (the CI smoke step runs the same check)
    path = tmp_path / "traces.json"
    doc = ring.dump(path)
    validate_trace_dump(doc)
    validate_trace_dump(json.loads(path.read_text()))

    roots = [Span.from_export(t) for t in doc["traces"]]
    assert all(r.name == "serve.batch" for r in roots)
    crashed = next(r for r in roots if r.find_all("serve.failover"))

    # the crashed batch's trace tells the whole degradation story: the
    # failed worker attempt, the failover decision, the fallback rung
    # that served, and the per-request children — one trace_id
    names = {s.name for s in crashed.walk()}
    assert {
        "serve.batch",
        "serve.request",
        "serve.worker_sweep",
        "serve.failover",
        "serve.fallback",
    } <= names
    failover = crashed.find_all("serve.failover")[0]
    assert failover.attrs["reason"] == "crash"

    # the failed attempt is a failed *sweep* span in the same trace: the
    # worker thread timed it and the graft restamped it onto the batch
    sweeps = crashed.find_all("serve.worker_sweep")
    assert any(s.status == "error" for s in sweeps)

    # single trace: every span in a tree carries its root's trace_id,
    # and every child's parent_id is its structural parent's span_id
    def check_links(span: Span, trace_id: str) -> None:
        for child in span.children:
            assert child.trace_id == trace_id
            assert child.parent_id == span.span_id
            check_links(child, trace_id)

    assert crashed.trace_id
    check_links(crashed, crashed.trace_id)

    # the next batch acquires a fresh worker: its trace is separate,
    # carries the restart span, and never saw a failover
    recovered = next(r for r in roots if r is not crashed)
    assert recovered.trace_id != crashed.trace_id
    restart = recovered.find_all("serve.worker_restart")
    assert restart and restart[0].trace_id == recovered.trace_id
    assert not recovered.find_all("serve.failover")
    check_links(recovered, recovered.trace_id)


def test_unsampled_batches_record_no_batch_traces():
    # the other half of head sampling: with the sampler declining every
    # batch, no serve.batch trace is ever built — but ladder events
    # (failover, restart) still surface as their own adopted roots, so a
    # rare failure is never lost to the sampling dice
    from repro.obs.sampling import NeverSampler

    ring = SpanRing(capacity=16)
    serve_crash_then_recover(
        Tracer(sampler=NeverSampler(), ring=ring, keep_roots=False)
    )
    names = {t["name"] for t in ring.snapshot()}
    assert "serve.batch" not in names
    assert "serve.request" not in names
    assert "serve.failover" in names
