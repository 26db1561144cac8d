"""Command-line interface: ``repro-perm <subcommand>`` (or ``python -m repro``).

Subcommands mirror the paper's artefacts:

* ``unrank N n``       — print the N-th n-element permutation (Table I row)
* ``rank P0 P1 …``     — print the index of a permutation
* ``table1 [n]``       — print the full factorial-number-system table
* ``shuffle n [count]``— sample random permutations from the Knuth circuit
* ``resources n``      — Table-III-style resource row for the converter
* ``synth n``          — the unified synthesis flow: pass-pipeline
  optimisation (``--passes p1,p2`` / ``--no-opt``; ``--checked``
  equivalence-gates every pass), k-LUT mapping and timing, with a
  per-pass delta table and the resource row
* ``fig4 [samples]``   — run the Fig.-4 histogram experiment
* ``validate``         — population-scale streaming statistical
  validation: stream ``--samples`` permutations from the gate-level
  converter through the chosen engine (``--engine``), folding them into
  mergeable accumulators (uniformity over rank buckets, derangements,
  serial correlation, Fig.-2 pigeonhole bias) sharded via the hardened
  runner (``--shards/--workers``), with atomic ``repro-analysis/1``
  checkpoints (``--checkpoint``/``--resume`` — resumed campaigns are
  bit-identical) and a machine-readable report (``--report``); exit 1
  if the statistical verdict fails
* ``faults n``         — fault-injection campaign + coverage report
* ``serve n``          — drive the batch-serving layer with a synthetic
  closed-loop load generator and print throughput/latency percentiles;
  ``--supervised`` routes sweeps through the fault-tolerant worker tier
  (restart, breakers, degradation ladder) with every response verified,
  and ``--chaos`` runs the seeded fault-injection campaign against it,
  reporting the invariants (zero incorrect responses, every killed
  worker restarted, availability floor) — exit 1 if any is violated.
  ``--workers W`` runs the same ladder over W worker processes per
  shard (shared-memory result rings, per-shard admission control), and
  with ``--chaos`` runs the campaign there; ``--listen [PORT]`` runs
  the ``repro-serve/1`` binary TCP front end until SIGINT, and
  ``--connect HOST:PORT`` is the matching multi-connection socket load
  generator with client-side verification (``--connections``,
  ``--depth``, ``--frame-count``, ``--min-availability``).
  Telemetry flags: ``--expose PORT`` starts the pull-based exposition
  endpoint (``/metrics``, ``/metrics.json``, ``/traces``, ``/health``)
  next to the run, ``--trace-sample R`` head-samples batch traces into
  the span ring, ``--trace-dump PATH`` writes the ring as a
  ``repro-traces/1`` document, ``--profile PATH`` runs the stack-sampling
  profiler and writes a ``repro-profile/1`` report, and ``--linger S``
  keeps the endpoint scrapeable after the load completes
* ``obs top``          — refreshing terminal dashboard scraped from a
  live exposition endpoint (queue depth, shed/degraded rates, breaker
  states, cache hit ratio, latency-digest percentiles)
* ``trace <cmd> …``    — run any subcommand under a tracing span and
  print the span tree to stderr (``--vcd PATH`` additionally records a
  gate-level waveform for ``unrank``)

Global flags (before the subcommand):

* ``--metrics`` — enable the telemetry registry and dump the collected
  metrics in Prometheus exposition format to stderr on exit;
* ``--quiet``   — suppress structured progress events (the final report
  on stdout is unaffected).

Invalid input (an index outside ``0..n!−1``, a non-permutation element
list) never produces a traceback: typed :class:`~repro.errors.ReproError`
failures print a one-line diagnostic on stderr and exit with status 2,
the conventional usage-error code.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.converter import IndexToPermutationConverter
from repro.core.factorial import FactorialDigits, factorial
from repro.core.knuth import KnuthShuffleCircuit
from repro.core.lehmer import rank as rank_perm
from repro.errors import ReproError
from repro.obs import metrics as _metrics
from repro.obs.events import NullSink, SpanEventSink, StderrSink, TeeSink

__all__ = ["main"]

_CLI_COMMANDS = _metrics.REGISTRY.counter(
    "repro_cli_commands_total", "CLI subcommand invocations", ("command",)
)


def _cmd_unrank(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ReproError("n must be at least 1")
    conv = IndexToPermutationConverter(args.n)
    perm = conv.convert(args.index)
    print(" ".join(str(x) for x in perm))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    print(rank_perm(args.elements))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    n = args.n
    conv = IndexToPermutationConverter(n)
    print(f"{'N':>4}  {'digits':>{2 * n}}  permutation")
    for idx in range(factorial(n)):
        digits = FactorialDigits.from_index(idx, n)
        perm = conv.convert(idx)
        print(f"{idx:>4}  {str(digits):>{2 * n}}  {' '.join(str(x) for x in perm)}")
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    circuit = KnuthShuffleCircuit(args.n)
    for row in circuit.sample(args.count):
        print(" ".join(str(int(x)) for x in row))
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    from repro.flow import FlowTarget, build_circuit, synthesize
    from repro.fpga import render_resource_table

    nl = build_circuit("converter", args.n, pipelined=True)
    result = synthesize(nl, FlowTarget(), n=args.n, tracer=getattr(args, "_tracer", None))
    print(render_resource_table([result.report]))
    return 0


def _require_engine(engine: str) -> None:
    """Reject an unknown simulation backend with a one-line diagnostic.

    Validated here rather than via argparse ``choices`` so a typo exits
    with the same status-2 + stderr contract as every other bad value
    (argparse would exit 2 too, but with a usage dump instead of the
    taxonomy's one-liner, and untestable through ``main()``'s return).
    """
    from repro.hdl.engine import BACKENDS

    if engine not in BACKENDS:
        raise ReproError(
            f"unknown engine {engine!r}; expected one of " + ", ".join(BACKENDS)
        )


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.flow import FlowTarget, build_circuit, render_flow_report, synthesize

    _require_engine(args.engine)
    if args.no_opt and args.passes is not None:
        raise ReproError("--no-opt and --passes are mutually exclusive")
    if args.no_opt:
        passes: tuple[str, ...] | None = ()
    elif args.passes is not None:
        passes = tuple(p for p in args.passes.split(",") if p)
    else:
        passes = None
    if args.n < 1:
        raise ReproError("n must be at least 1")
    nl = build_circuit(args.circuit, args.n, pipelined=args.pipelined)
    target = FlowTarget(k=args.k, passes=passes, checked=args.checked, engine=args.engine)
    try:
        result = synthesize(nl, target, n=args.n, tracer=getattr(args, "_tracer", None))
    except ValueError as exc:  # unknown pass name from the registry
        raise ReproError(str(exc)) from exc
    print(render_flow_report(result))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.analysis.distribution import fig4_experiment

    result = fig4_experiment(samples=args.samples)
    print(result.render())
    print(
        f"\nexpected/bar={result.expected_per_bar:.1f}  "
        f"min={result.min_bar}  max={result.max_bar}  "
        f"chi2 p={result.p_value:.4f}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.checkpoint import save_checkpoint, validate_payload
    from repro.analysis.stream import CampaignConfig, run_population_campaign

    cfg = CampaignConfig(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        source=args.source,
        engine=args.engine,
        m=args.m,
        block=args.block,
        buckets=args.buckets,
    )
    result = run_population_campaign(
        cfg,
        shards=args.shards,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        timeout=args.timeout,
        alpha=args.alpha,
        battery_draws=args.battery_draws,
        tracer=getattr(args, "_tracer", None),
    )
    print(result.render())
    if args.report:
        payload = validate_payload(result.payload(), kind="report")
        save_checkpoint(args.report, payload)
        print(f"\nreport written to {args.report}")
    # a failed verdict is an experiment outcome, not a usage error:
    # exit 1 (the chaos-campaign convention), never 2
    return 0 if result.verdict["passed"] else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.robustness.campaign import CampaignSpec, run_campaign

    _require_engine(args.engine)
    tracer = getattr(args, "_tracer", None)
    sinks = []
    if not args.quiet:
        sinks.append(StderrSink(prefix="campaign"))
    if tracer is not None:
        sinks.append(SpanEventSink(tracer))
    events = TeeSink(*sinks) if sinks else NullSink()

    spec = CampaignSpec(
        circuit=args.circuit,
        n=args.n,
        model=args.model,
        samples=args.samples,
        seed=args.seed,
        optimized=args.optimized,
        engine=args.engine,
    )
    result = run_campaign(
        spec,
        workers=args.workers,
        degrade=args.degrade,
        events=events,
        tracer=tracer,
    )
    print(result.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        WORKLOADS,
        LadderConfig,
        PermutationService,
        PooledService,
        ServiceConfig,
        SupervisedService,
        run_closed_loop,
    )

    if args.n < 1:
        raise ReproError("n must be at least 1")
    if args.requests < 1:
        raise ReproError("--requests must be positive")
    if args.clients < 1:
        raise ReproError("--clients must be positive")
    if args.connect is not None:
        return _cmd_serve_connect(args)
    if args.workers < 0:
        raise ReproError("--workers must be non-negative")
    if args.workers and args.supervised:
        raise ReproError("--workers and --supervised are mutually exclusive")
    if args.chaos:
        return _cmd_serve_chaos(args)
    _require_engine(args.engine)
    if args.batch_size is not None and args.batch_size < 1:
        raise ReproError(f"--batch-size must be positive, got {args.batch_size}")
    if args.workload != "mixed" and args.workload not in WORKLOADS:
        raise ReproError(
            f"unknown workload {args.workload!r}; expected mixed or one of "
            + ", ".join(WORKLOADS)
        )
    if args.workload == "shuffle" and args.n < 2:
        raise ReproError("workload shuffle needs n >= 2")
    mix = None if args.workload == "mixed" else {args.workload: 1.0}
    try:
        config = ServiceConfig(
            max_batch=args.batch_size,
            batch_deadline_s=args.deadline_ms / 1000.0,
            max_queue_depth=args.queue_depth,
            rng_seed=args.seed,
            engine=args.engine,
        )
    except ValueError as exc:  # e.g. batch size beyond the lane quantum
        raise ReproError(str(exc)) from exc

    tracer = getattr(args, "_tracer", None)
    ring = None
    trace_sample = args.trace_sample
    if trace_sample is None and args.trace_dump is not None:
        trace_sample = 1.0  # a requested dump implies sampling
    if tracer is None and trace_sample:
        from repro.obs.sampling import ProbabilisticSampler, SpanRing
        from repro.obs.tracing import Tracer

        if not 0.0 <= trace_sample <= 1.0:
            raise ReproError("--trace-sample must be in [0, 1]")
        ring = SpanRing(512)
        tracer = Tracer(
            sampler=ProbabilisticSampler(trace_sample, seed=args.seed),
            ring=ring,
            keep_roots=False,
        )
    elif tracer is not None:
        ring = tracer.ring

    profiler = None
    if args.profile is not None:
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler()

    if args.workers:
        svc_cm = PooledService(
            config, LadderConfig(workers=args.workers), tracer=tracer
        )
    elif args.supervised:
        svc_cm = SupervisedService(config, tracer=tracer)
    else:
        svc_cm = PermutationService(config, tracer=tracer)
    if args.listen is not None:
        return _serve_listen(args, svc_cm, ring)
    verify = args.supervised or bool(args.workers)
    exposer = None
    try:
        with svc_cm as svc:
            if args.expose is not None:
                from repro.obs.httpexp import ExpositionServer

                exposer = ExpositionServer(
                    ring=ring,
                    health_fn=lambda: _serve_health(svc),
                    port=args.expose,
                ).start()
                print(f"exposition endpoint {exposer.url}", file=sys.stderr)
            if profiler is not None:
                profiler.start()
            try:
                report = run_closed_loop(
                    svc,
                    args.n,
                    total=args.requests,
                    clients=args.clients,
                    mix=mix,
                    seed=args.seed,
                    verify=verify,
                )
                stats = svc.stats()
            finally:
                if profiler is not None:
                    profiler.stop()
            _print_serve_report(args, report, stats)
            rc = 1 if verify and report.incorrect else 0
            if exposer is not None and args.linger > 0:
                import time as _time

                _time.sleep(args.linger)
    finally:
        if exposer is not None:
            exposer.stop()
    if args.trace_dump is not None and ring is not None:
        import json as _json

        with open(args.trace_dump, "w") as fh:
            _json.dump(ring.dump(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  traces      wrote {args.trace_dump}")
    if profiler is not None:
        profiler.dump(args.profile)
        print(f"  profile     wrote {args.profile}")
    return rc


def _serve_listen(args: argparse.Namespace, svc_cm, ring) -> int:
    """``repro serve N --listen``: run the socket front end until SIGINT.

    The bound address is printed on stdout (parseable by scripts that
    pass ``--listen 0`` for an OS-assigned port); the process then parks
    until interrupted and exits 0 after a clean drain of the service and
    the worker pool.
    """
    import signal as _signal
    import threading

    from repro.serve import NetServer

    # A background job started from a non-interactive shell inherits
    # SIGINT *ignored* (POSIX), which would leave `kill -INT` unable to
    # trigger the clean drain; restore delivery explicitly and route
    # SIGTERM onto the same path so plain `kill` also drains.
    def _on_term(signum, frame):
        raise KeyboardInterrupt

    try:
        _signal.signal(_signal.SIGINT, _signal.default_int_handler)
        _signal.signal(_signal.SIGTERM, _on_term)
    except ValueError:
        pass  # not the main thread: rely on the caller's handling

    exposer = None
    try:
        with svc_cm as svc:
            with NetServer(svc, port=args.listen) as server:
                host, port = server.address
                print(f"serving repro-serve/1 on {host}:{port}", flush=True)
                if args.expose is not None:
                    from repro.obs.httpexp import ExpositionServer

                    exposer = ExpositionServer(
                        ring=ring,
                        health_fn=lambda: _serve_health(svc),
                        port=args.expose,
                    ).start()
                    print(
                        f"exposition endpoint {exposer.url}",
                        file=sys.stderr,
                        flush=True,
                    )
                try:
                    threading.Event().wait()
                except KeyboardInterrupt:
                    print("shutting down", file=sys.stderr, flush=True)
    finally:
        if exposer is not None:
            exposer.stop()
    return 0


def _cmd_serve_connect(args: argparse.Namespace) -> int:
    """``repro serve N --connect HOST:PORT``: socket load generator.

    Drives a remote ``repro-serve/1`` server with a multi-connection
    closed loop, verifying every permutation client-side, and exits 1
    when availability falls below ``--min-availability`` or any response
    fails verification.
    """
    from repro.serve import WORKLOADS, run_socket_loadgen

    host, _, port_s = args.connect.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_s)
    except ValueError:
        raise ReproError(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        ) from None
    if args.connections < 1:
        raise ReproError("--connections must be positive")
    if args.depth < 1:
        raise ReproError("--depth must be positive")
    if args.frame_count < 1:
        raise ReproError("--frame-count must be positive")
    if args.workload != "mixed" and args.workload not in WORKLOADS:
        raise ReproError(
            f"unknown workload {args.workload!r}; expected mixed or one of "
            + ", ".join(WORKLOADS)
        )
    mix = None if args.workload == "mixed" else {args.workload: 1.0}
    try:
        report = run_socket_loadgen(
            host,
            port,
            args.n,
            total=args.requests,
            connections=args.connections,
            depth=args.depth,
            frame_count=args.frame_count,
            mix=mix,
            seed=args.seed,
            verify=True,
        )
    except (OSError, ValueError) as exc:
        raise ReproError(f"socket load against {host}:{port} failed: {exc}") from exc
    pct = report.latency_percentiles()
    print(
        f"socket loadgen: {report.completed}/{args.requests} frames against "
        f"{host}:{port} ({args.connections} connections, depth {args.depth}, "
        f"{args.frame_count} lanes/frame)"
    )
    print(f"  throughput  {report.throughput_rps:10.1f} frames/s "
          f"({report.lanes_per_second:.1f} lanes/s)")
    print(
        f"  latency     p50={pct['p50'] * 1e3:.3f}ms  "
        f"p90={pct['p90'] * 1e3:.3f}ms  p99={pct['p99'] * 1e3:.3f}ms  "
        f"max={pct['max'] * 1e3:.3f}ms"
    )
    print(
        f"  availability {report.availability:.4f}  shed={report.shed} "
        f"degraded={report.degraded_shed} abandoned={report.abandoned}"
    )
    print(f"  verified    incorrect={report.incorrect}")
    if report.incorrect:
        return 1
    if args.min_availability is not None:
        if report.availability < args.min_availability:
            print(
                f"repro-perm: availability {report.availability:.4f} below "
                f"floor {args.min_availability:.4f}",
                file=sys.stderr,
            )
            return 1
    return 0


def _serve_health(svc) -> dict:
    """The ``/health`` document for a running serve command.

    ``status`` is ``"ok"`` unless a shard of the degradation ladder has
    no live worker (lazy spawn means an empty shard table is healthy,
    not degraded).  The document carries per-worker rows (pid, shard,
    sweeps, restarts) that ``obs top`` renders as its worker table.  The
    plain service has no ladder and is always ``ok``.
    """
    ladder = getattr(svc, "ladder", None)
    if ladder is None:
        return {"status": "ok", "shards": {}}
    return ladder.health()


def _print_serve_report(args: argparse.Namespace, report, stats: dict) -> None:
    pct = report.latency_percentiles()
    by_workload = " ".join(
        f"{w}={c}" for w, c in sorted(report.by_workload.items())
    )
    print(
        f"served {report.completed} requests (n={args.n}, "
        f"{report.clients} clients, workload {args.workload})"
    )
    print(f"  throughput  {report.throughput_rps:10.1f} req/s")
    print(
        f"  latency     p50={pct['p50'] * 1e3:.3f}ms  "
        f"p90={pct['p90'] * 1e3:.3f}ms  p99={pct['p99'] * 1e3:.3f}ms  "
        f"max={pct['max'] * 1e3:.3f}ms"
    )
    print(f"  batching    mean {report.mean_lanes:.1f} lanes/sweep")
    print(
        f"  cache       {stats['cache_hits']} hits / "
        f"{stats['cache_misses']} misses"
    )
    print(f"  shed        {report.shed}")
    print(f"  workloads   {by_workload}")
    tier = "supervisor" if args.supervised else "pool"
    if tier in stats:
        ladder = stats[tier]
        modes = " ".join(f"{m}={c}" for m, c in sorted(report.modes.items()))
        print(f"  modes       {modes}")
        print(
            f"  {tier:<11} workers={ladder['workers_alive']} "
            f"sweeps={ladder['served_worker']} "
            f"restarts={ladder['restarts']} "
            f"check_failures={ladder['check_failures']} "
            f"failovers={ladder['served_fallback']} "
            f"breaker_trips={ladder['breaker_trips']}"
        )
        print(f"  verified    incorrect={report.incorrect}")


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    """``repro serve N --chaos``: the seeded fault-injection campaign."""
    import json as _json

    from repro.serve import run_chaos_campaign

    payload = run_chaos_campaign(
        n=args.n,
        requests=args.requests,
        clients=args.clients,
        seed=args.seed,
        tracer=getattr(args, "_tracer", None),
        workers=args.workers,
    )
    injected = payload["chaos"]["injected"]
    print(
        f"chaos campaign: {payload['requests']} requests under fire, "
        f"{payload['recovery_requests']} in recovery (n={args.n}, "
        f"seed={args.seed}, {payload['executor']} executor, "
        f"{payload['workers']} per shard)"
    )
    print(
        "  injected    "
        + " ".join(f"{k}={v}" for k, v in sorted(injected.items()))
    )
    print(
        f"  invariants  incorrect={payload['incorrect_responses']} "
        f"killed={payload['workers_killed']} "
        f"restarts={payload['worker_restarts']} "
        f"quarantines={payload['kernel_quarantines']}"
    )
    print(
        f"  service     availability={payload['availability_chaos']:.4f} "
        f"(chaos) {payload['availability_recovery']:.4f} (recovery) "
        f"failovers={payload['failovers']}"
    )
    print(f"  recovered   {payload['recovered']}")
    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(payload, fh, indent=1)
        print(f"  wrote       {args.out}")
    ok = (
        payload["incorrect_responses"] == 0
        and payload["recovered"]
        and payload["availability_chaos"] >= 0.90
    )
    return 0 if ok else 1


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top``: scrape a live endpoint, render the dashboard."""
    import json as _json
    import time as _time
    import urllib.error

    from repro.obs.httpexp import fetch_json, render_dashboard

    url = args.url.rstrip("/")
    frame = 0
    prev: dict | None = None
    while True:
        try:
            snapshot = fetch_json(url + "/metrics.json")
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot scrape {url}/metrics.json: {exc}") from exc
        try:
            health: dict | None = fetch_json(url + "/health")
        except urllib.error.HTTPError as exc:
            # 503 still carries the health document (degraded service)
            try:
                health = _json.loads(exc.read().decode())
            except ValueError:
                health = {"status": f"http {exc.code}"}
        except (OSError, ValueError):
            health = None
        panel = render_dashboard(
            snapshot, health, prev=prev, interval_s=args.interval
        )
        prev = snapshot
        if args.frames != 1 and frame > 0:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear between refreshes
        print(panel, flush=True)
        frame += 1
        if args.frames and frame >= args.frames:
            return 0
        _time.sleep(args.interval)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracing import Tracer

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise ReproError("trace needs a subcommand, e.g. `trace faults 4`")
    if rest[0] == "trace":
        raise ReproError("trace cannot be nested")

    inner = _build_parser().parse_args(rest)
    inner.quiet = args.quiet or inner.quiet
    tracer = Tracer()
    inner._tracer = tracer

    if args.vcd is not None:
        if inner.command != "unrank":
            raise ReproError("--vcd is only supported for `trace unrank N n`")
        from repro.obs.probes import trace_converter

        if inner.n < 1:
            raise ReproError("n must be at least 1")
        with tracer.span("unrank", index=inner.index, n=inner.n, vcd=args.vcd):
            perms, _probe = trace_converter(
                inner.n, [inner.index], vcd_path=args.vcd, tracer=tracer
            )
        print(" ".join(str(x) for x in perms[0]))
        rc = 0
    else:
        with tracer.span(inner.command, argv=" ".join(rest)):
            rc = inner.fn(inner)
    print(tracer.render(), file=sys.stderr)
    return rc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perm",
        description="Hardware index-to-permutation converter reproduction",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="enable telemetry and dump exposition-format metrics to stderr",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress structured progress events (reports are unaffected)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unrank", help="index -> permutation")
    p.add_argument("index", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_unrank)

    p = sub.add_parser("rank", help="permutation -> index")
    p.add_argument("elements", type=int, nargs="+")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("table1", help="print the paper's Table I")
    p.add_argument("n", type=int, nargs="?", default=4)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("shuffle", help="sample Knuth-shuffle permutations")
    p.add_argument("n", type=int)
    p.add_argument("count", type=int, nargs="?", default=10)
    p.set_defaults(fn=_cmd_shuffle)

    p = sub.add_parser("resources", help="Table-III-style resource row")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_resources)

    p = sub.add_parser(
        "synth",
        help="pass-pipeline optimisation + LUT map + timing, one flow",
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--circuit", choices=["converter", "shuffle"], default="converter",
        help="which of the paper's circuits to synthesise (default: converter)",
    )
    p.add_argument(
        "--pipelined", action="store_true",
        help="insert the §II-B pipeline registers before synthesis",
    )
    p.add_argument(
        "--passes", default=None, metavar="P1,P2,…",
        help="comma-separated pass pipeline (default: the full pipeline; "
        "see repro.hdl.passes.PASSES for names)",
    )
    p.add_argument(
        "--no-opt", action="store_true",
        help="skip optimisation: map the netlist exactly as constructed",
    )
    p.add_argument(
        "--checked", action="store_true",
        help="equivalence-gate every pass (BDD proof or batched simulation)",
    )
    p.add_argument(
        "--k", type=int, default=6, help="LUT input size (default: 6)"
    )
    p.add_argument(
        "--engine", default="auto",
        help="simulation backend for --checked equivalence runs: auto, "
        "interp, compiled or vector (default: auto — compiled whenever "
        "the check allows it)",
    )
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("fig4", help="run the Fig.-4 histogram experiment")
    p.add_argument("samples", type=int, nargs="?", default=1 << 18)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser(
        "validate",
        help="population-scale streaming statistical validation campaign",
    )
    p.add_argument("--n", type=int, default=8, help="permutation size (default: 8)")
    p.add_argument(
        "--samples", type=int, default=1_000_000,
        help="permutations to stream through the engine (default: 1e6)",
    )
    p.add_argument("--seed", type=int, default=2012, help="campaign seed")
    p.add_argument(
        "--source", choices=["lfsr", "ideal"], default="lfsr",
        help="index source: the paper's LFSR+scaler stack, or PCG64 "
        "uniform as the calibration null (default: lfsr)",
    )
    p.add_argument(
        "--engine", default="vector",
        help="simulation backend: interp, compiled, vector or auto "
        "(default: vector — statistics are engine-invariant)",
    )
    p.add_argument("--m", type=int, default=31, help="LFSR width (default: 31)")
    p.add_argument(
        "--block", type=int, default=4096,
        help="permutations per block, the determinism quantum: each block "
        "draws from its own seeded source, and consecutive blocks share "
        "an engine sweep (default: 4096)",
    )
    p.add_argument(
        "--buckets", type=int, default=4093,
        help="rank residue buckets past the dense-cell budget (default: 4093)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="contiguous block ranges to fan out over workers (default: 1)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="process workers (default: a conservative machine-based count)",
    )
    p.add_argument(
        "--checkpoint", default=None,
        help="write a repro-analysis/1 checkpoint here after every round",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint (bit-identical to an uninterrupted run)",
    )
    p.add_argument(
        "--report", default=None,
        help="write the repro-analysis/1 report JSON here",
    )
    p.add_argument(
        "--timeout", type=float, default=None, help="per-shard timeout (seconds)",
    )
    p.add_argument(
        "--alpha", type=float, default=1e-6,
        help="p-value floor for ideal-source gates (default: 1e-6)",
    )
    p.add_argument(
        "--battery-draws", type=int, default=4096,
        help="randtests battery draws over the raw RNG stack; 0 skips "
        "(default: 4096)",
    )
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "faults", help="fault-injection campaign with coverage report"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--model", choices=["stuck", "seu", "bridge"], default="stuck",
        help="fault model (default: stuck-at)",
    )
    p.add_argument(
        "--circuit", choices=["converter", "shuffle"], default="converter",
        help="which of the paper's circuits to attack (default: converter)",
    )
    p.add_argument(
        "--samples", type=int, default=None,
        help="sample this many fault sites instead of the exhaustive set",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument(
        "--optimized", action="store_true",
        help="inject faults into the pass-pipeline-optimised netlist "
        "(the circuit the synthesis flow actually reports)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="process workers for the sharded campaign (default: 1)",
    )
    p.add_argument(
        "--degrade", action="store_true",
        help="keep partial statistics if shards fail permanently",
    )
    p.add_argument(
        "--engine", default="auto",
        help="simulation backend: auto, interp, compiled or vector "
        "(default: auto — fault-parallel compiled passes for stuck/seu "
        "models, interpreter otherwise; compiled packs 63 faults per "
        "combinational sweep and up to 4095 per sequential pass, vector "
        "4096 per pass)",
    )
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "serve", help="closed-loop load test of the batch-serving layer"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--requests", type=int, default=200,
        help="total requests to complete (default: 200)",
    )
    p.add_argument(
        "--clients", type=int, default=8,
        help="concurrent closed-loop clients (default: 8)",
    )
    p.add_argument(
        "--workload", default="mixed",
        help="request mix: mixed, unrank, random_perm or shuffle "
        "(default: mixed)",
    )
    p.add_argument(
        "--batch-size", type=int, default=None, metavar="B",
        help="micro-batcher lane budget (default: the engine's sweep "
        "quantum — 63 lanes compiled, 4096 vector)",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=2.0,
        help="micro-batch flush deadline in milliseconds (default: 2)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=None,
        help="admission-control queue limit; beyond it requests are "
        "shed (default: 4x the engine's sweep quantum)",
    )
    p.add_argument(
        "--engine", default="auto",
        help="simulation backend behind the serving sweeps: auto, "
        "interp, compiled or vector (default: auto; vector lifts the "
        "batch quantum from 63 to 4096 lanes)",
    )
    p.add_argument("--seed", type=int, default=0, help="load-mix seed")
    p.add_argument(
        "--supervised", action="store_true",
        help="serve through the supervised multi-worker tier (breakers, "
        "restart, degradation ladder) with client-side verification",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="run the seeded chaos campaign against the supervised tier "
        "(or, with --workers W, the process pool) and report the "
        "fault-tolerance invariants",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="with --chaos: also write the campaign payload as JSON",
    )
    p.add_argument(
        "--expose", type=int, default=None, metavar="PORT",
        help="start the pull-based exposition endpoint on 127.0.0.1:PORT "
        "(0 = OS-assigned; the resolved URL is printed to stderr)",
    )
    p.add_argument(
        "--linger", type=float, default=0.0, metavar="S",
        help="with --expose: keep the endpoint up S seconds after the "
        "load completes so late scrapes see the final counters",
    )
    p.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="head-sample batch traces at RATE in [0,1] into the span "
        "ring behind /traces (default: off)",
    )
    p.add_argument(
        "--trace-dump", metavar="PATH", default=None,
        help="write the span ring as a repro-traces/1 JSON document on "
        "exit (implies --trace-sample 1.0 unless given)",
    )
    p.add_argument(
        "--profile", metavar="PATH", default=None,
        help="run the continuous stack-sampling profiler during the load "
        "and write a repro-profile/1 JSON report",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="W",
        help="serve through the multi-process pool with W replica "
        "workers per shard (default: 0 = in-process sweeps)",
    )
    p.add_argument(
        "--listen", type=int, default=None, nargs="?", const=0,
        metavar="PORT",
        help="run the repro-serve/1 TCP front end on 127.0.0.1:PORT "
        "(omitted PORT or 0 = OS-assigned, printed on stdout) until "
        "SIGINT instead of driving an in-process load",
    )
    p.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="client mode: drive a remote repro-serve/1 server with the "
        "socket load generator and verify every response",
    )
    p.add_argument(
        "--connections", type=int, default=2,
        help="with --connect: concurrent TCP connections (default: 2)",
    )
    p.add_argument(
        "--depth", type=int, default=2,
        help="with --connect: in-flight frames per connection (default: 2)",
    )
    p.add_argument(
        "--frame-count", type=int, default=1, metavar="C",
        help="with --connect: permutations requested per frame (default: 1)",
    )
    p.add_argument(
        "--min-availability", type=float, default=None, metavar="F",
        help="with --connect: exit 1 if availability falls below F",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "obs", help="telemetry tooling against a live exposition endpoint"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    t = obs_sub.add_parser(
        "top", help="refreshing terminal dashboard from /metrics.json + /health"
    )
    t.add_argument(
        "--url", default="http://127.0.0.1:9109",
        help="exposition endpoint base URL (default: http://127.0.0.1:9109)",
    )
    t.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    t.add_argument(
        "--frames", type=int, default=0,
        help="stop after N frames; 0 = refresh until interrupted",
    )
    t.set_defaults(fn=_cmd_obs_top)

    p = sub.add_parser(
        "trace", help="run a subcommand under a tracing span tree"
    )
    p.add_argument(
        "--vcd", metavar="PATH", default=None,
        help="for `trace unrank`: also record a gate-level VCD waveform",
    )
    p.add_argument("rest", nargs=argparse.REMAINDER, metavar="cmd ...")
    p.set_defaults(fn=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.metrics:
        _metrics.REGISTRY.enable()
    try:
        _CLI_COMMANDS.inc(command=args.command)
        rc = args.fn(args)
    except ReproError as exc:
        print(f"repro-perm: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro-perm: interrupted", file=sys.stderr)
        return 130
    finally:
        if args.metrics:
            sys.stderr.write(_metrics.REGISTRY.render_exposition())
            _metrics.REGISTRY.disable()
    return rc


if __name__ == "__main__":
    sys.exit(main())
