"""Pull-based telemetry exposition over HTTP, plus the text dashboard.

:class:`ExpositionServer` is a stdlib-only (``http.server``) endpoint a
running service starts next to itself — one daemon thread, bound to
``127.0.0.1`` by default, port ``0`` for an OS-assigned port.  It serves
the *pull* side of the telemetry pipeline:

========================  ==============================================
``/metrics``              Prometheus text exposition of the registry
``/metrics.json``         the same data as a JSON snapshot
``/traces``               the span ring as a ``repro-traces/1`` document
``/health``               the health callback's JSON (503 when not ok)
========================  ==============================================

Scrapes never touch the serving hot path: every handler reads the
registry/ring under their own locks, and the server thread is the only
thing that pays for rendering.

:func:`render_dashboard` is the *view* half of ``repro obs top``: a pure
function from a ``/metrics.json`` snapshot (plus an optional ``/health``
document) to a fixed-width terminal panel — queue depth, shed/degraded
rates, serving-mode mix, breaker states, cache hit ratio and the
latency-digest percentiles.  Keeping it pure (no sockets, no clock)
makes the dashboard testable with canned snapshots.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import metrics as _metrics
from repro.obs.sampling import SpanRing, TRACE_DUMP_SCHEMA

__all__ = [
    "ExpositionServer",
    "render_dashboard",
    "fetch_json",
    "fetch_text",
]


class ExpositionServer:
    """A background HTTP endpoint exposing one registry + span ring.

    ``health_fn`` (optional) returns the ``/health`` document; a
    ``status`` value other than ``"ok"`` turns the response into a 503 —
    which is exactly what a load-balancer probe or the CI smoke check
    wants to see from a degraded service.  ``registry`` defaults to the
    global :data:`repro.obs.metrics.REGISTRY`.
    """

    def __init__(
        self,
        registry: _metrics.MetricsRegistry | None = None,
        ring: SpanRing | None = None,
        health_fn=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry if registry is not None else _metrics.REGISTRY
        self.ring = ring
        self.health_fn = health_fn
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ExpositionServer":
        if self._httpd is not None:
            return self
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence per-request noise
                pass

            def do_GET(self) -> None:
                server._handle(self)

        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]  # resolve port 0
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-exposition",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ExpositionServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request handling (runs on the server's handler threads)

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = self.registry.render_exposition().encode()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                status = 200
            elif path == "/metrics.json":
                body = _json_bytes(self.registry.snapshot())
                ctype = "application/json"
                status = 200
            elif path == "/traces":
                doc = (
                    self.ring.dump()
                    if self.ring is not None
                    else {
                        "schema": TRACE_DUMP_SCHEMA,
                        "capacity": 0,
                        "recorded": 0,
                        "dropped": 0,
                        "traces": [],
                    }
                )
                body = _json_bytes(doc)
                ctype = "application/json"
                status = 200
            elif path == "/health":
                doc = self.health_fn() if self.health_fn is not None else {"status": "ok"}
                body = _json_bytes(doc)
                ctype = "application/json"
                status = 200 if doc.get("status") == "ok" else 503
            else:
                body = _json_bytes({"error": f"unknown path {path!r}"})
                ctype = "application/json"
                status = 404
        except Exception as exc:  # defensive: a scrape must never kill the server
            body = _json_bytes({"error": f"{type(exc).__name__}: {exc}"})
            ctype = "application/json"
            status = 500
        handler.send_response(status)
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)


def _json_bytes(doc: object) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


# --------------------------------------------------------------------- #
# client helpers (the ``repro obs top`` fetch side)


def fetch_text(url: str, timeout: float = 2.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode()


def fetch_json(url: str, timeout: float = 2.0) -> dict:
    return json.loads(fetch_text(url, timeout=timeout))


# --------------------------------------------------------------------- #
# the dashboard view (pure: snapshot dicts in, panel text out)


def _series(snapshot: dict, name: str) -> list[dict]:
    for m in snapshot.get("metrics", ()):
        if m.get("name") == name:
            return list(m.get("series", ()))
    return []


def _counter_by(snapshot: dict, name: str, label: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in _series(snapshot, name):
        key = s.get("labels", {}).get(label, "")
        out[key] = out.get(key, 0.0) + float(s.get("value", 0.0))
    return out


def _fmt_rate(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    —"


def _fmt_s(v: float) -> str:
    if v >= 1.0:
        return f"{v:7.2f}s"
    if v >= 1e-3:
        return f"{v * 1e3:6.2f}ms"
    return f"{v * 1e6:6.1f}µs"


def _worker_sweeps(snapshot: dict | None) -> dict[tuple[str, str], float]:
    """Per-(shard, replica) cumulative sweep counts from a snapshot."""
    out: dict[tuple[str, str], float] = {}
    if not snapshot:
        return out
    for s in _series(snapshot, "repro_serve_pool_worker_sweeps_total"):
        labels = s.get("labels", {})
        key = (labels.get("shard", "?"), labels.get("replica", "?"))
        out[key] = out.get(key, 0.0) + float(s.get("value", 0.0))
    return out


def render_dashboard(
    snapshot: dict,
    health: dict | None = None,
    prev: dict | None = None,
    interval_s: float | None = None,
) -> str:
    """One terminal panel from a ``/metrics.json`` snapshot.

    Missing metrics render as absent rows, not errors: the dashboard is
    usable against any registry, not only a fully-instrumented serving
    run.  When the health document carries per-worker rows (either
    executor of the serving ladder), a worker table is appended — pid,
    shard, cumulative sweeps, restarts — with a sweeps/s column computed
    from the previous snapshot ``prev`` over ``interval_s`` when both
    are given.
    """
    lines: list[str] = []
    bar = "─" * 64
    lines.append("repro serving telemetry")
    lines.append(bar)

    # --- traffic -------------------------------------------------------
    outcomes = _counter_by(snapshot, "repro_serve_requests_total", "outcome")
    total = sum(outcomes.values())
    if outcomes:
        shed = outcomes.get("shed", 0.0)
        degraded = outcomes.get("degraded", 0.0)
        errors = outcomes.get("error", 0.0)
        lines.append(
            f"requests {int(total):>10}   ok {_fmt_rate(outcomes.get('ok', 0.0), total)}"
            f"   shed {_fmt_rate(shed, total)}"
            f"   degraded {_fmt_rate(degraded, total)}"
            f"   error {_fmt_rate(errors, total)}"
        )
    depth = _series(snapshot, "repro_serve_queue_depth")
    if depth:
        lines.append(f"queue depth {int(depth[0].get('value', 0)):>7}")

    # --- serving-mode mix ---------------------------------------------
    modes = _counter_by(snapshot, "repro_serve_mode_total", "mode")
    if modes:
        served = sum(modes.values())
        mix = "   ".join(
            f"{mode} {_fmt_rate(count, served).strip()}"
            for mode, count in sorted(modes.items())
        )
        lines.append(f"mode mix    {mix}")

    # --- cache ---------------------------------------------------------
    cache = _counter_by(snapshot, "repro_serve_cache_total", "result")
    if cache:
        lookups = sum(cache.values())
        lines.append(
            f"cache       hit ratio {_fmt_rate(cache.get('hit', 0.0), lookups).strip()}"
            f"  ({int(lookups)} lookups)"
        )

    # --- breakers ------------------------------------------------------
    breakers: dict[tuple[str, str], str] = {}
    for s in _series(snapshot, "repro_serve_breaker_state"):
        labels = s.get("labels", {})
        if float(s.get("value", 0.0)) == 1.0:
            breakers[(labels.get("shard", "?"), labels.get("path", "?"))] = labels.get(
                "state", "?"
            )
    if breakers:
        lines.append("breakers")
        for (shard, path), state in sorted(breakers.items()):
            marker = " " if state == "closed" else "!"
            lines.append(f"  {marker} {shard:<16} {path:<9} {state}")

    # --- latency digests ----------------------------------------------
    digests = _series(snapshot, "repro_serve_latency_seconds")
    if digests:
        lines.append(bar)
        lines.append(
            f"{'workload/mode':<22} {'count':>8} {'p50':>9} {'p90':>9} "
            f"{'p99':>9} {'p99.9':>9}"
        )
        for s in digests:
            labels = s.get("labels", {})
            name = f"{labels.get('workload', '?')}/{labels.get('mode', '?')}"
            qs = s.get("quantiles", {})
            lines.append(
                f"{name:<22} {int(s.get('count', 0)):>8}"
                f" {_fmt_s(float(qs.get('0.5', 0.0))):>9}"
                f" {_fmt_s(float(qs.get('0.9', 0.0))):>9}"
                f" {_fmt_s(float(qs.get('0.99', 0.0))):>9}"
                f" {_fmt_s(float(qs.get('0.999', 0.0))):>9}"
            )

    # --- worker pool ---------------------------------------------------
    pool_depth = _series(snapshot, "repro_serve_pool_queue_depth")
    if pool_depth:
        cells = "   ".join(
            f"{s.get('labels', {}).get('shard', '?')}="
            f"{int(float(s.get('value', 0.0)))}"
            for s in sorted(
                pool_depth, key=lambda s: s.get("labels", {}).get("shard", "")
            )
        )
        lines.append(f"pool depth  {cells}")
    workers = (health or {}).get("workers") or []
    if workers:
        now_sweeps = _worker_sweeps(snapshot)
        prev_sweeps = _worker_sweeps(prev)
        lines.append(bar)
        lines.append(
            f"{'worker':<20} {'pid':>8} {'sweeps':>8} {'sweeps/s':>9} "
            f"{'restarts':>9}"
        )
        for row in workers:
            name = f"{row.get('shard', '?')}#{row.get('replica', '?')}"
            key = (str(row.get("shard", "?")), str(row.get("replica", "?")))
            if prev is not None and interval_s:
                delta = now_sweeps.get(key, float(row.get("sweeps", 0)))
                delta -= prev_sweeps.get(key, 0.0)
                rate = f"{max(delta, 0.0) / interval_s:>9.1f}"
            else:
                rate = f"{'—':>9}"
            state = "" if row.get("alive", True) else "  (down)"
            lines.append(
                f"{name:<20} {int(row.get('pid') or 0):>8} "
                f"{int(row.get('sweeps', 0)):>8} {rate} "
                f"{int(row.get('restarts', 0)):>9}{state}"
            )

    # --- health --------------------------------------------------------
    if health is not None:
        lines.append(bar)
        status = health.get("status", "?")
        shards = health.get("shards") or {}
        lines.append(f"health      {status}")
        for key, info in sorted(shards.items()):
            lines.append(
                f"  {key:<18} replicas {info.get('alive', 0)}/"
                f"{info.get('replicas', 0)} up  breaker {info.get('breaker', '?')}"
            )
    return "\n".join(lines)
