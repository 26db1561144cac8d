"""Traced server launcher: install the layer wrappers, then run the CLI.

Usage: ``python perfbench/serve_launch.py OUT -- serve 8 --listen 0 ...``

Everything after ``--`` goes to the same ``repro.cli.main`` entry point
the untraced run starts with ``python -m repro``.  When the server
drains (SIGINT) the front process writes ``OUT`` — its spans, the
server-side timings of every resolved response and the service's
``stats()`` — and each forked pool worker writes ``OUT.child.<pid>.json``.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

from spans import SERVE_FRONT, Recorder


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: serve_launch.py OUT -- CLI-ARGS...")

    from repro.cli import main as cli_main
    from repro.serve.engine import ConverterEngine
    from repro.serve.model import WideResponse
    from repro.serve.net.server import NetServer
    from repro.serve.service import CompletionFuture, PermutationService

    # frames: the event-loop thread admits each frame right after
    # decoding it, so its unit is the frame it decoded last; an encoded
    # response names its own frame
    def decoded(rec, args, kwargs, request):
        if request is not None:
            return rec.set_unit(f"frame {request.request_id}")
        return None

    def encoding(rec, args, kwargs):
        rid = kwargs.get("request_id")
        return None if rid is None else f"frame {rid}"

    rec = Recorder()
    rec.install(SERVE_FRONT, hooks={
        "net.decode": (None, decoded),
        "net.encode": (encoding, None),
    })
    rec.follow_forks(f"{out}.child")

    # batches: one thread runs a batch from the queue to its resolved
    # futures.  The supervisor's kernel threads read the shared unit,
    # which is right while one batch runs at a time (the supervised
    # service's single dispatcher); pooled batches run concurrently, but
    # their spans in this process stay on the batch's own thread
    execute = PermutationService._execute

    def tagged_execute(self, batch):
        rec.set_unit(f"batch {batch.batch_id}", shared=True)
        try:
            return execute(self, batch)
        finally:
            rec.set_unit(None)

    rec.patch(PermutationService, "_execute", tagged_execute)

    traced_run = ConverterEngine.run
    sweeps = itertools.count()

    def run(self, indices):
        if rec.arm_child():  # a forked pool worker: one unit per sweep
            rec.set_unit(f"worker {os.getpid()} sweep {next(sweeps)}")
        return traced_run(self, indices)

    rec.patch(ConverterEngine, "run", run)

    # server-side timings of each resolved frame:
    # (t, queued_s, sweep_s, lanes, batch_id)
    responses: list[tuple] = []
    result = CompletionFuture.result

    def traced_result(self, timeout=None):
        resp = result(self, timeout)
        if type(resp) is WideResponse:
            responses.append(
                (time.perf_counter(), resp.queued_s, resp.sweep_s, resp.lanes,
                 resp.batch_id)
            )
        return resp

    rec.patch(CompletionFuture, "result", traced_result)

    services: list = []
    server_init = NetServer.__init__

    def traced_init(self, service, *args, **kwargs):
        services.append(service)
        server_init(self, service, *args, **kwargs)

    rec.patch(NetServer, "__init__", traced_init)

    rc = cli_main(argv)
    rec.dump(out, responses=responses, stats=[s.stats() for s in services])
    return rc


if __name__ == "__main__":
    sys.exit(main())
