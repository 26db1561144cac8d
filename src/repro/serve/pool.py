"""The process executor: the degradation ladder over worker processes.

The thread executor (:mod:`repro.serve.supervisor`) keeps every sweep in
one process, so every sweep competes for the same GIL.  This module runs
the same :class:`~repro.serve.supervisor.DegradationLadder` over real
worker **processes**, so sweeps for different shards (and replicas of
the same shard) run on separate cores.  Only the worker handle differs:

* each shard has ``LadderConfig.workers`` replica processes, each owning
  a private engine built by the same
  :func:`~repro.serve.supervisor.worker_engine` rule as a thread worker;
* a **control pipe** per replica carries tiny messages only: the sweep
  order (indices or lane count) down, ``("ok", job, rows)`` back.  The
  permutation words travel through a ``multiprocessing.shared_memory``
  **ring** of one sweep, written by the child as a NumPy view and
  copied out by the parent in one vectorised memcpy.  Result arrays are
  never pickled on the hot path;
* a dead pipe raises :class:`~repro.errors.WorkerCrashedError`, a blown
  sweep deadline :class:`~repro.errors.WorkerStalledError`; the ladder
  retires the replica either way, and a convicted replica's respawn
  recompiles its kernel from scratch — the respawn is the quarantine.
  On the vector engine the parent also unlinks the native library the
  replica loaded, which the respawn would otherwise load again from the
  disk cache;
* chaos plans arrive as pipe messages (``crash``, ``stall``) or are
  applied to the copied rows before the check (``corrupt``, ``swap``).

:class:`PooledService` hands batch execution to a small thread pool:
each in-flight batch parks its executor thread in ``Connection.poll``
(releasing the GIL) while a worker process sweeps, which is what lets
``--workers 4`` use four cores from one front-end process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.errors import WorkerCrashedError, WorkerStalledError
from repro.hdl.engine import resolve_backend
from repro.hdl.native import clear_native_cache, find_compiler, library_path
from repro.obs import metrics as _metrics
from repro.obs.tracing import Tracer

# Not called here — the ladder's checks run in repro.serve.supervisor —
# but perfbench/spans.py patches this binding in both serving modules.
from repro.robustness.checkers import check_served_batch  # noqa: F401
from repro.serve.service import PermutationService, ServiceConfig
from repro.serve.supervisor import (
    DegradationLadder,
    LadderConfig,
    LadderService,
    worker_engine,
)

__all__ = ["WorkerPool", "PooledService"]

#: How long a spawned worker may take to build its engine.
SPAWN_TIMEOUT_S = 60.0

# Held from creating a worker's pipes until the parent has closed the
# child's ends: a worker forked inside that window would inherit them,
# and a dead worker's pipe would then never read EOF.
_FORK_LOCK = threading.Lock()


# --------------------------------------------------------------------- #
# the worker process


def _worker_main(conn, shm_name: str, key, service: ServiceConfig, worker_id: int) -> None:
    """Worker-process entry point: build one engine, sweep forever.

    The child's first acts are disabling the (inherited, under fork)
    global metrics registry — nobody will ever scrape a forked registry —
    and dropping the native kernel bindings it inherited: a front end
    that swept the same kernel on the vector engine would otherwise hand
    every worker, respawns included, the library a quarantine unlinked.
    The inherited record of mapped library paths stays, so a rebuilt
    library loads under a fresh name.  The engine is built eagerly so a
    failed kernel compile surfaces as a failed spawn in the parent, not
    as a broken first sweep.

    Protocol (all tiny tuples; permutation words go through the ring):

    * ``("sweep", job_id, payload)`` → write the ``(rows, n)`` result
      into the ring, reply ``("ok", job_id, rows)`` — or ``("err",
      job_id, type_name, detail)`` if the sweep raised;
    * ``("crash",)`` → ``os._exit(13)`` (the chaos harness's simulated
      hard crash — no cleanup, exactly like a segfault);
    * ``("stall", seconds)`` → sleep (simulated stuck or slow kernel);
    * EOF → clean exit.
    """
    _metrics.REGISTRY.disable()
    clear_native_cache()
    # under fork the child inherits the parent's signal dispositions
    # (the CLI's listen mode remaps SIGTERM to a clean-drain raise);
    # reset to defaults so the ladder's terminate() stays a kill
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    kind, n = key
    try:
        shm = shared_memory.SharedMemory(name=shm_name, track=False)
    except TypeError:
        # Python < 3.13 has no ``track`` flag and registers every attach
        # with the resource tracker — which the parent (who owns the
        # segment) already did, so the duplicate would make the tracker
        # unlink or double-unregister the ring.  Suppress registration
        # for just this attach instead.
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: (
            None if rtype == "shared_memory" else orig_register(name, rtype)
        )
        try:
            shm = shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = orig_register
    ring = np.ndarray((service.max_batch, n), dtype=np.int64, buffer=shm.buf)
    try:
        engine = worker_engine(kind, n, service, worker_id)
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            tag = msg[0]
            if tag == "sweep":
                _, job_id, payload = msg
                try:
                    perms = engine.run(payload)
                    ring[: len(perms)] = perms
                    conn.send(("ok", job_id, len(perms)))
                except Exception as exc:  # noqa: BLE001 - reported upstream
                    conn.send(("err", job_id, type(exc).__name__, str(exc)))
            elif tag == "crash":
                os._exit(13)
            elif tag == "stall":
                time.sleep(float(msg[1]))
    finally:
        shm.close()


# --------------------------------------------------------------------- #
# the process worker handle


class _WorkerProc:
    """The process worker handle: control pipe + private shared-memory ring.

    The parent creates the ring *before* spawning so both sides map the
    same segment; the child writes each sweep into it and the parent
    copies the rows out before the ladder frees the worker for its next
    sweep.
    """

    def __init__(self, key, slot: int, worker_id: int, ctx, service: ServiceConfig,
                 chaos=None):
        self.key = key
        self.slot = slot
        self.worker_id = worker_id
        self.service = service
        self.chaos = chaos
        self.pid: int | None = None
        self.busy = False
        self.sweeps = 0
        self._jobs = 0
        self._dead = False
        n = key[1]
        self._shm = shared_memory.SharedMemory(
            create=True, size=service.max_batch * n * 8
        )
        self._ring = np.ndarray(
            (service.max_batch, n), dtype=np.int64, buffer=self._shm.buf
        )
        with _FORK_LOCK:
            self._conn, child_conn = ctx.Pipe()
            self._proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._shm.name, key, service, worker_id),
                name=f"serve-pool-{key[0]}-{n}-{worker_id}",
                daemon=True,
            )
            self._proc.start()
            child_conn.close()

    def wait_ready(self, timeout_s: float) -> None:
        """Block until the child reports its engine built (or fail typed)."""
        try:
            if not self._conn.poll(timeout_s):
                raise WorkerStalledError(
                    f"worker for shard {self.key} failed to become ready "
                    f"within {timeout_s:g}s"
                )
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker for shard {self.key} died during spawn"
            ) from exc
        if msg[0] != "ready":
            raise WorkerCrashedError(
                f"worker for shard {self.key} spoke out of turn: {msg[0]!r}"
            )
        self.pid = msg[1]

    @property
    def alive(self) -> bool:
        return not self._dead and self._proc.is_alive()

    def run(self, payload, deadline_s: float, parent=None) -> np.ndarray:
        """One sweep → a fresh ``(rows, n)`` copy; raises typed failures."""
        plan = (
            self.chaos.plan_sweep(self.key, self.worker_id)
            if self.chaos is not None
            else None
        )
        rows = payload if isinstance(payload, int) else len(payload)
        job_id = self._jobs
        self._jobs += 1
        try:
            if plan is not None and plan.event == "crash":
                self._conn.send(("crash",))
            elif plan is not None and plan.sleep_s:
                self._conn.send(("stall", plan.sleep_s))
            self._conn.send(("sweep", job_id, payload))
            if not self._conn.poll(deadline_s):
                raise WorkerStalledError(
                    f"worker {self.worker_id} for shard {self.key} missed its "
                    f"{deadline_s:g}s sweep deadline (stall detected)"
                )
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} died mid-sweep"
            ) from exc
        if msg[0] == "err":
            raise RuntimeError(f"worker sweep failed: {msg[2]}: {msg[3]}")
        if msg[0] != "ok" or msg[1] != job_id or msg[2] != rows:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} desynchronised "
                f"(got {msg[:3]!r}, expected ('ok', {job_id}, {rows}))"
            )
        # the one parent-side copy: frees the ring for the next sweep
        # while the caller's response encodes
        perms = self._ring[:rows].copy()
        return perms if plan is None else plan.apply(perms)

    def stale(self) -> bool:
        return False  # liveness is the process itself (``alive``)

    def quarantine(self) -> int | None:
        """A convicted converter worker's kernel dies with its process.

        A vector worker also loaded the native library from the disk
        cache; the parent unlinks it, as
        :func:`~repro.hdl.native.evict_native` does in-process, so the
        respawn builds afresh.  Returns kernels plus libraries evicted.
        """
        if self.key[0] != "converter":
            return None
        cc = find_compiler()
        if cc is None or resolve_backend(self.service.engine).name != "vector":
            return 1
        engine = worker_engine(*self.key, self.service, self.worker_id)
        try:
            os.unlink(library_path(engine.kernel, cc))
        except OSError:
            return 1
        return 2

    def send_crash(self) -> bool:
        """Chaos hook: order the child to die with ``os._exit`` (no cleanup)."""
        try:
            self._conn.send(("crash",))
            return True
        except (OSError, ValueError):
            return False

    def kill(self) -> None:
        self._dead = True
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.terminate()
        self._proc.join(timeout=5.0)
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


# --------------------------------------------------------------------- #
# the executor


class WorkerPool(DegradationLadder):
    """The process executor: ``workers`` worker processes per shard.

    Workers start with fork where the platform offers it (a spawn in
    ~20 ms instead of re-importing the package) and spawn elsewhere.
    """

    default_deadline_s = 10.0

    def __init__(self, config: LadderConfig | None = None, service=None, **kwargs):
        super().__init__(config, service, **kwargs)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # Bound here, not inherited: perfbench/spans.py times each
    # executor's own ``execute`` by patching it in the class __dict__.
    execute = DegradationLadder.execute

    def _spawn(self, key, slot: int, worker_id: int) -> _WorkerProc:
        worker = _WorkerProc(key, slot, worker_id, self._ctx, self.service, self.chaos)
        try:
            worker.wait_ready(SPAWN_TIMEOUT_S)
        except BaseException:
            worker.kill()
            raise
        return worker

    def kill_worker(self, key=None) -> tuple | None:
        """Order one live worker process to hard-crash (chaos hook).

        With ``key`` given, targets that shard; otherwise the first
        shard with a live worker.  Returns ``(key, replica)`` of the
        victim or ``None`` when no live worker exists.  The child dies
        via ``os._exit`` at its next pipe read — mid-sweep or idle — and
        the ladder must absorb it: retire, fail over, respawn with
        backoff, serve zero wrong results.
        """
        for shard in self._all_shards():
            if key is not None and shard.key != key:
                continue
            with shard.cond:
                for worker in shard.workers:
                    if worker is not None and worker.alive and worker.send_crash():
                        return (shard.key, worker.slot)
        return None


# --------------------------------------------------------------------- #
# the pooled service


class PooledService(LadderService):
    """The ladder over worker processes (``serve --workers W``).

    Batches run on ``max(4, 2W)`` sweep threads, so the submitting
    thread (or the asyncio front end behind it) returns as soon as the
    batch is handed off while an executor thread parks in the worker
    pipe — with the GIL released — for the sweep.  A shard admits new
    requests while fewer sweeps are in flight than every sweep thread
    busy plus one batcher's worth (``max_queue_depth // max_batch``)
    waiting for a thread; past that it sheds with
    ``ServiceOverloadedError``.
    """

    stats_key = "pool"

    def __init__(
        self,
        config: ServiceConfig | None = None,
        ladder: LadderConfig | None = None,
        chaos=None,
        tracer: Tracer | None = None,
    ):
        config = config or ServiceConfig()
        ladder = ladder or LadderConfig()
        threads = max(4, 2 * ladder.workers)
        self.pool = WorkerPool(
            ladder,
            config,
            chaos=chaos,
            tracer=tracer,
            max_in_flight=threads + config.max_queue_depth // config.max_batch,
        )
        self._sweep_exec = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="serve-sweep"
        )
        super().__init__(config, self.pool, tracer)

    def _drain_executors(self) -> None:
        self._sweep_exec.shutdown(wait=True)

    def _sweep(self, batch) -> None:
        try:
            self._sweep_exec.submit(self._sweep_now, batch)
        except RuntimeError:
            # executor already shut down (close raced a straggler batch):
            # run inline so the entries' futures still settle
            self._sweep_now(batch)

    def _sweep_now(self, batch) -> None:
        try:
            PermutationService._execute(self, batch)
        except BaseException as exc:  # pragma: no cover - belt: never hang
            with self._cond:
                for e in batch.entries:
                    if not e.future.done():
                        e.future._finish(None, exc)
                self._cond.notify_all()
            raise
