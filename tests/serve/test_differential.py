"""One seeded request stream, every serving mode, byte-identical rows.

The stream mixes ``unrank`` and ``random_perm`` frames of 1 to 9 lanes
over two shards.  It is sent, all frames in flight at once, through five
configurations — the plain in-process service (compiled and vector
engines), the thread executor, and the process executor with one and
two workers per shard — each both in-process (``submit_wide``) and over
TCP (``NetServer`` and its client, pipelined on one connection), each
run on a fresh service so the ``random_perm`` index draws start from the
same seed.  Every run must return the same bytes, and the reference run
must match the oracle: ``unrank`` rows are ``unrank_batch`` of the frame's
indices, ``random_perm`` rows the unrank of the indices the response
echoes.  A defect every mode shares (a mis-sliced row block, say) makes
all runs agree with each other; only the oracle sees it.

``shuffle`` frames ride a second stream, sent one at a time so every
frame is its own sweep: valid permutations everywhere, and
byte-identical between the thread and the one-worker process executor,
whose shuffle workers are salted by the same rule.
"""

import random

import numpy as np
import pytest

from repro.core.lehmer import unrank_batch
from repro.serve import (
    LadderConfig,
    NetServer,
    PermutationService,
    PooledService,
    ServeConnection,
    ServiceConfig,
    SupervisedService,
)
from repro.serve.model import WORKLOADS

SEED = 20120521
N_VALUES = (5, 7)


def _config(**kw) -> ServiceConfig:
    return ServiceConfig(batch_deadline_s=0.001, rng_seed=SEED, **kw)


MODES = {
    "direct": lambda: PermutationService(_config()),
    "direct-vector": lambda: PermutationService(_config(engine="vector")),
    "threads": lambda: SupervisedService(_config()),
    "processes-1": lambda: PooledService(_config(), LadderConfig(workers=1)),
    "processes-2": lambda: PooledService(_config(), LadderConfig(workers=2)),
}


def _stream(seed: int, workloads) -> list[tuple]:
    rng = random.Random(seed)
    frames = []
    for _ in range(30):
        workload = rng.choice(workloads)
        n = rng.choice(N_VALUES)
        count = rng.randint(1, 9)
        indices = None
        if workload == "unrank":
            limit = 120 if n == 5 else 5040
            indices = [rng.randrange(limit) for _ in range(count)]
        frames.append((workload, n, count, indices))
    return frames


UNRANK_STREAM = _stream(SEED, ("unrank", "random_perm"))
SHUFFLE_STREAM = _stream(SEED + 1, ("shuffle",))


def _rows(perms) -> bytes:
    return np.asarray(perms, dtype=np.int64).tobytes()


def _blobs(replies) -> list[bytes]:
    return [_rows(r.permutations) for r in replies]


def _in_process(svc, stream, pipelined: bool) -> list:
    if not pipelined:
        return [svc.submit_wide(*frame).result(30.0) for frame in stream]
    futures = [svc.submit_wide(*frame) for frame in stream]
    return [f.result(30.0) for f in futures]


def _over_tcp(svc, stream, pipelined: bool) -> list:
    with NetServer(svc) as server:
        with ServeConnection(*server.address, timeout=30.0) as conn:
            if not pipelined:
                replies = [conn.request(*frame) for frame in stream]
            else:
                ids = [conn.send(*frame) for frame in stream]
                by_id = {r.request_id: r for r in (conn.recv() for _ in ids)}
                replies = [by_id[i] for i in ids]
    assert all(r.ok for r in replies), [r.message for r in replies if not r.ok]
    return replies


def _run(mode: str, transport: str, stream, pipelined: bool) -> list:
    send = _in_process if transport == "in-process" else _over_tcp
    with MODES[mode]() as svc:
        return send(svc, stream, pipelined)


@pytest.fixture(scope="module")
def reference() -> list:
    return _run("direct", "in-process", UNRANK_STREAM, pipelined=False)


def test_stream_covers_both_deterministic_workloads(reference):
    kinds = {w for w, *_ in UNRANK_STREAM}
    assert kinds == {"unrank", "random_perm"} and set(WORKLOADS) > kinds
    assert len(reference) == len(UNRANK_STREAM)


def test_reference_rows_match_the_oracle(reference):
    for (workload, n, count, indices), resp in zip(UNRANK_STREAM, reference):
        assert resp.permutations.shape == (count, n)
        if workload == "unrank":
            assert resp.indices == tuple(indices)
            want = unrank_batch(indices, n)
        else:
            assert indices is None and len(resp.indices) == count
            want = unrank_batch(resp.indices, n)
        assert _rows(resp.permutations) == _rows(want)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_mode_returns_the_same_rows(mode, transport, reference):
    rows = _blobs(_run(mode, transport, UNRANK_STREAM, pipelined=True))
    assert rows == _blobs(reference)


@pytest.fixture(scope="module")
def shuffles() -> dict:
    return {
        (mode, transport): _blobs(_run(mode, transport, SHUFFLE_STREAM, False))
        for mode in MODES
        for transport in ("in-process", "tcp")
    }


def test_shuffle_rows_are_permutations_everywhere(shuffles):
    for run in shuffles.values():
        for blob, (_, n, count, _) in zip(run, SHUFFLE_STREAM):
            rows = np.frombuffer(blob, dtype=np.int64).reshape(count, n)
            assert (np.sort(rows, axis=1) == np.arange(n)).all()


def test_shuffles_match_between_threads_and_one_process_worker(shuffles):
    for transport in ("in-process", "tcp"):
        assert shuffles[("threads", transport)] == shuffles[("processes-1", transport)]
