"""One seeded request stream, every serving mode, byte-identical rows.

The stream mixes ``unrank``, ``random_perm`` and ``shuffle`` frames of 1
to 9 lanes over four shards.  It is sent, all frames in flight at once,
through five configurations — the plain in-process service (compiled
and vector engines), the thread executor, and the process executor with
one and two workers per shard — each both in-process (``submit_wide``)
and over TCP (``NetServer`` and its client, pipelined on one
connection), each run on a fresh service so the random draws start from
the same seed.  Both random workloads draw at admission, in admission
order, so every run must return the same bytes whichever executor,
worker or batch sweeps a lane.  The reference run must also match the
oracle: ``unrank`` rows are ``unrank_batch`` of the frame's indices,
``random_perm`` rows the unrank of the indices the response echoes, and
each ``n``'s shuffle rows, in admission order, are the samples of a
Knuth-shuffle circuit seeded by the service's rule.  A defect every mode
shares (a mis-sliced row block, say) makes all runs agree with each
other; only the oracle sees it.
"""

import random

import numpy as np
import pytest

from repro.core.knuth import KnuthShuffleCircuit
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


STREAM = _stream(SEED, WORKLOADS)


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


def _seeded_shuffle(n: int, salt: int) -> KnuthShuffleCircuit:
    """The service's per-``n`` shuffle source: every stage re-seeded
    from the service seed."""
    stock = KnuthShuffleCircuit(n)
    return KnuthShuffleCircuit(n, seeds=[
        (s * 0x9E3779B9 + salt) % ((1 << w) - 1) + 1
        for s, w in zip(stock.seeds, stock.widths)
    ])


@pytest.fixture(scope="module")
def reference() -> list:
    return _run("direct", "in-process", STREAM, pipelined=False)


def test_stream_covers_every_workload(reference):
    assert {(w, n) for w, n, *_ in STREAM} == {
        (w, n) for w in WORKLOADS for n in N_VALUES
    }
    assert len(reference) == len(STREAM)


def test_reference_rows_match_the_oracle(reference):
    shuffled = {n: [] for n in N_VALUES}
    for (workload, n, count, indices), resp in zip(STREAM, reference):
        assert resp.permutations.shape == (count, n)
        assert len(resp.indices) == count
        if workload == "shuffle":
            shuffled[n].append(resp.permutations)
            continue
        if workload == "unrank":
            assert resp.indices == tuple(indices)
        want = unrank_batch(resp.indices, n)
        assert _rows(resp.permutations) == _rows(want)
    for n, rows in shuffled.items():
        rows = np.concatenate(rows)
        want = _seeded_shuffle(n, SEED).sample(len(rows))
        assert _rows(rows) == _rows(want)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_mode_returns_the_same_rows(mode, transport, reference):
    rows = _blobs(_run(mode, transport, STREAM, pipelined=True))
    assert rows == _blobs(reference)
