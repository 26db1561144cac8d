"""Closed-loop ``repro-serve/1`` load generator that verifies every row.

The client speaks the wire grammar itself (the struct layouts below, as
documented in ``repro.serve.net.protocol``) instead of importing the
program's codec, so a codec regression fails verification rather than
being mirrored by the client.  One thread drives every connection
through a selector; each connection keeps ``depth`` frames in flight
and sends the next frame as soon as one is answered.
"""

from __future__ import annotations

import math
import random
import selectors
import socket
import struct
import time

from host import HostWindow

_REQ = struct.Struct("!BBBBIHH")
_RESP = struct.Struct("!BBBBIHHBB")
_LEN = struct.Struct("!I")
_TAGS = {"unrank": 0, "random_perm": 1, "shuffle": 2}
_TIMEOUT_S = 30.0


class Oracle:
    """All ``n!`` rows, built once; a row check is one slice compare."""

    def __init__(self, n: int) -> None:
        import numpy as np

        from repro.core.lehmer import unrank_batch

        self.n = n
        self.nfact = math.factorial(n)
        rows = unrank_batch(np.arange(self.nfact, dtype=np.int64), n)
        self.table = rows.astype(np.uint8).tobytes()
        self.identity = bytes(range(n))

    def rows(self, indices) -> bytes:
        n, t = self.n, self.table
        return b"".join(t[i * n : i * n + n] for i in indices)

    def check(self, body: bytes, workload: str, indices, count: int) -> str:
        """``"ok"``, ``"failed"`` (a typed refusal) or ``"wrong"``."""
        _, status, tag, n, _, got_count, _, _, _ = _RESP.unpack_from(body)
        if status != 0:
            return "failed"
        if tag != _TAGS[workload] or n != self.n or got_count != count:
            return "wrong"
        off = _RESP.size
        rows_len = count * n
        if workload == "shuffle":
            if len(body) != off + rows_len:
                return "wrong"
            ident = self.identity
            for r in range(count):
                row = body[off + r * n : off + r * n + n]
                if bytes(sorted(row)) != ident:
                    return "wrong"
            return "ok"
        if len(body) != off + 8 * count + rows_len:
            return "wrong"
        echoed = struct.unpack_from(f"!{count}Q", body, off)
        if workload == "unrank":
            if echoed != indices:
                return "wrong"
        elif any(i >= self.nfact for i in echoed):
            return "wrong"
        if body[off + 8 * count :] != self.rows(echoed):
            return "wrong"
        return "ok"


class FrameSource:
    """The seeded request stream: workload picks and unrank indices."""

    def __init__(self, seed: int, n: int, width: int, mix) -> None:
        self._rng = random.Random(seed)
        self._nfact = math.factorial(n)
        self.n = n
        self.width = width
        self.mix = tuple(mix)
        self._next_id = 1

    def next(self):
        rng = self._rng
        workload = self.mix[0] if len(self.mix) == 1 else rng.choice(self.mix)
        rid = self._next_id
        self._next_id += 1
        count = self.width
        header = _REQ.pack(1, _TAGS[workload], self.n, 0, rid, count, 0)
        if workload == "unrank":
            indices = tuple(rng.randrange(self._nfact) for _ in range(count))
            body = header + struct.pack(f"!{count}Q", *indices)
        else:
            indices = None
            body = header
        return rid, workload, indices, count, _LEN.pack(len(body)) + body


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _frames(buf: bytearray):
    while len(buf) >= 4:
        (length,) = _LEN.unpack_from(buf)
        if len(buf) < 4 + length:
            return
        body = bytes(buf[4 : 4 + length])
        del buf[: 4 + length]
        yield body


def first_response(host: str, port: int, oracle: Oracle, source: FrameSource) -> str:
    """Send one frame on a fresh connection and verify its answer."""
    sock = _connect(host, port)
    try:
        rid, workload, indices, count, frame = source.next()
        sock.sendall(frame)
        buf = bytearray()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return "failed"
            buf += data
            for body in _frames(buf):
                return oracle.check(body, workload, indices, count)
    finally:
        sock.close()


def run_load(host, port, oracle, source, *, connections, depth, warmup_s, measure_s):
    """Drive the closed loop; every answered frame is verified.

    Frames sent during ``warmup_s`` are verified but not recorded.  A
    frame sent in the measured window counts as attempted and has a
    ``(send time, round trip)`` latency; a refusal or a frame still
    unanswered ``_TIMEOUT_S`` after the window counts as failed with an
    infinite round trip.  ``perms`` counts the permutations of frames
    answered inside the window, ``answers`` their ``(time, permutations)``.
    """
    socks = [_connect(host, port) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    inflight: list[dict] = []
    bufs: list[bytearray] = []
    for k, sock in enumerate(socks):
        sel.register(sock, selectors.EVENT_READ, k)
        inflight.append({})
        bufs.append(bytearray())

    def send(k: int, now: float) -> None:
        rid, workload, indices, count, frame = source.next()
        inflight[k][rid] = (now, workload, indices, count)
        socks[k].sendall(frame)

    clock = time.perf_counter
    t_meas = clock() + warmup_s
    t_stop = t_meas + measure_s
    for k in range(connections):
        for _ in range(depth):
            send(k, clock())
    latencies: list[float] = []
    perms = attempted = failed = wrong = 0
    answers: list[tuple] = []  # (time, permutations) of answers in the window
    window = host = None
    try:
        while any(inflight):
            now = clock()
            if window is None and now >= t_meas:
                window = HostWindow()
            if host is None and window is not None and now >= t_stop:
                host = window.close()
            if now > t_stop + _TIMEOUT_S:
                break
            for key, _ in sel.select(timeout=0.25):
                k = key.data
                data = socks[k].recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed a load connection")
                bufs[k] += data
                now = clock()
                for body in _frames(bufs[k]):
                    entry = inflight[k].pop(_RESP.unpack_from(body)[4], None)
                    if entry is None:  # an answer to no request of ours
                        wrong += 1
                        continue
                    t_send, workload, indices, count = entry
                    verdict = oracle.check(body, workload, indices, count)
                    measured = t_meas <= t_send < t_stop
                    attempted += measured
                    if verdict == "wrong":
                        wrong += 1
                    elif measured and verdict == "ok":
                        latencies.append((t_send, now - t_send))
                    elif measured:
                        failed += 1
                        latencies.append((t_send, math.inf))
                    if verdict == "ok" and t_meas <= now < t_stop:
                        perms += count
                        answers.append((now, count))
                    if now < t_stop:
                        send(k, now)
    finally:
        sel.close()
        for sock in socks:
            sock.close()
    for pending in inflight:  # unanswered past the timeout
        for t_send, *_ in pending.values():
            if t_meas <= t_send < t_stop:
                attempted += 1
                failed += 1
                latencies.append((t_send, math.inf))
    if host is None:
        host = (window or HostWindow()).close()
    return {
        "perms": perms,
        "seconds": measure_s,
        "answers": answers,
        "latencies": latencies,  # in send order
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "window": (t_meas, t_stop),
        "host": host,
    }
