"""Asyncio TCP front end for the permutation service.

One :class:`NetServer` owns a background thread running an asyncio event
loop; each connection is one coroutine.  The life of a frame:

1. bytes arrive → :class:`~repro.serve.net.protocol.FrameDecoder`
   reassembles complete frames (partial reads are its problem, not
   ours);
2. each frame decodes to a :class:`~repro.serve.net.protocol.WireRequest`
   and is submitted as one *wide* service entry
   (:meth:`~repro.serve.service.PermutationService.submit_wide`) — the
   whole frame occupies ``count`` sweep lanes behind a single future,
   which is what amortises the per-frame front-end cost across lanes;
3. admission failures (shed / degraded / shutdown / invalid) are
   answered immediately with their typed status — the ``OVERLOADED``
   status is the wire form of the service's admission control, so
   clients back off instead of timing out;
4. an admitted future gets a done-callback that trampolines onto the
   event loop (``call_soon_threadsafe``) and writes the ``OK`` frame
   from the resolving batch's result array.  No thread ever parks
   waiting on a future, so one front end sustains thousands of
   in-flight frames with a handful of threads.

Framing violations (:class:`~repro.errors.ProtocolError`) are answered
with a best-effort typed ``ERROR`` frame and the connection is closed —
byte-level corruption means the stream is no longer frame-aligned.
Semantic violations (zero count, bad ``n``, out-of-range index) answer
``INVALID`` and keep the connection open.

The server never touches engine code: it is a pure protocol adapter
over the service seams, so it works identically over the in-process
:class:`~repro.serve.service.PermutationService`, the supervised tier,
and the multi-process :class:`~repro.serve.pool.PooledService`.
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import (
    InvalidRequestError,
    ProtocolError,
    ServiceDegradedError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.obs import metrics as _metrics
from repro.serve.net import protocol as wire

__all__ = ["NetServer"]

_CONNECTIONS = _metrics.REGISTRY.counter(
    "repro_serve_net_connections_total", "socket connections accepted"
)
_FRAMES = _metrics.REGISTRY.counter(
    "repro_serve_net_frames_total", "wire frames by direction and status",
    ("direction", "status"),
)
_PROTOCOL_ERRORS = _metrics.REGISTRY.counter(
    "repro_serve_net_protocol_errors_total",
    "connections dropped for wire-protocol violations",
)

_READ_CHUNK = 1 << 16


class NetServer:
    """A ``repro-serve/1`` TCP listener over one permutation service.

    ``start()`` spins the event loop up on a daemon thread and blocks
    until the socket is bound (``address`` then holds the actual
    ``(host, port)``, with the kernel-assigned port for ``port=0``).
    ``close()`` stops accepting, drops the loop and joins the thread;
    in-flight service futures settle against closed transports
    harmlessly.  Context-manager use does both.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.connections = 0
        self.frames_in = 0
        self.frames_out = 0
        self.protocol_errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "NetServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="serve-net", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def close(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already shut down
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # event-loop side

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop crash guard
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()

    async def _handle(self, reader: asyncio.StreamReader, writer) -> None:
        self.connections += 1
        if _metrics.REGISTRY.enabled:
            _CONNECTIONS.inc()
        decoder = wire.FrameDecoder(wire.MAX_REQUEST_FRAME)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    self._on_protocol_error(writer, exc)
                    return
                for frame in frames:
                    try:
                        request = wire.decode_request(frame)
                    except ProtocolError as exc:
                        self._on_protocol_error(writer, exc)
                        return
                    self.frames_in += 1
                    self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            return
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _on_protocol_error(self, writer, exc: ProtocolError) -> None:
        """Best-effort typed ERROR frame, then drop the connection."""
        self.protocol_errors += 1
        if _metrics.REGISTRY.enabled:
            _PROTOCOL_ERRORS.inc()
        self._write(
            writer,
            wire.encode_response(
                wire.STATUS_ERROR,
                workload="unrank",
                n=0,
                count=0,
                request_id=0,
                message=f"{type(exc).__name__}: {exc}",
            ),
        )

    # ------------------------------------------------------------------ #
    # request dispatch

    def _dispatch(self, request: wire.WireRequest, writer) -> None:
        """Submit one decoded frame; answer admission failures inline."""
        try:
            future = self.service.submit_wide(
                request.workload,
                request.n,
                request.count,
                request.indices,
            )
        except InvalidRequestError as exc:
            self._respond_error(writer, request, wire.STATUS_INVALID, exc)
            return
        except ServiceOverloadedError as exc:
            self._respond_error(writer, request, wire.STATUS_OVERLOADED, exc)
            return
        except ServiceDegradedError as exc:
            self._respond_error(writer, request, wire.STATUS_DEGRADED, exc)
            return
        except ServiceShutdownError as exc:
            self._respond_error(writer, request, wire.STATUS_SHUTDOWN, exc)
            return
        loop = self._loop

        def _on_done(fut, request=request, writer=writer) -> None:
            # runs on the resolving thread under the service condition:
            # hand straight off to the event loop, do no work here
            try:
                loop.call_soon_threadsafe(self._complete, request, writer, fut)
            except RuntimeError:
                pass  # loop already closed; connection is gone anyway

        future.add_done_callback(_on_done)

    def _complete(self, request: wire.WireRequest, writer, future) -> None:
        """Future resolved: encode and write the response (loop thread)."""
        try:
            resp = future.result(timeout=0)
        except ServiceOverloadedError as exc:
            self._respond_error(writer, request, wire.STATUS_OVERLOADED, exc)
            return
        except ServiceDegradedError as exc:
            self._respond_error(writer, request, wire.STATUS_DEGRADED, exc)
            return
        except ServiceShutdownError as exc:
            self._respond_error(writer, request, wire.STATUS_SHUTDOWN, exc)
            return
        except Exception as exc:
            self._respond_error(writer, request, wire.STATUS_ERROR, exc)
            return
        self._write(
            writer,
            wire.encode_response(
                wire.STATUS_OK,
                workload=resp.workload,
                n=resp.n,
                count=resp.count,
                request_id=request.request_id,
                lanes=resp.lanes,
                mode=resp.mode,
                indices=resp.indices,
                permutations=resp.permutations,
            ),
        )
        if _metrics.REGISTRY.enabled:
            _FRAMES.inc(direction="out", status="ok")

    def _respond_error(self, writer, request: wire.WireRequest, status: int,
                       exc: BaseException) -> None:
        self._write(
            writer,
            wire.encode_response(
                status,
                workload=request.workload,
                n=request.n,
                count=0,
                request_id=request.request_id,
                message=f"{type(exc).__name__}: {exc}",
            ),
        )
        if _metrics.REGISTRY.enabled:
            _FRAMES.inc(direction="out", status=wire.STATUS_NAMES[status])

    def _write(self, writer, payload: bytes) -> None:
        """Write one whole frame; a closed transport swallows it."""
        try:
            if writer.is_closing():
                return
            writer.write(payload)
            self.frames_out += 1
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "address": self.address,
            "connections": self.connections,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "protocol_errors": self.protocol_errors,
        }
