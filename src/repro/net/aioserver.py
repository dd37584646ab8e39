"""The asyncio frame-server skeleton under ``repro serve`` and ``repro route``.

:class:`AsyncFrameServer` is what every ``DBAR``-speaking daemon needs
before it has an opinion about frames: a listening socket bound
**synchronously** (so ``server_address`` is valid on return and a bind
failure raises ``OSError`` from the constructor — CLI exit code 4), a
single-thread event loop with a blocking ``serve_forever()`` and a
threadsafe ``shutdown()``, tracking of every connection/request task so a
stop cancels them, a small worker executor for blocking work, and frame
read/write on asyncio streams.  The vault daemon
(:class:`~repro.net.server.VaultProtocolServer`) and the front-door router
(:class:`~repro.frontdoor.router.FrontDoorRouter`) subclass it and supply
the connection pump — what a frame *means* is theirs.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.net import messages as m
from repro.net.framing import FRAME_HEADER_SIZE, Frame, FrameError, decode_header


def _error_frame(request_id: int, error: str, message: str) -> Frame:
    return Frame(m.ERROR, request_id, m.encode_json({
        "error": error,
        "message": message,
    }))


class AsyncFrameServer:
    """Bind, lifecycle, task tracking and frame I/O for one event loop.

    The public surface matches ``socketserver``'s: ``serve_forever()``
    (blocking; run it in a thread), ``shutdown()``, ``server_close()``,
    ``server_address``.
    """

    def __init__(self, host: str, port: int, workers: int, worker_name: str) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(256)
        except OSError:
            sock.close()
            raise
        self._listen_sock = sock
        self.server_address = sock.getsockname()
        #: Blocking work (the vault pipeline, cluster inventory sweeps)
        #: stays off the loop thread.
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=worker_name
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aio_server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stop_requested = False
        self._stopped = threading.Event()
        #: Every live connection pump and request task (cancelled on stop).
        self._tasks: set = set()

    # -- addressing ---------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking call)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._stopped.clear()
        try:
            loop.run_until_complete(self._main())
        finally:
            self._loop = None
            with contextlib.suppress(Exception):
                loop.close()
            self._stopped.set()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            self._stop_event.set()
        server = await asyncio.start_server(
            self._handle_conn, sock=self._listen_sock
        )
        self._aio_server = server
        try:
            await self._stop_event.wait()
        finally:
            self._aio_server = None
            server.close()
            pending = [t for t in self._tasks if not t.done()]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            with contextlib.suppress(Exception):
                await server.wait_closed()
            # Abandon wedged executor work rather than hanging the exit; a
            # clean drain reaches here with nothing running.
            self._executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the event loop (threadsafe); waits for serve_forever to
        return, mirroring ``socketserver.BaseServer.shutdown``."""
        self._stop_requested = True
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._request_stop)
            self._stopped.wait(timeout=10.0)

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def server_close(self) -> None:
        with contextlib.suppress(OSError):
            if self._listen_sock.fileno() != -1:
                self._listen_sock.close()

    def _track(self, task: "asyncio.Future") -> "asyncio.Future":
        """Hold a reference to ``task`` until it finishes, so the loop's
        weak reference cannot drop it and a stop can cancel it."""
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _in_executor(self, fn: Callable, *args) -> "asyncio.Future":
        """Run ``fn`` on the worker executor, completing an asyncio future.

        Unlike ``loop.run_in_executor`` this tolerates the loop closing
        underneath a wedged job (forced shutdown): the completion callback
        is simply dropped instead of raising in the worker thread.
        """
        loop = self._loop
        aio_future = loop.create_future()
        cf = self._executor.submit(fn, *args)

        def _complete() -> None:
            if aio_future.cancelled():
                return
            exc = cf.exception()
            if exc is not None:
                aio_future.set_exception(exc)
            else:
                aio_future.set_result(cf.result())

        def _relay(_cf) -> None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_complete)

        cf.add_done_callback(_relay)
        return aio_future

    # -- frame I/O ----------------------------------------------------------------
    def _count_received(self, nbytes: int) -> None:
        """Byte-accounting hook (no-op unless a subclass counts traffic)."""

    def _count_sent(self, nbytes: int) -> None:
        """Byte-accounting hook (no-op unless a subclass counts traffic)."""

    async def _read_frame(self, reader: asyncio.StreamReader) -> Optional[Frame]:
        """The next frame, or ``None`` when the stream is closed, truncated
        or desynchronized (the caller drops the connection)."""
        try:
            header = await reader.readexactly(FRAME_HEADER_SIZE)
            self._count_received(len(header))
            msg_type, request_id, length = decode_header(header)
            payload = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError, OSError, FrameError):
            return None
        self._count_received(length)
        return Frame(msg_type, request_id, payload)

    async def _write_frame(
        self, writer: asyncio.StreamWriter, wlock: asyncio.Lock, frame: Frame
    ) -> bool:
        blob = frame.encode()
        try:
            async with wlock:
                writer.write(blob)
                await writer.drain()
        except (ConnectionError, OSError):
            return False
        self._count_sent(len(blob))
        return True

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One accepted connection's frame pump (the subclass's)."""
        raise NotImplementedError
