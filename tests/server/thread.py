"""A standardization server on a background thread, for tests and benchmarks."""

from __future__ import annotations

import asyncio
import contextlib
import threading
from dataclasses import replace
from typing import Optional

from repro.server import ServerConfig, StandardizationServer


class ServerThread:
    """A server on a dedicated thread + event loop (tests, benchmarks).

    Usage::

        with ServerThread(ServerConfig(socket_path=...)) as handle:
            client = ServerClient(socket_path=...)
            ...

    ``stop()`` triggers the same graceful drain as SIGTERM and joins the
    thread; exiting the context manager does the same.
    """

    def __init__(self, config: ServerConfig):
        # not the main thread; a copy, so the caller's config is untouched
        self.config = replace(config, install_signal_handlers=False)
        self.server: Optional[StandardizationServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        server = StandardizationServer(self.config)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - surface via start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.server = server
        self._ready.set()
        try:
            loop.run_until_complete(server.wait_closed())
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within its timeout")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self.server is not None and self.loop is not None:
            with contextlib.suppress(Exception):
                self.loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain within its timeout")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
