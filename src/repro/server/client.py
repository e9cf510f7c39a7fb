"""Blocking client for the standardization server (CLI + tests).

The client speaks the line-delimited JSON protocol over a unix socket
or TCP.  Two usage styles:

* request/response — :meth:`ServerClient.request` sends one message and
  waits for its matching response;
* pipelined — :meth:`ServerClient.submit` many requests first, then
  :meth:`ServerClient.collect` the responses by id.  Pipelining keeps
  the engine's queue fed, so it is the throughput mode.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from . import protocol

__all__ = ["ServerClient", "ServerError"]


class ServerError(Exception):
    """A non-retryable error response, raised by the convenience ops.

    ``kind`` and ``retryable`` mirror the protocol error object so
    callers can branch without re-parsing the message.
    """

    def __init__(self, kind: str, message: str, retryable: bool = False):
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable


class ServerClient:
    """One connection to a running standardization server."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 300.0,
    ):
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(socket_path)
        elif host is not None and port is not None:
            sock = socket.create_connection((host, port), timeout=timeout)
        else:
            raise ValueError("connect with socket_path or with host+port")
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._next_id = 0
        #: responses that arrived while waiting for a different id
        self._inbox: Dict[Any, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ wire
    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _read_response(self) -> Dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    # ------------------------------------------------------------- pipelining
    def submit(self, message: Dict[str, Any]) -> Any:
        """Send one request without waiting; returns its id."""
        message = dict(message)
        if "id" not in message:
            message["id"] = self._allocate_id()
        self._sock.sendall(protocol.encode(message))
        return message["id"]

    def collect(self, request_id: Any) -> Dict[str, Any]:
        """The response for *request_id* (reads until it arrives).

        The server answers a line it cannot read with an id-less error and
        may then close the connection; if it closes before *request_id*'s
        response arrives, that id-less error is returned in its place.
        """
        while request_id not in self._inbox:
            try:
                response = self._read_response()
            except ConnectionError:
                if None in self._inbox:
                    return self._inbox.pop(None)
                raise
            self._inbox[response.get("id")] = response
        return self._inbox.pop(request_id)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and wait for its response."""
        return self.collect(self.submit(message))

    # ------------------------------------------------------------ convenience
    def _job(
        self,
        op: str,
        params: Dict[str, Any],
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": op, "params": params}
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        response = self.request(message)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServerError(
                error.get("kind", "internal"),
                error.get("message", "server error"),
                bool(error.get("retryable")),
            )
        return response["result"]

    def standardize(self, **params) -> Dict[str, Any]:
        return self._job("standardize", params, params.pop("deadline_s", None))

    def score(self, **params) -> Dict[str, Any]:
        return self._job("score", params, params.pop("deadline_s", None))

    def explain(self, **params) -> Dict[str, Any]:
        return self._job("explain", params, params.pop("deadline_s", None))

    def detect_leakage(self, **params) -> Dict[str, Any]:
        return self._job("detect_leakage", params, params.pop("deadline_s", None))

    def ping(self) -> bool:
        response = self.request({"op": "ping"})
        return bool(response.get("ok"))

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        return response["result"]

    def shutdown(self) -> bool:
        """Ask the server to drain gracefully (acknowledged before it
        starts, so the response always arrives)."""
        response = self.request({"op": "shutdown"})
        return bool(response.get("ok"))

    def submit_jobs(self, messages: List[Dict[str, Any]]) -> List[Any]:
        """Pipeline a batch of requests; returns their ids in order."""
        return [self.submit(message) for message in messages]

    def collect_jobs(self, ids: List[Any]) -> List[Dict[str, Any]]:
        """The full response envelopes for *ids*, in the same order."""
        return [self.collect(request_id) for request_id in ids]
