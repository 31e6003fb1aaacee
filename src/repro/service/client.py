"""A minimal JSON-lines client for the witness service.

Used by ``repro query``, the CI smoke checks and the service benchmark.
Deliberately tiny: open a TCP connection, write request lines, read
response lines until every id is answered.
"""

from __future__ import annotations

import json
import socket
from types import TracebackType
from typing import Any, Iterator

from repro.errors import ReproError


class ServiceClientError(ReproError):
    """The server hung up or answered garbage."""


class ServiceClient:
    """One connection to a ``repro serve --port`` server."""

    sock: socket.socket
    last_cursor: Any
    _buffer: bytes
    _next_id: int
    _stream_lines: dict[str, list[dict[str, Any]]]

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 60.0
    ) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""
        self._next_id = 0
        #: Cursor of the last enumerate chunk received (resume support).
        self.last_cursor = None
        #: Live stream id → lines read on its behalf by *other* calls.
        #: Interleaving a paused enumerate() generator with send() would
        #: otherwise drop the stream's in-flight chunks on the floor.
        self._stream_lines = {}

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _write(self, requests: list[dict[str, Any]]) -> None:
        self.sock.sendall(
            b"".join(
                json.dumps(request, separators=(",", ":"), ensure_ascii=False).encode()
                + b"\n"
                for request in requests
            )
        )

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ServiceClientError("server closed the connection")
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def send(self, requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Send requests (ids filled in when missing) and collect all
        responses, returned in request order."""
        prepared: list[dict[str, Any]] = []
        for request in requests:
            request = dict(request)
            if "id" not in request:
                request["id"] = f"c{self._next_id}"
                self._next_id += 1
            prepared.append(request)
        self._write(prepared)
        pending: dict[str, list[dict[str, Any]]] = {}
        order = [request["id"] for request in prepared]
        remaining = {request_id: order.count(request_id) for request_id in order}
        while sum(remaining.values()) > 0:
            response = json.loads(self._read_line())
            rid = response.get("id")
            if rid in remaining and remaining[rid] > 0:
                remaining[rid] -= 1
                pending.setdefault(rid, []).append(response)
            elif rid in self._stream_lines:
                # A live (paused) enumerate generator's chunk: keep it
                # for the generator instead of dropping it.
                self._stream_lines[rid].append(response)
            # Anything else (stale cancel acks, cancelled-stream tails)
            # is dropped.
        return [pending[rid].pop(0) for rid in order]

    def request(
        self, op: str, spec: dict[str, Any] | None = None, **fields: Any
    ) -> dict[str, Any]:
        """One request/response round-trip; returns the response dict."""
        request: dict[str, Any] = {"op": op}
        if spec is not None:
            request["spec"] = spec
        request.update(fields)
        return self.send([request])[0]

    def result(self, op: str, spec: dict[str, Any] | None = None, **fields: Any) -> Any:
        """Like :meth:`request` but unwraps ``result`` (raises on error)."""
        response = self.request(op, spec, **fields)
        if not response.get("ok"):
            raise ServiceClientError(
                f"{response.get('error_type', 'error')}: {response.get('error')}"
            )
        return response["result"]

    def enumerate(
        self,
        spec: dict[str, Any],
        limit: int | None = None,
        chunk_size: int | None = None,
        cursor: Any = None,
    ) -> Iterator[Any]:
        """Stream witnesses of ``spec`` from the server, one at a time.

        Sends a single ``{"op": "enumerate", "stream": true}`` request;
        the async server answers with chunked response lines and this
        generator yields their items as the chunks arrive — the first
        witnesses are available long before (and regardless of whether)
        the enumeration finishes, and neither side ever materializes
        the witness set.  ``cursor`` resumes a previous stream (each
        chunk's cursor is remembered on :attr:`last_cursor`, so a
        dropped connection can pick up where it left off); ``limit``
        bounds the total and ``chunk_size`` the per-chunk batch.

        Abandoning the generator sends a best-effort ``cancel`` op so
        the server stops paging (its ack and any in-flight chunk lines
        are skipped by id on later calls); closing the client cancels
        the stream server-side too.
        """
        request: dict[str, Any] = {"op": "enumerate", "spec": spec, "stream": True}
        request["id"] = f"c{self._next_id}"
        self._next_id += 1
        if limit is not None:
            request["limit"] = limit
        if chunk_size is not None:
            request["chunk_size"] = chunk_size
        if cursor is not None:
            request["cursor"] = cursor
        self.last_cursor = cursor
        self._write([request])
        done = False
        buffered = self._stream_lines.setdefault(request["id"], [])
        try:
            while True:
                if buffered:
                    response = buffered.pop(0)
                else:
                    response = json.loads(self._read_line())
                rid = response.get("id")
                if rid != request["id"]:
                    if rid in self._stream_lines:
                        self._stream_lines[rid].append(response)
                    continue  # a stale cancel ack or cancelled-stream tail
                if not response.get("ok"):
                    done = response.get("done", True)
                    raise ServiceClientError(
                        f"{response.get('error_type', 'error')}: {response.get('error')}"
                    )
                # Recorded before yielding: resuming from last_cursor
                # continues after the last chunk *received* (a consumer
                # abandoning mid-chunk skips that chunk's remainder).
                self.last_cursor = response.get("cursor")
                yield from response.get("chunk") or ()
                if response.get("done"):
                    done = True
                    return
        finally:
            self._stream_lines.pop(request["id"], None)
            if not done:
                # Abandoned mid-stream: stop the server's paging.  The
                # ack (and any chunk already in flight) carries an id no
                # later call waits for, so it is skipped transparently.
                cancel = {"op": "cancel", "target": request["id"], "id": f"c{self._next_id}"}
                self._next_id += 1
                try:
                    self._write([cancel])
                except OSError:  # pragma: no cover - connection already gone
                    pass

    def shutdown(self) -> None:
        """Ask the server to stop (best-effort)."""
        try:
            self.request("shutdown")
        except (OSError, ServiceClientError):  # pragma: no cover - racing exit
            pass


__all__ = ["ServiceClient", "ServiceClientError"]
