"""The JSON-lines witness service: one asyncio core, TCP and stdio front ends.

One request per line in, one response per line out (see
:mod:`repro.service.protocol` for the shapes).  The server's job is
**batching while busy** (group commit): a request that reaches an idle
server is executed at once; requests that arrive while a batch executes
queue up and are handed to the :class:`~repro.service.engine.Engine`
together as the next batch — which groups by spec and coalesces
same-spec sample requests into a single ``sample_batch`` kernel pass.
No request ever waits on a timer, and under concurrent load N
same-instance requests costing N kernel walks become one walk, without
changing any response byte (the substream contract).

Both front ends are connections of one :class:`AsyncWitnessServer`, so
they share its read loop, its dispatcher, its send site and every
semantic below:

* :func:`serve_tcp` — ``repro serve --port N``: any number of concurrent
  connections feed one batching queue, so same-spec sample bursts
  coalesce **across connections**.
* :func:`serve_stdio` — ``repro serve`` with no port, the subprocess /
  pipeline embedding: stdin and stdout are one connection, and EOF on
  stdin acts as ``shutdown``.

Concurrency semantics:

* **Per-connection isolation** — every connection has its own reader
  and its own write path; one client's malformed input, slow reading or
  disconnect never affects another's responses.
* **Bounded request size** — a request line longer than ``max_line``
  bytes is answered with one JSON error line and discarded up to its
  newline, however many reads it spans; the connection keeps serving.
  The reader never buffers an endless line.
* **Backpressure** — reads stop while a connection's earlier requests
  are still being enqueued (the shared queue is bounded), and writes
  await the drain of the socket (or of stdout), so a client that stops
  reading pauses its own stream instead of growing server memory.  A
  connection whose write stalls longer than ``write_timeout`` is
  dropped; dropping the stdio connection stops the server.
* **Per-request deadlines** — ``request_timeout`` (overridable per
  request via ``"timeout_ms"``) bounds how long a request may wait for
  engine capacity; an expired request is answered with a
  ``TimeoutError`` response instead of executing.  Requests from a
  connection that has gone away are cancelled (dropped before
  execution).
* **Graceful drain** — ``shutdown`` stops accepting new connections,
  answers everything already queued, flushes every live connection and
  only then exits.

Streamed enumeration: a client request ``{"op": "enumerate", "stream":
true, ...}`` is answered with a *sequence* of chunked response lines
``{"id": ..., "ok": true, "chunk": [...], "cursor": ..., "done":
false}`` ending with a ``"done": true`` line.  Each chunk is one paged
engine round (the affinity worker resumes from the cursor in O(n)), so
other clients' batches interleave with a long-running stream, the
witness set is never materialized, and the per-chunk ``cursor`` lets a
disconnected client resume exactly where it stopped.  ``cancel`` stops
a stream by its request id.

Control ops: ``ping`` answers ``"pong"``; ``stats`` reports server
counters, the aggregated engine summary, and the pool-wide merged
metrics snapshot (request the classic per-worker entry list with
``"per_worker": true``); ``shutdown`` acknowledges, drains, and stops
the server.  Malformed lines get an ``ok: false`` response rather than
killing the connection.

Observability (see :mod:`repro.obs`): every front-door request is
counted and timed (``repro_request_seconds``), server-side stages
(parse, and the coalesce wait — time spent queued behind a busy
batch) join the per-stage histogram and — for requests
sent with ``"trace": true`` — the response's ``timing`` breakdown; a
plain HTTP ``GET`` on the TCP port answers with the Prometheus text
exposition of the pool-wide registry; requests slower than the
slow-query threshold are appended to a JSON-lines slow-query log
(``--slow-query-log`` / ``$REPRO_SLOW_QUERY_LOG``).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Coroutine

from repro import obs
from repro.obs import names as metric_names
from repro.service.engine import Engine
from repro.service.protocol import _op_label

#: Default bound on one request line (bytes); longer lines are answered
#: with a one-line JSON error instead of being buffered without bound.
DEFAULT_MAX_LINE = 8 * 1024 * 1024

#: Default cap on simultaneously served connections.
DEFAULT_MAX_CONNECTIONS = 1024

#: Default budget for one response write before the client is considered
#: gone (seconds).
DEFAULT_WRITE_TIMEOUT = 5.0

#: Bound on requests waiting for engine capacity; enqueueing past it
#: blocks the connection's reader (backpressure), never server memory.
_QUEUE_LIMIT = 4096

#: Cap on concurrent enumeration streams per connection.
MAX_STREAMS_PER_CONNECTION = 8


def _write_stderr(message: str) -> None:
    """Executor target for diagnostics emitted from the event loop."""
    sys.stderr.write(message)
    sys.stderr.flush()


def _swallow_exception(future: asyncio.Future[Any]) -> None:
    """Done-callback for fire-and-forget futures: retrieve the exception
    so the event loop never logs "exception was never retrieved"."""
    if not future.cancelled():
        future.exception()


def _parse_line(line: bytes) -> dict[str, Any]:
    request = json.loads(line.decode("utf-8"))
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def _error_response(request_id: object, error: Exception) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": str(error),
        "error_type": type(error).__name__,
    }


def encode_response(response: dict[str, Any]) -> bytes:
    return json.dumps(response, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    ) + b"\n"


def _encode_reply(response: dict[str, Any]) -> bytes:
    """The one encoding step of every send site.

    A response that cannot be encoded (a count past the interpreter's
    int-to-str digit limit) becomes a one-line error reply carrying the
    request id, so each request still gets exactly one reply.  The limit
    itself stays: it guards parsing of untrusted request lines against
    quadratic int conversion.
    """
    try:
        return encode_response(response)
    except ValueError as error:
        return encode_response(_error_response(response.get("id"), error))


async def _discard_line(reader: asyncio.StreamReader, scanned: int) -> None:
    """Drop an oversized line through its newline, holding at most the
    reader's limit of it at once; a read error surfaces on the next read."""
    with contextlib.suppress(asyncio.IncompleteReadError, OSError):
        while True:
            await reader.readexactly(scanned)
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as overrun:
                scanned = overrun.consumed


def _release(pending: _Pending) -> None:
    """Resolve the internal waiter of a request that will never execute
    with None, so the waiting stream task can exit."""
    if pending.future is not None and not pending.future.done():
        pending.future.set_result(None)


def _aggregate_server_stats(engine: Engine) -> dict[str, Any]:
    """The enriched ``stats`` payload: engine summary plus merged metrics.

    The metrics snapshot merges this process's registry (server counters,
    request/stage histograms) with every worker's snapshot, so one scrape
    sees the whole pool.  With ``workers=0`` the engine's one entry
    already is this process's registry, so it is merged once, not twice.
    The per-worker entry list, computed for the summary anyway, rides
    along under ``"workers"``; the server drops it unless the request
    asked for ``per_worker``.
    """
    entries = engine.stats(per_worker=True)
    assert isinstance(entries, list)
    summary = Engine.aggregate_stats(entries)
    snapshots = [summary.pop("metrics")]
    if engine.workers:
        snapshots.append(obs.metrics().snapshot())
    return {
        "engine": summary,
        "metrics": obs.merge_snapshots(snapshots),
        "workers": entries,
    }


def _feed_stdin(
    stdin: Any,
    reader: asyncio.StreamReader,
    loop: asyncio.AbstractEventLoop,
    unpaused: threading.Event,
) -> None:
    """Reader-thread body: feed stdin to the loop in chunks, then EOF
    (however the loop ends, so the server never waits on a dead reader).

    ``read1`` on the binary buffer returns as soon as a pipe or tty has
    data; text-only readers such as ``StringIO`` are encoded.
    """
    chunk: bytes | str = b"-"
    with contextlib.suppress(RuntimeError):  # loop closed: server stopped
        try:
            source = getattr(stdin, "buffer", stdin)
            read = getattr(source, "read1", source.read)
            while chunk:
                unpaused.wait()
                try:
                    chunk = read(1 << 16)
                except (OSError, ValueError):  # a closed stdin acts as EOF
                    chunk = b""
                if isinstance(chunk, str):
                    chunk = chunk.encode("utf-8")
                loop.call_soon_threadsafe(reader.feed_data, chunk)
        finally:
            loop.call_soon_threadsafe(reader.feed_eof)


def _write_out(stdout: Any, payload: bytes) -> None:
    text = isinstance(stdout, io.TextIOBase)
    stdout.write(payload.decode("utf-8") if text else payload)
    stdout.flush()


class _StdioTransport(asyncio.ReadTransport):
    """Stdin and stdout as one connection: the transport of its reader
    and, through the calls :class:`_Connection` makes, its writer.

    A daemon thread reads stdin off the event loop, so any stdin works,
    a regular file (which epoll cannot watch) included; the reader's
    flow control pauses it past twice ``max_line`` unread bytes.  It is
    a daemon because a read blocked on a still-open stdin must not keep
    the process alive after ``shutdown``.  Stdout writes and flushes run
    on the default executor.  ``on_close`` runs when the connection
    closes.
    """

    def __init__(
        self,
        stdin: Any,
        stdout: Any,
        reader: asyncio.StreamReader,
        on_close: Callable[[], None],
    ) -> None:
        super().__init__()
        self._stdout = stdout  # owned-by: event-loop
        self._on_close = on_close  # owned-by: event-loop
        self._pending: list[bytes] = []  # owned-by: event-loop
        # A thread-safe Event; the reader thread gets it as an argument.
        self._unpaused = threading.Event()  # owned-by: event-loop
        self._unpaused.set()
        reader.set_transport(self)
        args = (stdin, reader, asyncio.get_running_loop(), self._unpaused)
        threading.Thread(target=_feed_stdin, args=args, daemon=True).start()

    def pause_reading(self) -> None:
        self._unpaused.clear()

    def resume_reading(self) -> None:
        self._unpaused.set()

    def write(self, payload: bytes) -> None:
        self._pending.append(payload)

    async def drain(self) -> None:
        payload = b"".join(self._pending)
        self._pending.clear()
        await asyncio.get_running_loop().run_in_executor(
            None, _write_out, self._stdout, payload
        )

    def close(self) -> None:
        self._on_close()  # stdin and stdout belong to the caller

    async def wait_closed(self) -> None:
        return None


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class _Pending:
    """One queued request awaiting engine capacity."""

    request: dict[str, Any]
    conn: _Connection
    deadline: float | None
    #: When set, the pump resolves this future instead of writing to
    #: the connection (internal rounds, e.g. one page of a stream).
    future: asyncio.Future[dict[str, Any] | None] | None = None
    #: loop.time() at enqueue — the front-door timestamp every
    #: latency/wait stage is measured against.
    received: float = 0.0
    #: Wall time spent decoding this request's line.
    parse_seconds: float = 0.0
    #: loop.time() when the batch containing this request started
    #: executing (None for requests answered before execution).
    exec_start: float | None = None


@dataclasses.dataclass(slots=True, eq=False)
class _Connection:
    """One client (a TCP socket, or stdin/stdout) and its write state."""

    writer: asyncio.StreamWriter | _StdioTransport
    closed: bool = False
    write_lock: asyncio.Lock = dataclasses.field(default_factory=asyncio.Lock)
    #: Live enumeration streams: unique key → (request id, task).
    streams: dict[int, tuple[Any, asyncio.Task[None]]] = dataclasses.field(
        default_factory=dict
    )

    async def write(self, payload: bytes) -> None:
        async with self.write_lock:
            self.writer.write(payload)
            await self.writer.drain()


class AsyncWitnessServer:
    """The serving core: many connections, one batching pump.

    :meth:`run` serves TCP connections, :meth:`run_stdio` serves stdin
    and stdout as one connection; both read every connection with
    :meth:`_serve_lines`.  Every connection's requests land in one
    bounded queue; a single pump task awaits the first arrival, takes
    everything else already queued (batch while busy: what arrived
    during the previous batch), executes the whole batch in one engine
    call on the server's one engine thread, and fans the responses back
    out.  An idle server answers a lone request at once; under load,
    batches grow by themselves.  The engine is only ever driven by the
    pump, so multiprocess result-queue consumption stays single-consumer
    while any number of clients talk concurrently.
    """

    def __init__(
        self,
        engine: Engine,
        max_line: int = DEFAULT_MAX_LINE,
        request_timeout: float | None = None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        write_timeout: float = DEFAULT_WRITE_TIMEOUT,
        slow_query_log: obs.SlowQueryLog | None = None,
    ) -> None:
        self.engine = engine
        #: Every engine call runs on this one thread: the pump is the
        #: engine's only driver, and back-to-back batches on the default
        #: pool would start extra threads, each with its own malloc arena.
        self._engine_thread = ThreadPoolExecutor(  # owned-by: event-loop
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self.max_line = max_line
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.write_timeout = write_timeout
        self.slow_query_log = (
            slow_query_log if slow_query_log is not None else obs.slow_log_from_env()
        )
        self.served = 0  # owned-by: event-loop
        self.batches = 0  # owned-by: event-loop
        self.shutting_down = False  # owned-by: event-loop
        self.connections: set[_Connection] = set()  # owned-by: event-loop
        # Both bind to the running loop on first use.
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(  # owned-by: event-loop
            maxsize=_QUEUE_LIMIT
        )
        self._stop = asyncio.Event()  # owned-by: event-loop
        self._stream_keys = itertools.count()  # owned-by: event-loop
        #: In-flight response writes, detached from the pump so a slow
        #: reader only ever stalls its own connection.
        self._send_tasks: set[asyncio.Task[None]] = set()  # owned-by: event-loop
        # Metric handles are bound per instance (not at import) so a
        # registry reset in tests/benchmarks never strands live servers
        # on stale objects.
        registry = obs.metrics()
        self._m_malformed = registry.counter(metric_names.SERVER_MALFORMED)
        self._m_connections = registry.counter(metric_names.SERVER_CONNECTIONS)
        self._m_dropped = registry.counter(metric_names.SERVER_DROPPED_CONNECTIONS)
        self._m_stalls = registry.counter(metric_names.SERVER_BACKPRESSURE_STALLS)
        self._m_active_connections = registry.gauge(
            metric_names.SERVER_ACTIVE_CONNECTIONS
        )
        self._m_active_streams = registry.gauge(metric_names.SERVER_ACTIVE_STREAMS)
        self._m_queue_depth = registry.gauge(metric_names.SERVER_QUEUE_DEPTH)
        self._m_batch_size = registry.histogram(metric_names.SERVER_BATCH_SIZE)
        self._m_request_seconds = registry.histogram(metric_names.REQUEST_SECONDS)
        self._m_slow_queries = registry.counter(metric_names.SLOW_QUERIES)
        self._m_stage_parse = registry.histogram(
            metric_names.STAGE_SECONDS, labels={"stage": metric_names.STAGE_PARSE}
        )
        self._m_stage_coalesce = registry.histogram(
            metric_names.STAGE_SECONDS,
            labels={"stage": metric_names.STAGE_COALESCE_WAIT},
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(
        self,
        host: str,
        port: int,
        ready_callback: Callable[[Any], None] | None = None,
    ) -> int:
        """Serve TCP connections on ``host:port`` until ``shutdown``."""
        listener = await asyncio.start_server(
            self._handle_connection, host, port, limit=self.max_line
        )
        if ready_callback is not None:
            ready_callback(listener.sockets[0].getsockname())
        try:
            # The listener closes as the drain starts; Server.wait_closed
            # is *not* awaited before the drain because since 3.12 it
            # waits for every connection handler — and idle clients may
            # hold connections open.
            await self._serve_until_stopped(listener.close)
        finally:
            with contextlib.suppress(asyncio.TimeoutError):  # a stuck handler
                await asyncio.wait_for(listener.wait_closed(), timeout=1.0)
        return 0

    async def run_stdio(self, stdin: Any, stdout: Any) -> int:
        """Serve ``stdin``/``stdout`` as one connection until ``shutdown``
        or EOF on stdin."""
        reader = asyncio.StreamReader(limit=self.max_line)
        # Dropping the one connection (stdout gone or stalled) ends the
        # server: no client is left to serve.
        conn = _Connection(
            _StdioTransport(stdin, stdout, reader, self._begin_shutdown)
        )
        self._admit(conn)
        session = asyncio.get_running_loop().create_task(
            self._stdio_session(reader, conn)
        )
        session.add_done_callback(lambda _: self._begin_shutdown())  # however it ends
        try:
            await self._serve_until_stopped(lambda: None)
        finally:
            # Normally finished; still reading only if stdin stays open
            # after the connection was dropped.
            session.cancel()
        return 0

    async def _stdio_session(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        await self._serve_lines(reader, conn)
        # EOF acts as shutdown, after the streams already read have sent
        # their last chunk; the drain answers everything else.
        streams = [task for _, task in conn.streams.values()]
        await asyncio.gather(*streams, return_exceptions=True)

    async def _serve_until_stopped(self, stop_accepting: Callable[[], None]) -> None:
        """Run the pump until ``shutdown``, then drain and close."""
        loop = asyncio.get_running_loop()
        pump = loop.create_task(self._pump())
        try:
            await self._stop.wait()
            # Graceful drain: no new connections, answer what's queued,
            # flush what's written, then leave.
            stop_accepting()
            await self._queue.join()
            if self._send_tasks:
                # Responses are written by detached tasks: flush them
                # (bounded — a stalled write gives up at write_timeout).
                await asyncio.wait(
                    list(self._send_tasks), timeout=self.write_timeout + 1.0
                )
        finally:
            pump.cancel()
            # Unblock any stream task still waiting on an unprocessed
            # page round, then drop the connections (which ends their
            # handler tasks and lets the listener fully close).
            while not self._queue.empty():
                _release(self._queue.get_nowait())
                self._queue.task_done()
            for conn in list(self.connections):
                await self._close_connection(conn)
            # Idle after a graceful drain; after an abort this waits out
            # the in-flight batch, off the event loop.
            await loop.run_in_executor(None, self._engine_thread.shutdown)

    def _begin_shutdown(self) -> None:
        self.shutting_down = True
        self._stop.set()

    def _admit(self, conn: _Connection) -> None:
        self.connections.add(conn)
        self._m_connections.inc()
        self._m_active_connections.set(len(self.connections))

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.connections.discard(conn)
        self._m_active_connections.set(len(self.connections))
        for _, task in list(conn.streams.values()):
            task.cancel()
        conn.streams.clear()
        with contextlib.suppress(OSError, asyncio.TimeoutError):  # a racing close
            conn.writer.close()
            await asyncio.wait_for(conn.writer.wait_closed(), timeout=1.0)

    # ------------------------------------------------------------------
    # The one request read loop
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        if self.shutting_down or len(self.connections) >= self.max_connections:
            reason = (
                "server is shutting down"
                if self.shutting_down
                else f"too many connections (max {self.max_connections})"
            )
            await self._send(conn, _error_response(None, ConnectionError(reason)))
            self._m_dropped.inc()
            await self._close_connection(conn)
            return
        self._admit(conn)
        try:
            await self._serve_lines(reader, conn)
        finally:
            # Marks the connection closed, which cancels its queued
            # requests, and stops its stream tasks.
            await self._close_connection(conn)

    async def _serve_lines(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        """Frame, parse and dispatch one connection's request lines
        until EOF, ``shutdown`` or the connection closing."""
        saw_request = False
        while not conn.closed and not self.shutting_down:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                line = eof.partial  # b"" at EOF, else an unterminated last line
            except asyncio.LimitOverrunError as overrun:
                # One error answers the whole oversized line, which is
                # then discarded through its newline: framing survives.
                self._m_malformed.inc()
                error = ValueError(f"request line too long (max {self.max_line} bytes)")
                await self._send(conn, _error_response(None, error))
                await _discard_line(reader, overrun.consumed)
                continue
            except (OSError, ConnectionError):
                break
            if not line:
                break  # EOF
            if not line.strip():
                continue
            if not saw_request and line.startswith(b"GET "):
                # A Prometheus scrape (plain HTTP GET) on the same
                # port: answer the text exposition and close — no
                # JSON framing was established yet, so nothing on
                # this connection is lost.
                await self._serve_metrics_http(reader, conn)
                break
            saw_request = True
            parse_started = time.perf_counter()
            try:
                request = _parse_line(line)
            except ValueError as error:
                self._m_malformed.inc()
                await self._send(conn, _error_response(None, error))
                continue
            parse_seconds = time.perf_counter() - parse_started
            op = request.get("op")
            obs.metrics().counter(
                metric_names.SERVER_REQUESTS, labels={"op": _op_label(op)}
            ).inc()
            if op == "shutdown":
                await self._send(
                    conn, {"id": request.get("id"), "ok": True, "result": "bye"}
                )
                self._begin_shutdown()
                break
            if op == "cancel":
                await self._cancel_stream(request, conn)
                continue
            if op == "enumerate" and request.get("stream"):
                await self._start_stream(request, conn)
                continue
            await self._enqueue(request, conn, parse_seconds=parse_seconds)

    async def _serve_metrics_http(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        """Answer a plain HTTP ``GET`` on the JSON-lines port with the
        Prometheus text exposition (pool-wide merged registry).

        Scrapers speak one request per connection here: the headers are
        drained, the body written, and the connection closed — the JSON
        protocol is never entered.  The scrape rides the pump queue as
        an internal ``stats`` round, so the pump stays the engine's only
        driver: a scrape arriving mid-batch waits its turn instead of
        racing the pump for the worker pool's shared result queue (where
        it could steal — and drop — an in-flight batch's responses).
        """
        try:
            while True:
                header = await asyncio.wait_for(reader.readline(), timeout=1.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
        except (asyncio.TimeoutError, OSError, ConnectionError):
            return
        future: asyncio.Future[dict[str, Any] | None] = (
            asyncio.get_running_loop().create_future()
        )
        await self._enqueue({"op": "stats"}, conn, future)
        response = await future
        if response is None or not response.get("ok"):
            # Shutdown drain or a stats failure: a scrape-friendly
            # status line beats silently dropping the connection.
            status, encoded = "503 Service Unavailable", b""
        else:
            result = response.get("result") or {}
            status = "200 OK"
            encoded = obs.render_prometheus(result.get("metrics") or {}).encode()
        head = (
            f"HTTP/1.0 {status}\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            f"Content-Length: {len(encoded)}\r\nConnection: close\r\n\r\n"
        ).encode("ascii")
        with contextlib.suppress(asyncio.TimeoutError, OSError):
            await asyncio.wait_for(
                conn.write(head + encoded), timeout=self.write_timeout
            )

    def _deadline_for(self, request: dict[str, Any]) -> float | None:
        timeout = self.request_timeout
        timeout_ms = request.get("timeout_ms")
        if isinstance(timeout_ms, (int, float)) and not isinstance(timeout_ms, bool):
            timeout = timeout_ms / 1000.0
        if timeout is None or timeout <= 0:
            return None
        return asyncio.get_running_loop().time() + timeout

    async def _enqueue(
        self,
        request: dict[str, Any],
        conn: _Connection,
        future: asyncio.Future[dict[str, Any] | None] | None = None,
        parse_seconds: float = 0.0,
    ) -> None:
        queue = self._queue
        await queue.put(
            _Pending(
                request,
                conn,
                self._deadline_for(request),
                future,
                received=asyncio.get_running_loop().time(),
                parse_seconds=parse_seconds,
            )
        )
        self._m_queue_depth.set(queue.qsize())

    async def _send(self, conn: _Connection, response: dict[str, Any]) -> None:
        """Write one response line with backpressure; a write stalled
        past ``write_timeout`` (client stopped reading) drops the
        connection instead of stalling the server."""
        if conn.closed:
            return
        try:
            await asyncio.wait_for(
                conn.write(_encode_reply(response)), timeout=self.write_timeout
            )
        except asyncio.TimeoutError:
            # The client stopped reading: a backpressure stall that
            # exhausted its budget costs it the connection.
            self._m_stalls.inc()
            self._m_dropped.inc()
            await self._close_connection(conn)
        except (OSError, ConnectionError):
            self._m_dropped.inc()
            await self._close_connection(conn)

    # ------------------------------------------------------------------
    # Streamed enumeration
    # ------------------------------------------------------------------

    async def _start_stream(self, request: dict[str, Any], conn: _Connection) -> None:
        """Launch one enumeration stream as its own task.

        The connection's reader keeps reading while the stream runs, so
        further requests (including ``cancel``) are served concurrently
        and an abandoned stream can always be stopped without dropping
        the connection.  Streams are capped per connection; the response
        lines of concurrent streams interleave and carry their request
        id, like any pipelined response.
        """
        stream_id = request.get("id")
        if len(conn.streams) >= MAX_STREAMS_PER_CONNECTION:
            await self._send(
                conn,
                _error_response(
                    stream_id,
                    RuntimeError(
                        "too many concurrent streams on this connection "
                        f"(max {MAX_STREAMS_PER_CONNECTION})"
                    ),
                ),
            )
            return
        # Registry keys are unique per task (a client may reuse an id);
        # cancel matches on the request id, so it stops every stream the
        # client called by that name.
        key = next(self._stream_keys)
        task = asyncio.get_running_loop().create_task(
            self._stream_enumerate(request, conn, key)
        )
        conn.streams[key] = (stream_id, task)
        self._m_active_streams.inc()

        def _forget(_: asyncio.Task[None]) -> None:
            conn.streams.pop(key, None)
            self._m_active_streams.dec()

        task.add_done_callback(_forget)

    async def _cancel_stream(self, request: dict[str, Any], conn: _Connection) -> None:
        """The ``cancel`` op: stop live streams by their request id."""
        target = request.get("target")
        matched = [
            key for key, (stream_id, _) in conn.streams.items() if stream_id == target
        ]
        for key in matched:
            conn.streams.pop(key)[1].cancel()
        await self._send(
            conn,
            {
                "id": request.get("id"),
                "ok": True,
                "result": "cancelled" if matched else "no such stream",
            },
        )

    async def _stream_enumerate(
        self, request: dict[str, Any], conn: _Connection, key: int
    ) -> None:
        """Serve one ``stream: true`` enumerate request as chunk lines.

        Each chunk is one paged engine round through the shared pump (so
        concurrent batches interleave and coalescing keeps working), and
        each chunk line is written with backpressure before the next
        page is fetched — a slow client pauses its own stream, bounding
        server memory at one chunk.
        """
        from repro.service.protocol import paging_rounds

        request_id = request.get("id")
        rounds = paging_rounds(request)
        page_request = next(rounds)
        try:
            while not conn.closed:
                if key not in conn.streams:
                    # Unregistered by a cancel op whose task.cancel() was
                    # lost: before 3.12, asyncio.wait_for drops a
                    # cancellation that lands as its write completes.
                    raise asyncio.CancelledError
                future = asyncio.get_running_loop().create_future()
                await self._enqueue(page_request, conn, future)
                response = await future
                if response is None:  # cancelled (disconnect or shutdown)
                    return
                if not response.get("ok"):
                    await self._send(conn, dict(response, stream=True, done=True))
                    return
                page = response.get("result") or {}
                try:
                    page_request = rounds.send(response)
                    done = False
                except StopIteration:
                    done = True
                await self._send(
                    conn,
                    {
                        "id": request_id,
                        "ok": True,
                        "stream": True,
                        "chunk": page.get("items") or [],
                        # Present even on the final chunk of a limit-bounded
                        # stream: the client's resume point (None only when
                        # the enumeration is exhausted).
                        "cursor": page.get("cursor"),
                        "done": done,
                    },
                )
                if done:
                    return
                if self.shutting_down:
                    error = ConnectionError("server shutting down")
                    await self._send(
                        conn,
                        dict(
                            _error_response(request_id, error),
                            stream=True, done=True, cursor=page.get("cursor"),
                        ),
                    )
                    return
        except asyncio.CancelledError:
            # A cancel op (or connection teardown): tell the client where
            # the stream stopped — the cursor in the last chunk it
            # received resumes the enumeration exactly there.
            if not conn.closed:
                error = asyncio.CancelledError("stream cancelled")
                await self._send(
                    conn, dict(_error_response(request_id, error), stream=True, done=True)
                )
            raise

    # ------------------------------------------------------------------
    # The pump: sole engine driver
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        while True:
            batch = [await queue.get()]
            # Batch while busy: whatever any connection enqueued while the
            # previous batch executed joins this one (cross-connection
            # coalescing); an idle server dispatches a lone request now.
            while not queue.empty():
                batch.append(queue.get_nowait())
            self._m_batch_size.record(float(len(batch)))
            self._m_queue_depth.set(queue.qsize())
            try:
                await self._execute_batch(loop, batch)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A batch must never kill the pump: with no pump the
                # whole server wedges silently (every client hangs until
                # its socket timeout).  Answer the batch with an error
                # and keep serving — the next batch gets a fresh start.
                await self._fail_batch(batch, error)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _fail_batch(self, batch: list[_Pending], error: Exception) -> None:
        # The diagnostic goes through the executor: stderr may be a pipe
        # with a slow (or stuck) reader, and a blocking write here would
        # stall the pump — the exact failure mode this path exists to
        # contain.
        message = (
            f"witness-server: batch of {len(batch)} failed: "
            f"{type(error).__name__}: {error}\n"
        )
        await asyncio.get_running_loop().run_in_executor(
            None, _write_stderr, message
        )
        sends: list[Coroutine[Any, Any, None]] = []
        for pending in batch:
            if pending.conn.closed:
                _release(pending)
                continue
            response = _error_response(pending.request.get("id"), error)
            response["error"] = f"internal server error: {error}"
            sends.append(self._resolve(pending, response))
        self._dispatch(sends)

    async def _execute_batch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]
    ) -> None:
        now = loop.time()
        live: list[_Pending] = []
        sends: list[Coroutine[Any, Any, None]] = []
        stats_items: list[_Pending] = []
        for pending in batch:
            if pending.conn.closed:
                _release(pending)  # cancelled: the client is gone; never execute
                continue
            if pending.deadline is not None and now > pending.deadline:
                error = TimeoutError("request deadline exceeded before execution")
                response = _error_response(pending.request.get("id"), error)
                sends.append(self._resolve(pending, response))
                continue
            if pending.request.get("op") == "stats":
                stats_items.append(pending)
                continue
            live.append(pending)
        # Dispatch as soon as each group's responses exist: a failure in
        # a later group then cannot strand earlier, undispatched sends.
        self._dispatch(sends)
        sends = []
        if live:
            requests = [pending.request for pending in live]
            self.batches += 1
            exec_start = loop.time()
            for pending in live:
                pending.exec_start = exec_start
            responses = await loop.run_in_executor(
                self._engine_thread, self.engine.execute, requests
            )
            self.served += len(responses)
            self._dispatch(
                [self._resolve(p, r) for p, r in zip(live, responses)]
            )
        if stats_items:
            # Aggregated at the server so every worker's counters show up
            # (through engine.execute a stats op reaches one worker).
            stats = await loop.run_in_executor(
                self._engine_thread, _aggregate_server_stats, self.engine
            )
            # Internal rounds (HTTP metrics scrapes resolve a future)
            # are monitoring plumbing, not served client requests.
            self.served += sum(
                1 for pending in stats_items if pending.future is None
            )
            for pending in stats_items:
                result = dict(
                    stats,
                    served=self.served,
                    batches=self.batches,
                    connections=len(self.connections),
                )
                if not pending.request.get("per_worker"):
                    result.pop("workers", None)
                sends.append(
                    self._resolve(
                        pending,
                        {"id": pending.request.get("id"), "ok": True, "result": result},
                    )
                )
        self._dispatch(sends)

    def _dispatch(self, sends: list[Coroutine[Any, Any, None]]) -> None:
        """Fire response deliveries as independent tasks.

        The pump must not await them: one client that has stopped
        reading would otherwise stall every other client's batches for
        up to ``write_timeout`` (writes are already serialized per
        connection by its write lock, and a stalled connection is
        dropped by :meth:`_send`, which bounds the task backlog)."""
        loop = asyncio.get_running_loop()
        for coroutine in sends:
            task = loop.create_task(coroutine)
            self._send_tasks.add(task)
            task.add_done_callback(self._send_tasks.discard)

    async def _resolve(self, pending: _Pending, response: dict[str, Any]) -> None:
        if pending.future is not None:
            # Internal page rounds of a stream: the front-door request is
            # the stream itself, so pages don't count as requests here.
            if not pending.future.done():
                pending.future.set_result(response)
            return
        self._observe_response(pending, response)
        await self._send(pending.conn, response)

    def _observe_response(
        self, pending: _Pending, response: dict[str, Any]
    ) -> None:
        """Account one finished front-door request: latency histogram,
        server-side stage timings, and the slow-query log."""
        loop = asyncio.get_running_loop()
        total = pending.parse_seconds + max(0.0, loop.time() - pending.received)
        if obs.enabled():
            self._m_request_seconds.record(total)
            if pending.parse_seconds > 0:
                self._m_stage_parse.record(pending.parse_seconds)
            coalesce_wait = (
                max(0.0, pending.exec_start - pending.received)
                if pending.exec_start is not None
                else None
            )
            if coalesce_wait is not None:
                self._m_stage_coalesce.record(coalesce_wait)
            if pending.request.get("trace"):
                timing = response.setdefault("timing", {})
                if isinstance(timing, dict):
                    timing[metric_names.STAGE_PARSE] = pending.parse_seconds
                    if coalesce_wait is not None:
                        timing[metric_names.STAGE_COALESCE_WAIT] = coalesce_wait
        log = self.slow_query_log
        if log is not None and log.should_record(total):
            self._m_slow_queries.inc()
            event = {
                "ts": time.time(),
                "id": pending.request.get("id"),
                "op": pending.request.get("op"),
                "ok": response.get("ok"),
                "total_seconds": total,
                "timing": response.get("timing"),
            }
            # File appends never run on the event loop; fire-and-forget
            # on the default executor (failures are swallowed — a broken
            # slow log must not break serving).
            writer = loop.run_in_executor(None, log.record, event)
            writer.add_done_callback(_swallow_exception)


def serve_stdio(
    engine: Engine, stdin: Any = None, stdout: Any = None, **options: Any
) -> int:
    """Serve JSON-lines over stdin/stdout until ``shutdown`` or EOF.

    Stdin and stdout (``sys.stdin``/``sys.stdout`` by default) are one
    connection of an :class:`AsyncWitnessServer`, so stdio has exactly
    the TCP semantics: batching while busy, streamed enumeration and
    ``cancel``, deadlines, bounded lines, the slow-query log and the
    request metrics.  Stdin may be a pipe, a regular file, a tty or any
    object with ``read`` (``StringIO`` in tests); stdout may take text
    or bytes.  EOF on stdin acts as ``shutdown``: every request already
    read, an unterminated last line included, is answered and flushed,
    then this returns 0.  ``options`` are those of :func:`serve_tcp`.
    """
    server = AsyncWitnessServer(engine, **options)
    return asyncio.run(
        server.run_stdio(
            sys.stdin if stdin is None else stdin,
            sys.stdout if stdout is None else stdout,
        )
    )


def serve_tcp(
    engine: Engine,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback: Callable[[Any], None] | None = None,
    **options: Any,
) -> int:
    """Serve JSON-lines over TCP until a client sends ``shutdown``.

    Binds ``host:port`` (port 0 picks an ephemeral port), then calls
    ``ready_callback((host, actual_port))`` — the hook tests and the CLI
    use to learn the address.  The implementation is an ``asyncio``
    event loop (:class:`AsyncWitnessServer`): any number of connections
    are multiplexed concurrently, all feeding one batching pump, so
    same-spec sample coalescing spans connections.  ``options`` are the
    server's keyword arguments: ``max_line``, ``request_timeout``,
    ``max_connections``, ``write_timeout`` and ``slow_query_log``.  See
    the module docstring for the concurrency semantics (bounded lines,
    deadlines, backpressure, streamed enumeration, graceful drain).
    """
    server = AsyncWitnessServer(engine, **options)
    return asyncio.run(server.run(host, port, ready_callback))


def start_tcp_server_thread(
    engine: Engine, **kwargs: Any
) -> tuple[threading.Thread, Any]:
    """Run :func:`serve_tcp` in a daemon thread; returns
    ``(thread, (host, port))`` once the listener is bound.

    The embedding convenience (tests, benchmarks, notebooks): an
    ephemeral-port server whose address is known when this returns.
    Keyword arguments are forwarded to :func:`serve_tcp`; stop it with a
    ``shutdown`` request and ``thread.join()``.
    """
    ready = threading.Event()
    address: dict[str, Any] = {}

    def on_ready(addr: Any) -> None:
        address["addr"] = addr
        ready.set()

    kwargs.setdefault("port", 0)
    kwargs["ready_callback"] = on_ready
    thread = threading.Thread(
        target=serve_tcp, args=(engine,), kwargs=kwargs, daemon=True
    )
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("TCP server did not come up within 10s")
    return thread, address["addr"]


__all__ = [
    "AsyncWitnessServer",
    "serve_stdio",
    "serve_tcp",
    "start_tcp_server_thread",
    "encode_response",
    "DEFAULT_MAX_LINE",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_WRITE_TIMEOUT",
    "MAX_STREAMS_PER_CONNECTION",
]
