"""Server process control and the single-threaded load generator."""

from __future__ import annotations

import gc
import json
import os
import re
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from workloads import Workload, encode

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: A request with no complete reply after this long counts as failed.
REPLY_TIMEOUT_S = 30.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


def now_ns() -> int:
    return time.perf_counter_ns()


def _server_env() -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` switch, so the
    server runs with its CLI defaults (pure kernel backend, no
    process-default store, observability at its default)."""
    return {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }


class Server:
    """One ``repro serve --port 0 --store DIR`` process (via the launcher)."""

    def __init__(
        self,
        store: Path,
        log: Path,
        trace_out: Path | None = None,
        backward_delay_ms: float = 0.0,
    ) -> None:
        cmd = [sys.executable, str(LAUNCHER)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if backward_delay_ms:
            cmd += ["--backward-delay-ms", str(backward_delay_ms)]
        cmd += ["--", "serve", "--port", "0", "--store", str(store)]
        self.log = log
        self._log_handle = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_server_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log_handle,
        )
        self.port: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(rb"listening on [^:\s]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        raise RuntimeError(f"server did not come up: {self.log.read_text()[-2000:]}")

    def connect(self) -> "Connection":
        assert self.port is not None
        return Connection(socket.create_connection(("127.0.0.1", self.port)))

    def cpu_ms(self) -> float:
        """User + system CPU of the server process so far (ms)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) * 1000.0 / CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """``shutdown`` over a fresh connection; kill if it will not stop."""
        try:
            if self.proc.poll() is None and self.port is not None:
                conn = self.connect()
                try:
                    conn.request({"id": "bye", "op": "shutdown"}, timeout=10.0)
                finally:
                    conn.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, TimeoutError):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self._log_handle.close()


class Connection:
    """A JSON-lines client connection with its own line buffer."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def feed(self) -> list[bytes]:
        """Read what is available (one ``recv``); return complete lines."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return lines

    def read_line(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no reply within the harness timeout")
            self.sock.settimeout(remaining)
            try:
                data = self.sock.recv(1 << 20)
            except socket.timeout as error:
                raise TimeoutError("no reply within the harness timeout") from error
            if not data:
                raise ConnectionError("server closed the connection")
            self.buffer += data
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line

    def request(self, request: dict[str, Any], timeout: float = REPLY_TIMEOUT_S) -> dict:
        self.sock.sendall(encode(request))
        return json.loads(self.read_line(timeout))


@dataclass
class Op:
    """One timed request as the client saw it."""

    request: dict[str, Any]
    due_ns: int = 0
    send_ns: int = 0
    first_ns: int = 0
    done_ns: int = 0
    lines: list[bytes] = field(default_factory=list)
    ok: bool = False
    error: str | None = None

    @property
    def replies(self) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.lines]


def run_stream(conn: Connection, op: Op) -> None:
    """Send one request and read its reply lines (all chunks of a stream)."""
    op.send_ns = op.due_ns = now_ns()
    conn.sock.sendall(encode(op.request))
    while True:
        line = conn.read_line(REPLY_TIMEOUT_S)
        stamp = now_ns()
        if not op.lines:
            op.first_ns = stamp
        op.lines.append(line)
        reply = json.loads(line)
        if not reply.get("ok"):
            op.error = str(reply.get("error"))
            op.done_ns = stamp
            return
        if not reply.get("stream") or reply.get("done"):
            op.ok = True
            op.done_ns = stamp
            return


def warm_up(server: Server, wl: Workload, cursors: dict[str, Any]) -> list[Op]:
    """Answer the workload's warm-up requests, one at a time; any failure
    aborts (a run whose warm-up fails measures nothing)."""
    conn = server.connect()
    ops = []
    try:
        for request in wl.warmup:
            op = Op(_with_cursor(request, cursors))
            run_stream(conn, op)
            if not op.ok:
                raise RuntimeError(f"warm-up request failed: {op.error}")
            _advance_cursor(op, cursors)
            ops.append(op)
    finally:
        conn.close()
    return ops


def _spec_name(request: dict[str, Any]) -> str:
    return json.dumps(request["spec"], sort_keys=True)


def _with_cursor(request: dict[str, Any], cursors: dict[str, Any]) -> dict[str, Any]:
    if not request.get("stream"):
        return request
    cursor = cursors.get(_spec_name(request))
    return dict(request, cursor=cursor) if cursor is not None else dict(request)


def _advance_cursor(op: Op, cursors: dict[str, Any]) -> None:
    if op.request.get("stream") and op.ok:
        cursors[_spec_name(op.request)] = json.loads(op.lines[-1]).get("cursor")


class _NoCollector:
    """Keep the cyclic garbage collector out of the timed window: a
    collection pass in this process would stall the load generator and
    be charged to the server as latency."""

    def __enter__(self) -> None:
        gc.collect()
        gc.freeze()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        gc.enable()
        gc.unfreeze()


def closed_loop(
    server: Server, wl: Workload, seconds: float, cursors: dict[str, Any]
) -> list[Op]:
    """One connection; the next request goes out when the last reply is in."""
    with _NoCollector():
        return _closed_loop(server, wl, seconds, cursors)


def _closed_loop(
    server: Server, wl: Workload, seconds: float, cursors: dict[str, Any]
) -> list[Op]:
    conn = server.connect()
    ops: list[Op] = []
    try:
        end = now_ns() + int(seconds * 1e9)
        for request in wl.timed:
            if now_ns() >= end:
                break
            op = Op(_with_cursor(request, cursors))
            ops.append(op)
            try:
                run_stream(conn, op)
            except (TimeoutError, ConnectionError) as error:
                op.error = f"{type(error).__name__}: {error}"
                break
            _advance_cursor(op, cursors)
        else:
            raise RuntimeError("workload ran out of requests before the window ended")
    finally:
        conn.close()
    return ops


def open_loop(server: Server, wl: Workload) -> list[Op]:
    """Send each pre-encoded request when it is due, alternating over the
    connections, and read replies as they come; latency counts from the
    due time, so a stalled server is charged for the requests it delayed."""
    with _NoCollector():
        return _open_loop(server, wl)


def _open_loop(server: Server, wl: Workload) -> list[Op]:
    lines = [encode(request) for request in wl.timed]
    conns = [server.connect() for _ in range(wl.connections)]
    # select(2) takes its timeout in microseconds; epoll and poll round it
    # up to whole milliseconds, which would send a request up to 1 ms late.
    selector = selectors.SelectSelector()
    for conn in conns:
        conn.sock.setblocking(False)
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    ops = [Op(request) for request in wl.timed]
    by_id = {op.request["id"]: op for op in ops}
    start = now_ns() + 20_000_000
    for op, offset in zip(ops, wl.due_ns):
        op.due_ns = start + offset
    sent = 0
    outstanding = 0
    drain_deadline: int | None = None
    try:
        while sent < len(ops) or outstanding:
            now = now_ns()
            while sent < len(ops) and ops[sent].due_ns <= now:
                conn = conns[sent % len(conns)]
                ops[sent].send_ns = now_ns()
                conn.sock.setblocking(True)
                conn.sock.sendall(lines[sent])
                conn.sock.setblocking(False)
                sent += 1
                outstanding += 1
                now = now_ns()
            if sent < len(ops):
                timeout = max(0.0, (ops[sent].due_ns - now) / 1e9)
            else:
                if drain_deadline is None:
                    drain_deadline = now + int(REPLY_TIMEOUT_S * 1e9)
                if now >= drain_deadline:
                    break
                timeout = (drain_deadline - now) / 1e9
            for key, _ in selector.select(timeout):
                stamp = now_ns()
                for line in key.data.feed():
                    reply = json.loads(line)
                    op = by_id.get(reply.get("id"))
                    if op is None:
                        raise RuntimeError(f"reply to no request: {line[:200]!r}")
                    op.first_ns = op.done_ns = stamp
                    op.lines.append(line)
                    op.ok = bool(reply.get("ok"))
                    if not op.ok:
                        op.error = str(reply.get("error"))
                    outstanding -= 1
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    for op in ops:
        if not op.lines or op.done_ns - op.send_ns > REPLY_TIMEOUT_S * 1e9:
            op.ok = False
            op.error = "no reply within the harness timeout"
    return ops
