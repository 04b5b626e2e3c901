"""Single-threaded load generator over the service's TCP protocol.

One ``selectors`` event loop drives at most two connections: a
closed-loop reader (its next query leaves only after the previous reply
arrived) and, on write workloads, an open-loop writer.  The writer sends
each refresh batch when it is due, without waiting for replies: batches
pipeline on the connection in the protocol's own length-prefixed
framing, so a server stall delays later writes but never the schedule.
Write latency runs from the batch's due time, so the stall counts.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.protocol import ProtocolError, dump_message, load_message

_LEN = 4


class Connection:
    """A non-blocking protocol connection with pipelined requests."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: deque = deque()

    def enqueue(self, message: Dict[str, Any], meta: Any) -> None:
        self.out += dump_message(message)
        self.pending.append(meta)

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def receive(self) -> List[Tuple[Any, Dict[str, Any]]]:
        """Read what is available; return ``(meta, reply)`` per whole frame."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.inbuf += chunk
        replies = []
        while len(self.inbuf) >= _LEN:
            length = int.from_bytes(self.inbuf[:_LEN], "big")
            if len(self.inbuf) < _LEN + length:
                break
            payload = bytes(self.inbuf[_LEN : _LEN + length])
            del self.inbuf[: _LEN + length]
            if not self.pending:
                raise ProtocolError("reply without a request")
            replies.append((self.pending.popleft(), load_message(payload)))
        return replies

    def call(self, message: Dict[str, Any], timeout: float = 120.0) -> Dict[str, Any]:
        """Send one request and wait for its reply (outside the event loop)."""
        if self.pending:
            raise ProtocolError("call() on a connection with requests in flight")
        self.enqueue(message, None)
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.sock, selectors.EVENT_READ)
            while True:
                self.flush()
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"no reply to {message.get('op')} in {timeout}s")
                if sel.select(min(remaining, 0.05)):
                    replies = self.receive()
                    if replies:
                        return replies[0][1]

    def close(self) -> None:
        self.sock.close()


class DriveResult:
    """What one measured window saw; times are ``perf_counter`` seconds or ms."""

    def __init__(self) -> None:
        self.query_ms: List[float] = []
        self.query_names: List[str] = []
        self.query_done: List[float] = []
        self.write_ms: List[float] = []
        self.late_ms: List[float] = []
        self.write_due: List[float] = []
        self.acked: List[int] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.start = 0.0
        self.end = 0.0


def drive(
    reader: Connection,
    next_query: Callable[[], Tuple[Dict[str, Any], Any]],
    check_query: Callable[[Any, Dict[str, Any]], Optional[str]],
    seconds: float,
    writer: Optional[Connection] = None,
    batches: Optional[List[Dict[str, Any]]] = None,
    rate: float = 0.0,
    drain_timeout: float = 120.0,
) -> DriveResult:
    """Run the measured window; returns latencies, lateness and failures.

    *next_query* returns ``(message, tag)``; *check_query(tag, reply)*
    returns ``None`` for a correct reply or a description of the fault.
    Queries completing after the window are checked but not timed.  The
    writer's batches are all due inside the window; the loop then waits
    for their acknowledgements.
    """
    res = DriveResult()
    batches = batches or []
    sel = selectors.DefaultSelector()
    conns = [reader] + ([writer] if writer is not None else [])
    masks = {}
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        masks[conn] = selectors.EVENT_READ
    start = time.perf_counter()
    end = start + seconds
    res.start, res.end = start, end
    sent = 0
    reader_busy = False
    drain_deadline = end + drain_timeout
    try:
        while True:
            now = time.perf_counter()
            while writer is not None and sent < len(batches):
                due = start + sent / rate
                if due > now:
                    break
                writer.enqueue({"op": "mutate", "ops": batches[sent]["ops"]}, (sent, due))
                res.late_ms.append((now - due) * 1000)
                res.write_due.append(due)
                res.attempted += 1
                sent += 1
            if not reader_busy and now < end:
                message, tag = next_query()
                reader.enqueue(message, (tag, message.get("query"), now))
                res.attempted += 1
                reader_busy = True
            writes_done = writer is None or (sent == len(batches) and not writer.pending)
            if now >= end and writes_done and not reader_busy:
                break
            if now > drain_deadline:
                res.failures.append("writes not acknowledged before the drain timeout")
                break
            for conn in conns:
                conn.flush()
                want = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                if masks[conn] != want:
                    sel.modify(conn.sock, want, conn)
                    masks[conn] = want
            timeout = 0.05
            if writer is not None and sent < len(batches):
                timeout = min(timeout, max(0.0, start + sent / rate - now))
            for key, mask in sel.select(timeout):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if not mask & selectors.EVENT_READ:
                    continue
                for meta, reply in conn.receive():
                    arrived = time.perf_counter()
                    if conn is reader:
                        tag, name, issued = meta
                        reader_busy = False
                        if arrived <= end:
                            res.query_ms.append((arrived - issued) * 1000)
                            res.query_names.append(name)
                            res.query_done.append(arrived - start)
                        fault = check_query(tag, reply)
                        if fault is not None:
                            res.failures.append(f"{name}: {fault}")
                    else:
                        index, due = meta
                        res.write_ms.append((arrived - due) * 1000)
                        ops = batches[index]["ops"]
                        if reply.get("ok") and len(reply.get("results") or []) == len(ops):
                            res.acked.append(index)
                        else:
                            res.failures.append(
                                f"batch {index}: {reply.get('error')} {reply.get('detail', '')}"
                            )
    finally:
        sel.close()
    return res
