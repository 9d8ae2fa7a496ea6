"""Single-process, single-event-loop load generator for the serving phases.

Two transports reach the server under test: NDJSON frames over a TCP
socket (many requests in flight per connection, matched by ``id``) and
HTTP/1.1 keep-alive (one request at a time per connection, used for the
sampled output checks).  Two NDJSON phases drive it:

* :func:`saturate` — closed loop: every connection keeps a fixed window in
  flight for the whole phase; the answered rate is the capacity.
* :func:`fixed_rate` — open loop on a fixed-interval schedule.  Each
  request is timed from its *due* time, so a stall of the generator or of
  the server counts against every request it delays; how late the
  generator itself sent is reported separately as lag.

Request payloads are encoded before a phase starts, so the generator spends
its time on sockets and reply parsing only.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

#: Per-request deadline; a reply later than this counts as timed out.
REQUEST_TIMEOUT_S = 10.0

#: Replies (stats snapshots in particular) can be far larger than asyncio's
#: 64 KiB default line limit.
LINE_LIMIT = 8 << 20


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and the reply."""

    due: float
    sent: float = math.nan
    received: float = math.nan
    reply: "dict[str, Any] | None" = None
    outcome: str = "pending"    # answered | rejected | errored | timed_out


@dataclass
class PhaseCounts:
    attempted: int = 0
    answered: int = 0
    rejected: int = 0
    errored: int = 0
    timed_out: int = 0

    def add(self, samples: "list[Sample]") -> None:
        for s in samples:
            self.attempted += 1
            if s.outcome == "answered":
                self.answered += 1
            elif s.outcome == "rejected":
                self.rejected += 1
            elif s.outcome == "errored":
                self.errored += 1
            else:
                self.timed_out += 1

    def as_dict(self) -> dict[str, int]:
        return {"attempted": self.attempted, "answered": self.answered,
                "rejected": self.rejected, "errored": self.errored,
                "timed_out": self.timed_out}


def classify(reply: "dict[str, Any]") -> str:
    if reply.get("ok"):
        return "answered"
    return "rejected" if reply.get("code") in ("overloaded", "shutting-down") else "errored"


class NdjsonConnection:
    """One NDJSON socket; requests are matched to replies by ``id``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer
        self.waiting: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, address: str) -> "NdjsonConnection":
        host, _, port = address.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port), limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = perf_counter()
            reply = json.loads(line)
            future = self.waiting.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((now, reply))
        for future in self.waiting.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def send(self, body: bytes) -> asyncio.Future:
        """Write one frame (``body`` is its JSON without the id); return its future."""
        rid = self.next_id
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.waiting[rid] = future
        self.writer.write(b'{"id":%d,' % rid + body[1:] + b"\n")
        return future

    async def request(self, frame: "dict[str, Any]") -> "dict[str, Any]":
        _, reply = await asyncio.wait_for(
            self.send(json.dumps(frame).encode()), REQUEST_TIMEOUT_S)
        return reply

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError):
            pass


class HttpConnection:
    """One HTTP/1.1 keep-alive connection; callers send one request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 host: str):
        self.reader, self.writer, self.host = reader, writer, host

    @classmethod
    async def open(cls, address: str) -> "HttpConnection":
        host, _, port = address.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port), limit=LINE_LIMIT)
        return cls(reader, writer, address)

    def encode(self, body: bytes) -> bytes:
        return (b"POST /query HTTP/1.1\r\nHost: " + self.host.encode()
                + b"\r\nContent-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body)

    async def exchange(self, payload: bytes) -> "tuple[float, dict[str, Any]]":
        """Send one encoded request; return (receive time, reply body)."""
        self.writer.write(payload)
        status = await self.reader.readline()
        if not status:
            raise ConnectionError("server closed the connection")
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length)
        return perf_counter(), json.loads(body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def close_all(connections: list) -> None:
    for conn in connections:
        await conn.close()


async def timed(conn, body: bytes, sample: Sample) -> None:
    """Send ``body`` on ``conn`` now and fill ``sample`` with the outcome."""
    try:
        if isinstance(conn, HttpConnection):
            payload = conn.encode(body)
            sample.sent = perf_counter()
            received, reply = await asyncio.wait_for(conn.exchange(payload),
                                                     REQUEST_TIMEOUT_S)
        else:
            sample.sent = perf_counter()
            received, reply = await asyncio.wait_for(conn.send(body), REQUEST_TIMEOUT_S)
    except asyncio.TimeoutError:
        sample.outcome = "timed_out"
        return
    except (ConnectionError, OSError, ValueError):
        sample.outcome = "errored"
        return
    sample.received, sample.reply = received, reply
    sample.outcome = classify(reply)


@dataclass
class SaturateResult:
    samples: "list[Sample]" = field(default_factory=list)
    slice_rates: "list[float]" = field(default_factory=list)


async def saturate(connections: "list[NdjsonConnection]", bodies: "list[bytes]",
                   seconds: float, window: int, slices: int) -> SaturateResult:
    """Closed loop: each connection keeps ``window`` requests in flight.

    The phase is cut into ``slices`` equal slices; the answered rate of each
    is recorded so the caller can take their median.  Requests still in
    flight when the phase ends are awaited, but not counted in any slice.
    """
    result = SaturateResult()
    start = perf_counter()
    end = start + seconds
    cursor = 0

    async def worker(conn: NdjsonConnection) -> None:
        nonlocal cursor
        while perf_counter() < end:
            body = bodies[cursor % len(bodies)]
            cursor += 1
            sample = Sample(due=perf_counter())
            result.samples.append(sample)
            await timed(conn, body, sample)

    await asyncio.gather(*(worker(conn) for conn in connections for _ in range(window)))
    width = seconds / slices
    counts = [0] * slices
    for s in result.samples:
        if s.outcome == "answered" and s.received < end:
            counts[min(int((s.received - start) / width), slices - 1)] += 1
    result.slice_rates = [c / width for c in counts]
    return result


async def fixed_rate(connections: "list[NdjsonConnection]", bodies: "list[bytes]",
                     rate: float, count: int) -> "list[Sample]":
    """Open loop: request ``i`` is due at ``start + i / rate``, sent
    round-robin over the connections whatever is still in flight."""
    loop = asyncio.get_running_loop()
    samples = [Sample(due=0.0) for _ in range(count)]
    tasks = []
    start = perf_counter() + 0.05
    for i, sample in enumerate(samples):
        sample.due = start + i / rate
        delay = sample.due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = connections[i % len(connections)]
        tasks.append(loop.create_task(timed(conn, bodies[i % len(bodies)], sample)))
    await asyncio.gather(*tasks)
    return samples
