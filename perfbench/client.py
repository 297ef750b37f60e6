"""Closed-loop HTTP/1.1 keep-alive client with a per-request tally.

Raw sockets, pre-encoded requests and a single client thread keep the
client's own cost per request small and constant: with one thread driving
every connection, no timed call waits for the interpreter lock held by
another client thread.  Each completed request becomes a :class:`Sample`;
the tally reads status, ``charged`` and the route of every answer from
the response body.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import time
from dataclasses import dataclass, field

from schedules import canonical

ROUTES = ("accelerator", "cache", "direct", "warm", "cold")
_TRACE_ID = re.compile(rb',"trace_id":"[^"]*"')


def encode_request(payload: dict) -> bytes:
    body = canonical(payload)
    return (
        b"POST /query HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def stable_body(body: bytes) -> bytes:
    """A response body without its per-request trace id (present only when
    the program's tracing is on)."""
    return _TRACE_ID.sub(b"", body)


class Conn:
    def __init__(self, port: int, timeout: float = 120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rb")

    def call(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        return self.read_response()

    def read_response(self) -> tuple[int, bytes]:
        status = int(self.f.readline().split()[1])
        length = 0
        while True:
            line = self.f.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            k, _, v = line.partition(b":")
            if k.strip().lower() == b"content-length":
                length = int(v)
        return status, self.f.read(length)

    def close(self) -> None:
        try:
            self.f.close()
        finally:
            self.sock.close()


@dataclass
class Sample:
    kind: str  # "hot" | "eps" | "repeat" | "warm"
    t0: float
    t1: float
    status: int
    charged: float
    routes: tuple
    ok: bool
    cls: str = ""  # request class, see schedules.request_class

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


@dataclass(frozen=True)
class Expected:
    """A response body known from an earlier serving (trace ids aside),
    parsed once: a matching response needs no parsing in the timed loop."""

    body: bytes
    charged: float
    routes: tuple

    @classmethod
    def of(cls, body: bytes) -> "Expected":
        doc = json.loads(body)
        return cls(body, float(doc["charged"]),
                   tuple(a["route"] for a in doc["answers"]))


@dataclass
class Tally:
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def record(self, kind, t0, t1, status, body, eps=None, expect=None, cls="") -> None:
        """Record one response and run the per-response checks: a free read
        is charged nothing; an ε request is charged 0 or its ε; a body
        with a known :class:`Expected` value must match it."""
        charged, routes, ok = 0.0, (), status == 200
        if not ok:
            self.errors.append(f"{kind} request failed: HTTP {status} {body[:200]!r}")
        elif expect is not None:
            charged, routes = expect.charged, expect.routes
            if stable_body(body) != expect.body:
                ok = False
                self.errors.append(f"{kind} body differs from its first serving")
        else:
            doc = json.loads(body)
            charged = float(doc["charged"])
            routes = tuple(a["route"] for a in doc["answers"])
        if ok and eps is None and charged != 0.0:
            ok = False
            self.errors.append(f"free {kind} read charged {charged}")
        if ok and eps is not None and charged not in (0.0, eps):
            ok = False
            self.errors.append(f"ε request charged {charged}, asked {eps}")
        self.samples.append(Sample(kind, t0, t1, status, charged, routes, ok, cls))


def closed_loop(streams, spin: bool = False) -> None:
    """Drive each ``(conn, requests)`` stream as a closed loop from the
    calling thread: one request in flight per connection, the next sent as
    soon as the previous response is read.  ``requests`` yields
    ``(raw, on_response)`` pairs; ``on_response(t0, t1, status, body)``
    gets each timed response.  A stream ends when its iterator does.

    With ``spin`` the thread polls for responses instead of sleeping until
    one arrives.  On a virtual machine a sleeping vCPU that is woken may
    wait for the host to run it again; polling keeps that wait out of
    every sub-millisecond round trip, at the cost of one busy CPU."""
    timeout = 0 if spin else None
    sel = selectors.DefaultSelector()
    state = {}

    def send_next(conn, it) -> None:
        nxt = next(it, None)
        if nxt is None:
            sel.unregister(conn.sock)
            return
        raw, on_response = nxt
        t0 = time.perf_counter()
        conn.sock.sendall(raw)
        state[conn] = (it, on_response, t0)

    for conn, requests in streams:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        send_next(conn, iter(requests))
    try:
        while sel.get_map():
            for key, _ in sel.select(timeout):
                conn = key.data
                it, on_response, t0 = state[conn]
                status, body = conn.read_response()
                on_response(t0, time.perf_counter(), status, body)
                send_next(conn, it)
    finally:
        sel.close()


def timed_call(conn: Conn, raw: bytes) -> tuple[float, float, int, bytes]:
    t0 = time.perf_counter()
    status, body = conn.call(raw)
    return t0, time.perf_counter(), status, body
