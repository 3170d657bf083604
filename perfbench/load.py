"""Closed-loop load over real TCP.

Each connection keeps exactly one request outstanding and sends the
next line of the shared stream as soon as its answer arrives, until the
time is up or the stream is used up.  Responses are kept as raw bytes
and checked after the timed phase, so the client does as little work as
possible while the clock runs.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

#: A request that takes longer than this counts as a transport failure.
READ_TIMEOUT = 120.0


@dataclass
class Sample:
    index: int
    started: float
    latency: float
    response: "bytes | None"  # None: transport error


@dataclass
class LoadResult:
    samples: list
    start: float  # perf_counter at the first send
    wall: float  # first send to last answer
    exhausted: bool  # the stream ran out before the time did


def closed_loop(address, lines, connections: int, seconds: "float | None") -> LoadResult:
    """Send ``lines`` in order over ``connections`` sockets; ``seconds``
    None sends every line."""
    lock = threading.Lock()
    cursor = [0]
    samples: list = []
    start = time.perf_counter()
    stop_at = None if seconds is None else start + seconds

    def next_index():
        with lock:
            if cursor[0] >= len(lines) or (stop_at is not None and time.perf_counter() >= stop_at):
                return None
            cursor[0] += 1
            return cursor[0] - 1

    def connect():
        sock = socket.create_connection(address, timeout=READ_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def worker():
        mine = []
        sock = stream = None
        while (index := next_index()) is not None:
            began = time.perf_counter()
            try:
                if sock is None:
                    sock, stream = connect()
                sock.sendall(lines[index])
                response = stream.readline() or None
            except OSError:
                response = None
            done = time.perf_counter()
            if response is None and sock is not None:
                stream.close()
                sock.close()
                sock = stream = None
            mine.append(Sample(index, began, done - began, response))
        if sock is not None:
            stream.close()
            sock.close()
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=worker, name=f"bench-conn-{i}") for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    end = max((s.started + s.latency for s in samples), default=start)
    return LoadResult(samples, start, end - start, cursor[0] >= len(lines))
