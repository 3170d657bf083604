"""Hermetic ``repro serve`` processes for one benchmark run.

Each server gets a private, initially empty ``REPRO_CACHE_DIR`` inside
the run directory (otherwise ``repro serve`` reads and writes the
user-wide ``~/.cache/repro-optimal4`` and set-up would time a warm map),
an ephemeral port and no result-cache file.  It is stopped with the
``shutdown`` op, and killed with its whole process group if that does
not work.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import K

_READY = re.compile(rb"listening on ([0-9.]+):(\d+)")
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve -k 5`` process (with ``--shards N``, a router
    plus N shard processes)."""

    def __init__(self, checkout: Path, store: Path, shards: int = 0) -> None:
        self.checkout = checkout
        self.store = store
        self.shards = shards
        self.proc: "subprocess.Popen | None" = None
        self.address: "tuple[str, int] | None" = None
        self.pids: list = []

    def start(self) -> float:
        """Launch and wait until the server answers ``ping``; returns the
        seconds from launch (store directory still empty) to the answer."""
        self.store.mkdir(parents=True)
        log = self.store.parent / f"{self.store.name}.log"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(self.store)
        env["PYTHONPATH"] = str(self.checkout / "src")
        command = [sys.executable, "-m", "repro", "serve", "-k", str(K), "--port", "0"]
        if self.shards:
            command += ["--shards", str(self.shards)]
        started = time.perf_counter()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                command, cwd=self.checkout, env=env, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = started + READY_TIMEOUT
        while self.address is None:
            match = _READY.search(log.read_bytes())
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise ServerError(f"server did not come up: {log.read_text()[-2000:]}")
            else:
                time.sleep(0.002)
        if not self.call({"id": "ping", "op": "ping"}).get("ok"):
            raise ServerError("server did not answer ping")
        elapsed = time.perf_counter() - started
        self.pids = [self.proc.pid] + _children(self.proc.pid)
        return elapsed

    def call(self, payload: dict, timeout: float = 60.0) -> dict:
        """One control request on a fresh connection."""
        with socket.create_connection(self.address, timeout=timeout) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            with sock.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise ServerError(f"no answer to {payload.get('op')}")
        return json.loads(line)

    def stats(self) -> dict:
        reply = self.call({"id": "stats", "op": "stats"})
        if not reply.get("ok"):
            raise ServerError(f"stats failed: {reply}")
        return reply["result"]

    def cpu_seconds(self) -> float:
        """utime + stime of every server process."""
        ticks = 0
        for pid in self.pids:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def pss_mb(self) -> float:
        """Summed proportional set size: the mapped store is shared, so
        RSS would count it once per process."""
        kb = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                if line.startswith("Pss:"):
                    kb += int(line.split()[1])
        return kb / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None and self.address is not None:
            try:
                self.call({"id": "shutdown", "op": "shutdown"}, timeout=10.0)
                proc.wait(timeout=STOP_TIMEOUT)
            except (OSError, ValueError, ServerError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while any(_running(pid) for pid in self.pids) and time.monotonic() < deadline:
            time.sleep(0.01)


def _running(pid: int) -> bool:
    """Whether ``pid`` still exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _children(pid: int) -> list:
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        found.extend(int(child) for child in text.split())
    return found + [grand for child in found for grand in _children(child)]
