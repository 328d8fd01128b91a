"""Helpers for tests that drive real ``python -m repro worker`` processes."""

import os
import socket
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def worker_env() -> dict:
    """Subprocess environment with this checkout's ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def free_port() -> int:
    """A TCP port on 127.0.0.1 that was free a moment ago, for tests
    that must start a ``worker --connect`` before its coordinator."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        return probe.getsockname()[1]


def wait_for_dial_ins(port: int, count: int, timeout: float = 30.0) -> None:
    """Block until ``count`` connections to local ``port`` are established
    (accepted or still parked in the listen backlog).

    A test that spawns several workers and asserts each exits cleanly
    calls this before its sweep: a sweep can finish before a slow
    worker dials in, and that worker then never reaches the coordinator.
    Reads the kernel's socket tables; without ``/proc/net/tcp`` it
    returns at once.
    """
    deadline = time.monotonic() + timeout
    while True:
        established = 0
        for table in ("/proc/net/tcp", "/proc/net/tcp6"):
            try:
                with open(table, encoding="ascii") as handle:
                    rows = handle.read().splitlines()[1:]
            except OSError:
                if table.endswith("tcp"):
                    return
                continue
            for row in rows:
                fields = row.split()
                local_port = int(fields[1].rsplit(":", 1)[1], 16)
                if fields[3] == "01" and local_port == port:
                    established += 1
        if established >= count:
            return
        if time.monotonic() > deadline:
            raise AssertionError(
                f"{established}/{count} workers dialed in to port {port}")
        time.sleep(0.01)
