"""Helpers for tests that drive real ``python -m repro worker`` processes."""

import os
import socket
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
