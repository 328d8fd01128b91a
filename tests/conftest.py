"""Shared test fixtures: spawning real ``python -m repro worker`` processes."""

import subprocess
import sys

import pytest

from _worker_utils import worker_env


@pytest.fixture
def spawn_worker():
    """A factory launching ``python -m repro worker`` subprocesses.

    Returns the Popen object (stdout piped, text mode).  All spawned
    workers are terminated at test teardown.
    """
    procs = []

    def spawn(*cli_args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", *cli_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=worker_env(),
        )
        procs.append(proc)
        return proc

    yield spawn

    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
