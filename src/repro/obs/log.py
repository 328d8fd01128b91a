"""Structured JSON-lines logging for the long-running service pieces.

One JSON object per line on stderr (by default), so worker/coordinator/serve
logs are machine-parseable without giving up `tail -f` readability:

    {"ts": 1754640000.123, "level": "info", "logger": "worker",
     "event": "served", "cells": 12, "from_cache": 7}

The minimum level comes from ``REPRO_LOG`` (debug/info/warning/error,
default info) and is resolved at call time so tests can flip it per-case.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, Optional, TextIO

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_lock = threading.Lock()
_loggers: Dict[str, "JsonLinesLogger"] = {}


def _threshold() -> int:
    name = os.environ.get("REPRO_LOG", "info").strip().lower()
    return LEVELS.get(name, 20)


class JsonLinesLogger:
    """Named logger emitting one JSON object per line."""

    def __init__(self, name: str, stream: Optional[TextIO] = None) -> None:
        self.name = name
        self.stream = stream

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if LEVELS[level] < _threshold():
            return
        record = {"ts": round(time.time(), 3), "level": level,
                  "logger": self.name, "event": event}
        for key, value in fields.items():
            if key not in record:
                record[key] = value
        line = json.dumps(record, default=str)
        stream = self.stream if self.stream is not None else sys.stderr
        with _lock:
            try:
                print(line, file=stream, flush=True)
            except (ValueError, OSError):
                pass  # closed stream during teardown

    def debug(self, event: str, **fields) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit("error", event, fields)


def get_logger(name: str, stream: Optional[TextIO] = None) -> JsonLinesLogger:
    """Shared logger per name; pass ``stream`` to redirect (tests, serve)."""
    if stream is not None:
        return JsonLinesLogger(name, stream)
    with _lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = JsonLinesLogger(name)
            _loggers[name] = logger
        return logger
