"""Labeled metrics registry with a Prometheus text renderer.

Instruments are cheap plain-python objects keyed by ``(name, labels)``.  When
the registry is disabled every factory returns one shared no-op instrument, so
instrumented call sites pay a single method call on a do-nothing object and
the registry accumulates no state.

The process-wide registry lives at :data:`REGISTRY`; it is enabled by default
and can be switched off with ``REPRO_METRICS=0``.  Simulation code never
publishes per-event — only coarse, end-of-phase observations — so the metrics
layer stays off the engine hot path entirely.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in key
    )
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus classic shape)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1


class _NoopInstrument:
    """Stands in for every instrument type when the registry is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Families of labeled instruments, renderable as Prometheus text."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        # name -> (type, help, {label_key: instrument})
        self._families: Dict[str, Tuple[str, str, Dict[LabelKey, object]]] = {}

    def _get(self, kind: str, name: str, help_text: str,
             labels: Dict[str, str], factory):
        if not self.enabled:
            return _NOOP
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help_text, {})
                self._families[name] = family
            instruments = family[2]
            instrument = instruments.get(key)
            if instrument is None:
                instrument = factory()
                instruments[key] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Iterable[float]] = None,
                  **labels: str) -> Histogram:
        chosen = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        return self._get("histogram", name, help_text, labels,
                         lambda: Histogram(chosen))

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Read back a counter/gauge value (None if never published)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            instrument = family[2].get(_label_key(labels))
        if instrument is None:
            return None
        return getattr(instrument, "value", None)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat ``{name: {rendered_labels: value}}`` view for JSON output."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            families = [
                (name, kind, dict(instruments))
                for name, (kind, _help, instruments) in self._families.items()
            ]
        for name, kind, instruments in sorted(families):
            series: Dict[str, float] = {}
            for key, instrument in sorted(instruments.items()):
                label_text = _render_labels(key)
                if kind == "histogram":
                    series[label_text + "_count"] = instrument.count
                    series[label_text + "_sum"] = instrument.total
                else:
                    series[label_text] = instrument.value
            out[name] = series
        return out

    def render_prometheus(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            families = [
                (name, kind, help_text, dict(instruments))
                for name, (kind, help_text, instruments)
                in self._families.items()
            ]
        for name, kind, help_text, instruments in sorted(families):
            if help_text:
                lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s %s" % (name, kind))
            for key, instrument in sorted(instruments.items()):
                labels = _render_labels(key)
                if kind == "histogram":
                    for bound, cumulative in zip(instrument.buckets,
                                                 instrument.counts):
                        bucket_key = key + (("le", repr(bound)),)
                        lines.append("%s_bucket%s %d" % (
                            name, _render_labels(bucket_key), cumulative))
                    inf_key = key + (("le", "+Inf"),)
                    lines.append("%s_bucket%s %d" % (
                        name, _render_labels(inf_key), instrument.count))
                    lines.append("%s_sum%s %s" % (name, labels,
                                                  _format(instrument.total)))
                    lines.append("%s_count%s %d" % (name, labels,
                                                    instrument.count))
                else:
                    lines.append("%s%s %s" % (name, labels,
                                              _format(instrument.value)))
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _default_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "1") not in ("0", "false", "off")


REGISTRY = MetricsRegistry(enabled=_default_enabled())

if hasattr(os, "register_at_fork"):
    # A fork can catch another thread inside the registry's lock (cache
    # and sweep counters are bumped from service threads); the child --
    # a process-pool worker that publishes its cell's span -- would
    # then block on its copy forever.  It starts with a fresh lock.
    os.register_at_fork(
        after_in_child=lambda: setattr(REGISTRY, "_lock", threading.Lock())
    )
