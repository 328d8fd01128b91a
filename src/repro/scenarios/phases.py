"""Composable workload synthesis: typed phase primitives and scenarios.

The seven Table I applications are *fixed points* in a much larger space
of memory behaviours a CXL-SSD must serve.  This module provides the
vocabulary for the rest of that space: a scenario is an ordered,
weighted composition of **phase primitives** --

* :class:`ZipfPhase` -- skewed point accesses (databases, KV stores);
* :class:`ScanPhase` -- sequential sweeps (analytics, stencils);
* :class:`PointerChasePhase` -- dependent random walks (graphs, trees);
* :class:`BurstyWritePhase` -- append bursts into a log region
  (ingest pipelines, WALs);
* :class:`DriftPhase` -- Zipf accesses over a working-set window that
  slides through the footprint (diurnal churn, LRU-hostile tenants);
* :class:`TableIPhase` -- one of the seven paper workloads, verbatim.

Every primitive draws from a seeded :mod:`numpy` generator derived from
``(scenario seed, thread id, phase index)``, so a scenario is exactly as
deterministic as the Table I models: same spec + seed -> byte-identical
traces on every host and backend.  The seven Table I models are
themselves scenario instances (a single :class:`TableIPhase` delegating
to :class:`~repro.workloads.models.WorkloadModel`), pinned
golden-identical to the seed models in ``tests/golden/``.

Scenarios serialize to plain JSON (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`), which is how trace files record their
provenance and how the sweep cache keys scenario cells.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.config import CACHELINE_SIZE, CACHELINES_PER_PAGE, PAGE_SIZE
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class PhaseContext:
    """Everything a phase needs to know about where it is generating.

    ``base_page``/``pages`` describe this thread's page domain (the
    whole scenario footprint, or its slice of it when the scenario is
    partitioned); addresses the phase emits must stay inside it.
    """

    base_page: int
    pages: int
    scale: int
    seed: int
    tid: int
    threads: int


class Phase:
    """Base class for phase primitives.

    Subclasses are frozen dataclasses with a ``kind`` class attribute
    (the serialization tag) and a ``weight`` field (its share of the
    scenario's records).  ``generate`` must be deterministic given
    ``(ctx, rng)`` and return a :class:`~repro.workloads.trace.Trace` of
    ``records`` records (the synthesis primitives are exact;
    :class:`TableIPhase` inherits the seed models' best-effort count,
    which can land a few records short).
    """

    kind: str = ""
    weight: float = 1.0
    #: Whether a thread's records depend on the thread count even when
    #: the scenario itself is not partitioned.
    partitioned: bool = False

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        raise NotImplementedError

    # -- serialization (shared by every primitive) -------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            data[f.name] = getattr(self, f.name)
        return data


def _op(page: int, line: int, is_write: bool) -> int:
    """The packed op ``(address << 1) | is_write`` of one access."""
    return ((page * PAGE_SIZE + line * CACHELINE_SIZE) << 1) | is_write


#: A phase asked for no records.
_EMPTY = Trace.from_parts([], [])


def _gaps(rng: np.random.Generator, mpki: float, n: int) -> np.ndarray:
    """Exponential compute gaps with the Table I models' MPKI rule."""
    gap_mean = max(1.0, 1000.0 / max(mpki, 1e-6))
    return rng.exponential(gap_mean, size=n).astype(np.int64)


def _zipf_sampler(rng: np.random.Generator, alpha: float, pages: int):
    """A ``sample(n)`` closure drawing Zipf(alpha)-popular page indices
    in ``[0, pages)``.  The rank->page permutation is drawn **once** (hot
    pages keep their identity across batches, scattered through the
    domain as in the Table I models); each call consumes fresh draws
    from ``rng``, so repeated sampling stays deterministic."""
    ranks = np.arange(1, pages + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights) / weights.sum()
    perm = rng.permutation(pages)

    def sample(n: int) -> np.ndarray:
        draws = rng.random(n)
        ranked = np.searchsorted(cdf, draws, side="left")
        return perm[np.minimum(ranked, pages - 1)]

    return sample


def _bursts(rng: np.random.Generator, mean_burst: float, n: int) -> np.ndarray:
    bursts = rng.geometric(min(1.0, 1.0 / mean_burst), size=n)
    return np.clip(bursts, 1, CACHELINES_PER_PAGE)


@dataclass(frozen=True)
class ZipfPhase(Phase):
    """Skewed point accesses: Zipf page choice, geometric line bursts."""

    kind = "zipf"
    alpha: float = 1.2
    write_ratio: float = 0.1
    mpki: float = 30.0
    burst_mean: float = 4.0
    in_page_sequential: bool = False
    weight: float = 1.0

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        if records <= 0:
            return _EMPTY
        out: List[int] = []
        mean_burst = max(1.0, self.burst_mean)
        sample = _zipf_sampler(rng, self.alpha, ctx.pages)
        gaps = _gaps(rng, self.mpki, records).tolist()
        # Outer loop refills visit batches until the exact count is met
        # (a fixed visit estimate can undershoot when bursts run long).
        while len(out) < records:
            batch = max(1, int((records - len(out)) / mean_burst) + 8)
            bursts = _bursts(rng, mean_burst, batch).tolist()
            pages = sample(batch).tolist()
            for v in range(batch):
                if len(out) >= records:
                    break
                page = ctx.base_page + pages[v]
                burst = bursts[v]
                if self.in_page_sequential:
                    start = int(rng.integers(0, CACHELINES_PER_PAGE))
                    lines = [(start + i) % CACHELINES_PER_PAGE
                             for i in range(burst)]
                else:
                    lines = rng.choice(
                        CACHELINES_PER_PAGE,
                        size=min(burst, CACHELINES_PER_PAGE),
                        replace=False,
                    ).tolist()
                writes = (rng.random(len(lines)) < self.write_ratio).tolist()
                for i, line in enumerate(lines):
                    out.append(_op(page, line, writes[i]))
                    if len(out) >= records:
                        break
        return Trace.from_parts(gaps, out)


@dataclass(frozen=True)
class ScanPhase(Phase):
    """Sequential sweep: consecutive pages, consecutive lines."""

    kind = "scan"
    write_ratio: float = 0.0
    mpki: float = 8.0
    #: Consecutive lines touched per visited page before moving on.
    lines_per_page: int = 16
    #: Page step between visits (1 = dense sweep; larger = strided).
    stride_pages: int = 1
    weight: float = 1.0

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        if records <= 0:
            return _EMPTY
        out: List[int] = []
        lines_per_page = max(1, min(self.lines_per_page, CACHELINES_PER_PAGE))
        stride = max(1, self.stride_pages)
        cursor = int(rng.integers(0, ctx.pages))
        gaps = _gaps(rng, self.mpki, records).tolist()
        writes = (rng.random(records) < self.write_ratio).tolist()
        while len(out) < records:
            page = ctx.base_page + (cursor % ctx.pages)
            cursor += stride
            for line in range(lines_per_page):
                out.append(_op(page, line, writes[len(out)]))
                if len(out) >= records:
                    break
        return Trace.from_parts(gaps, out)


@dataclass(frozen=True)
class PointerChasePhase(Phase):
    """Dependent random walk: each access's page derives from the last.

    Walks a random permutation cycle of the page domain (next pointer =
    the permutation's successor), so every page is visited exactly once
    per lap with zero spatial locality -- the uniform stream that makes
    out-of-order execution "less effective for hiding the long flash
    access latency" (SS II-C).
    """

    kind = "chase"
    write_ratio: float = 0.05
    mpki: float = 60.0
    weight: float = 1.0

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        if records <= 0:
            return _EMPTY
        perm = rng.permutation(ctx.pages).tolist()
        start = int(rng.integers(0, ctx.pages))
        gaps = _gaps(rng, self.mpki, records).tolist()
        writes = (rng.random(records) < self.write_ratio).tolist()
        lines = rng.integers(0, CACHELINES_PER_PAGE, size=records).tolist()
        base, pages = ctx.base_page, ctx.pages
        return Trace.from_parts(gaps, [
            _op(base + perm[(start + i) % pages], lines[i], writes[i])
            for i in range(records)
        ])


@dataclass(frozen=True)
class BurstyWritePhase(Phase):
    """Append bursts into a log region at the top of the domain.

    Long idle gaps separate dense write bursts -- the WAL/ingest shape
    whose sparse, write-only pages the SkyByte write log absorbs without
    read-modify-write flash fetches.
    """

    kind = "write-burst"
    #: Lines appended per burst.
    burst_lines: int = 64
    #: Mean compute instructions between bursts.
    idle_gap_mean: float = 2000.0
    #: Mean compute instructions between appends inside a burst.
    inner_gap_mean: float = 10.0
    #: Tail fraction of the domain used as the append region.
    region_fraction: float = 0.25
    weight: float = 1.0

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        if records <= 0:
            return _EMPTY
        gaps: List[int] = []
        out: List[int] = []
        frac = min(max(self.region_fraction, 1.0 / max(ctx.pages, 1)), 1.0)
        region_pages = max(1, int(ctx.pages * frac))
        region_base = ctx.base_page + ctx.pages - region_pages
        burst = max(1, self.burst_lines)
        cursor = int(rng.integers(0, region_pages * CACHELINES_PER_PAGE))
        idle = rng.exponential(max(1.0, self.idle_gap_mean),
                               size=records).astype(np.int64).tolist()
        inner = rng.exponential(max(1.0, self.inner_gap_mean),
                                size=records).astype(np.int64).tolist()
        while len(out) < records:
            for b in range(burst):
                i = len(out)
                gaps.append(idle[i] if b == 0 else inner[i])
                page = region_base + (cursor // CACHELINES_PER_PAGE) % region_pages
                line = cursor % CACHELINES_PER_PAGE
                cursor += 1
                out.append(_op(page, line, True))
                if len(out) >= records:
                    break
        return Trace.from_parts(gaps, out)


@dataclass(frozen=True)
class DriftPhase(Phase):
    """Zipf accesses over a working-set window sliding through the
    footprint -- the page-promotion-hostile churn pattern (a hot set
    that will not stay hot)."""

    kind = "drift"
    alpha: float = 1.1
    write_ratio: float = 0.2
    mpki: float = 25.0
    burst_mean: float = 4.0
    #: Working-set window size as a fraction of the footprint.
    window_fraction: float = 0.125
    #: Pages the window advances per page visit.
    drift_per_visit: float = 0.5
    weight: float = 1.0

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        if records <= 0:
            return _EMPTY
        out: List[int] = []
        window = max(1, int(ctx.pages * min(max(self.window_fraction, 0.0), 1.0)))
        mean_burst = max(1.0, self.burst_mean)
        sample = _zipf_sampler(rng, self.alpha, window)
        gaps = _gaps(rng, self.mpki, records).tolist()
        origin = float(rng.integers(0, ctx.pages))
        # Refill visit batches until the exact count is met; the window
        # origin keeps drifting across batches.
        while len(out) < records:
            batch = max(1, int((records - len(out)) / mean_burst) + 8)
            bursts = _bursts(rng, mean_burst, batch).tolist()
            offsets = sample(batch).tolist()
            for v in range(batch):
                if len(out) >= records:
                    break
                page = ctx.base_page + (int(origin) + offsets[v]) % ctx.pages
                origin += self.drift_per_visit
                burst = bursts[v]
                lines = rng.choice(
                    CACHELINES_PER_PAGE,
                    size=min(burst, CACHELINES_PER_PAGE),
                    replace=False,
                ).tolist()
                writes = (rng.random(len(lines)) < self.write_ratio).tolist()
                for i, line in enumerate(lines):
                    out.append(_op(page, line, writes[i]))
                    if len(out) >= records:
                        break
        return Trace.from_parts(gaps, out)


@dataclass(frozen=True)
class TableIPhase(Phase):
    """One of the seven Table I applications, generated verbatim.

    Delegates to :class:`~repro.workloads.models.WorkloadModel` with the
    scenario's ``(scale, seed, tid, threads)``, so a scenario consisting
    of exactly one ``TableIPhase`` reproduces the seed model's traces
    **bit-exactly** (pinned in ``tests/golden/scenario_table1.json``).
    """

    kind = "table1"
    workload: str = "bc"
    weight: float = 1.0

    @property
    def partitioned(self) -> bool:  # type: ignore[override]
        from repro.workloads.suites import get_spec

        return get_spec(self.workload).partitioned

    def generate(
        self, ctx: PhaseContext, rng: np.random.Generator, records: int
    ) -> Trace:
        del rng  # the model derives its own generators from (seed, tid)
        model = _table1_model(self.workload, ctx.scale, ctx.seed)
        return model.generate_thread(ctx.tid, ctx.threads, records)


@lru_cache(maxsize=32)
def _table1_model(workload: str, scale: int, seed: int):
    """One :class:`~repro.workloads.models.WorkloadModel` per ``(workload,
    scale, seed)``, so its Zipf CDF, page permutation and hot-write set
    are built once for all of a scenario's threads."""
    # Local import: repro.workloads.suites must stay importable
    # without this package (it is lower in the layer map).
    from repro.workloads.models import WorkloadModel
    from repro.workloads.suites import get_spec

    return WorkloadModel(get_spec(workload), scale=scale, seed=seed)


#: Serialization tag -> primitive class.
PHASE_KINDS: Dict[str, Type[Phase]] = {
    cls.kind: cls
    for cls in (ZipfPhase, ScanPhase, PointerChasePhase, BurstyWritePhase,
                DriftPhase, TableIPhase)
}


def phase_from_dict(data: Dict[str, object]) -> Phase:
    """Inverse of :meth:`Phase.to_dict`."""
    kind = data.get("kind")
    cls = PHASE_KINDS.get(str(kind))
    if cls is None:
        raise ValueError(
            f"unknown phase kind {kind!r}; known: {sorted(PHASE_KINDS)}"
        )
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    names = {f.name for f in fields(cls)}  # type: ignore[arg-type]
    unknown = set(kwargs) - names
    if unknown:
        raise ValueError(
            f"unknown field(s) {sorted(unknown)} for phase kind {kind!r}"
        )
    return cls(**kwargs)


@dataclass(frozen=True)
class Scenario:
    """A named, deterministic workload built from phase primitives.

    Phases execute sequentially per thread; each phase's share of the
    thread's records is its ``weight`` over the sum of weights (the last
    phase absorbs rounding).  ``partitioned`` slices the footprint per
    thread like the Table I radix model; otherwise threads share it.
    """

    name: str
    footprint_bytes: int
    phases: Tuple[Phase, ...]
    mlp: int = 8
    partitioned: bool = False
    description: str = ""

    def footprint_pages(self, scale: int = 1) -> int:
        """Working-set size in 4 KB pages (the WorkloadSpec rule)."""
        return max(64, int(self.footprint_bytes / scale) // PAGE_SIZE)

    def _record_split(self, records: int) -> List[int]:
        weights = [max(0.0, float(p.weight)) for p in self.phases]
        total = sum(weights) or 1.0
        counts = [int(records * w / total) for w in weights]
        counts[-1] += records - sum(counts)
        return counts

    @property
    def depends_on_thread_count(self) -> bool:
        """Whether thread ``t``'s trace changes with the thread count: the
        scenario or one of its phases partitions the footprint."""
        return self.partitioned or any(p.partitioned for p in self.phases)

    def generate_thread(
        self,
        tid: int,
        threads: int,
        records: int,
        scale: int = 1,
        seed: int = 42,
    ) -> Trace:
        """One thread's trace: each phase contributes its weighted share."""
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} has no phases")
        pages = self.footprint_pages(scale)
        if self.partitioned and threads > 1:
            span = pages // threads
            base_page = tid * span
            local_pages = max(1, span)
        else:
            base_page = 0
            local_pages = pages
        parts: List[Trace] = []
        for index, (phase, count) in enumerate(
            zip(self.phases, self._record_split(records))
        ):
            rng = np.random.default_rng(
                ((seed * 1_000_003 + tid) ^ (0x5CE0A0 + index)) & 0x7FFFFFFF
            )
            ctx = PhaseContext(
                base_page=base_page,
                pages=local_pages,
                scale=scale,
                seed=seed,
                tid=tid,
                threads=threads,
            )
            parts.append(phase.generate(ctx, rng, count))
        return Trace.concat(parts)

    def generate(
        self,
        threads: int,
        records_per_thread: int,
        scale: int = 1,
        seed: int = 42,
        tids: Optional[Sequence[int]] = None,
    ) -> List[Trace]:
        """Per-thread traces for thread ids ``tids`` (default: all
        ``threads``; the :class:`WorkloadModel.generate` shape)."""
        if tids is None:
            tids = range(threads)
        return [
            self.generate_thread(tid, threads, records_per_thread,
                                 scale=scale, seed=seed)
            for tid in tids
        ]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "footprint_bytes": self.footprint_bytes,
            "phases": [p.to_dict() for p in self.phases],
            "mlp": self.mlp,
            "partitioned": self.partitioned,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        return cls(
            name=str(data["name"]),
            footprint_bytes=int(data["footprint_bytes"]),
            phases=tuple(phase_from_dict(p) for p in data["phases"]),
            mlp=int(data.get("mlp", 8)),
            partitioned=bool(data.get("partitioned", False)),
            description=str(data.get("description", "")),
        )
