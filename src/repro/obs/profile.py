"""In-process profile of one simulation cell (``repro profile``).

The first run of a cell fills the trace and FTL preconditioning memos
(see :mod:`repro.experiments.runner`), so :func:`profile_cell` profiles
a *second* run, on the calling thread, and shows the steady state the
later cells of a sweep see.  :func:`render_counts` states the run's
exact counts: Python calls and engine events, each also per simulated
access.  They do not depend on the host's speed, so two commits compare
by them where wall times are too noisy.  :func:`render_profile` sums
self time per ``repro.<package>`` (everything outside ``repro``, such
as builtins, the standard library and numpy, is one ``other`` row) and
lists the functions with the most self time.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
from typing import Dict, List, Tuple

#: The ``repro`` package directory.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def package_of(filename: str) -> str:
    """``repro.<package>`` (or ``repro.<module>``) a profiled function's
    file belongs to, or ``other``."""
    path = os.path.abspath(filename)
    if not path.startswith(_ROOT + os.sep):
        return "other"
    head = os.path.relpath(path, _ROOT).split(os.sep)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return "repro" if head == "__init__" else f"repro.{head}"


def profile_cell(workload: str, variant: str, **kwargs):
    """Run the cell once, then profile a second run of it; returns that
    run's ``RunResult``, its ``pstats.Stats`` and the engine events it
    executed."""
    from repro.experiments.runner import run_workload
    from repro.sim.engine import events_processed

    run_workload(workload, variant, **kwargs)
    # Finalizers of garbage left by earlier work (this run's or the
    # caller's) would otherwise run, and be counted, inside the profile.
    gc.collect()
    profiler = cProfile.Profile()
    before = events_processed()
    profiler.enable()
    try:
        result = run_workload(workload, variant, **kwargs)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler), events_processed() - before


def render_counts(stats: pstats.Stats, events: int, accesses: int) -> str:
    """The profiled run's exact counts: calls (``total_calls``) and
    engine events, each also per simulated access."""
    per = max(accesses, 1)
    return (f"counts: {stats.total_calls:,} calls "
            f"({stats.total_calls / per:.2f} per access), {events:,} "
            f"engine events ({events / per:.3f} per access), "
            f"{accesses:,} simulated accesses")


def package_table(stats: pstats.Stats) -> List[Tuple[str, float]]:
    """``(package, self seconds)`` rows, most self time first."""
    totals: Dict[str, float] = {}
    for (filename, _line, _name), entry in stats.stats.items():
        package = package_of(filename)
        totals[package] = totals.get(package, 0.0) + entry[2]
    return sorted(totals.items(), key=lambda row: (-row[1], row[0]))


def top_functions(
    stats: pstats.Stats, k: int
) -> List[Tuple[float, int, str]]:
    """The ``k`` functions with the most self time: ``(self seconds,
    calls, where)``."""
    rows = []
    for (filename, line, name), entry in stats.stats.items():
        if filename == "~":
            where = name  # a builtin: "<built-in method ...>"
        else:
            where = f"{_short(filename)}:{line}({name})"
        rows.append((entry[2], entry[1], where))
    rows.sort(key=lambda row: (-row[0], row[2]))
    return rows[:k]


def _short(filename: str) -> str:
    path = os.path.abspath(filename)
    if path.startswith(_ROOT + os.sep):
        return "repro/" + os.path.relpath(path, _ROOT).replace(os.sep, "/")
    return os.path.basename(filename)


def render_profile(stats: pstats.Stats, top: int) -> str:
    """The package table, then the top ``top`` functions."""
    total = stats.total_tt
    lines = [f"{'package':<22} {'self_s':>9} {'share':>7}"]
    for package, seconds in package_table(stats):
        share = seconds / total if total else 0.0
        lines.append(f"{package:<22} {seconds:>9.4f} {share:>7.1%}")
    lines.append(f"{'total':<22} {total:>9.4f} {1.0 if total else 0.0:>7.1%}")
    if top > 0:
        lines.append("")
        lines.append(f"top {top} functions by self time:")
        lines.append(f"{'self_s':>9} {'calls':>10}  function")
        for seconds, calls, where in top_functions(stats, top):
            lines.append(f"{seconds:>9.4f} {calls:>10}  {where}")
    return "\n".join(lines)
