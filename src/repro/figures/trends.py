"""Per-commit fidelity/speed trend tracking (``<output>/trends.ndjson``).

``repro report`` appends one NDJSON row per completed report run, carrying
the headline numbers of ``BENCH_fidelity.json`` and (when present)
``BENCH_speed.json`` plus the current git commit, so a report directory
kept across runs (or any ``--trends`` file) accumulates a queryable
history of reproduction quality and simulator speed.  The report itself renders the recent history as a sparkline table.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Rows rendered in the report's trend table (the file keeps everything).
TREND_WINDOW = 20

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def current_commit() -> Optional[str]:
    """Short git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def trend_row(
    fidelity: Optional[Dict[str, object]],
    speed: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """One NDJSON row from the two bench payloads (either may be None)."""
    row: Dict[str, object] = {
        "ts": round(time.time(), 3),
        "commit": current_commit(),
    }
    if fidelity:
        overall = fidelity.get("overall", {})
        row["fidelity_score"] = overall.get("score")
        row["fidelity_complete"] = overall.get("complete")
        row["cells_run"] = overall.get("cells_run")
        row["cells_cached"] = overall.get("cells_cached")
    if speed:
        row["accesses_per_s"] = {
            name: _accesses_per_s(entry)
            for name, entry in (speed.get("workloads") or {}).items()
        }
    return row


def _accesses_per_s(entry: object) -> Optional[float]:
    """A ``BENCH_speed.json`` workload entry's perfbench throughput."""
    try:
        return _num(entry["result"]["metrics"]["accesses_per_s"]["value"])
    except (KeyError, TypeError):
        return None


def append_trend(
    trends_path: Path,
    fidelity_path: Optional[Path] = None,
    speed_path: Optional[Path] = None,
) -> Optional[Dict[str, object]]:
    """Append a row built from the bench files; returns it (or None if
    neither input exists)."""
    fidelity = _load(fidelity_path)
    speed = _load(speed_path)
    if fidelity is None and speed is None:
        return None
    row = trend_row(fidelity, speed)
    trends_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trends_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_trends(trends_path: Path) -> List[Dict[str, object]]:
    """Every well-formed row of the trend file, oldest first."""
    if not trends_path.exists():
        return []
    rows: List[Dict[str, object]] = []
    for line in trends_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def sparkline(values: List[Optional[float]]) -> str:
    """Unicode sparkline; missing values render as spaces."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for v in values:
        if v is None:
            chars.append(" ")
        elif span <= 0:
            chars.append(_SPARK_CHARS[-1])
        else:
            idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[idx])
    return "".join(chars)


def render_markdown(rows: List[Dict[str, object]]) -> List[str]:
    """Markdown lines for the report's trend section (empty if no rows)."""
    if not rows:
        return []
    recent = rows[-TREND_WINDOW:]
    series = [("fidelity score",
               [_num(r.get("fidelity_score")) for r in recent])]
    throughput = [r.get("accesses_per_s") or {} for r in recent]
    for name in sorted({n for per in throughput for n in per}):
        series.append((f"{name} accesses/s",
                       [_num(per.get(name)) for per in throughput]))
    # Rows written before the speed gate ran perfbench carry this.
    speedup = [_num(r.get("speedup_geomean")) for r in recent]
    if any(v is not None for v in speedup):
        series.append(("vector/scalar speedup (geomean)", speedup))
    lines = [
        f"Last {len(recent)} report run(s) from the trend file "
        f"(oldest left).",
        "",
        "| metric | trend | latest |",
        "| --- | --- | ---: |",
    ]
    for label, values in series:
        lines.append(f"| {label} | `{sparkline(values) or '-'}` "
                     f"| {_fmt(values[-1])} |")
    return lines


def _num(value: object) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3g}"


def _load(path: Optional[Path]) -> Optional[Dict[str, object]]:
    if path is None or not Path(path).exists():
        return None
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None
