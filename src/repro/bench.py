"""Speed gate: ``repro bench``.

Runs the repository benchmark, ``perfbench/run.py --workload W --seed 1
--trace 0``, on the two in-process workloads (``cells-flat`` and
``cells-deep-gc``) and writes ``BENCH_speed.json`` (schema 2): each
workload's result line, its host calibration and timed pass walls, the
git sha, python and platform.

``--against DIR`` turns the run into a same-host A/B gate.  Each of
``--pairs`` pairs runs DIR's perfbench and this checkout's side by side,
each process pinned to its own core (the cores swap every pair), so
both sides of a pair see the same host state.  The gate fails (exit 1)
when any run reports ``correct: false`` or ``failed > 0``, or when on
either workload the median per-pair ``accesses_per_s`` ratio (this tree
over DIR) falls below :data:`FLOOR`.  Same-host pairs need neither a
calibration nor a committed baseline; ``docs/PERFORMANCE.md`` records
the A/A spread the floor was set from.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

SCHEMA_VERSION = 2
DEFAULT_OUT = "BENCH_speed.json"
DEFAULT_PAIRS = 5
WORKLOADS = ("cells-flat", "cells-deep-gc")
#: The gate fails when a workload's median per-pair ``accesses_per_s``
#: ratio (this tree / the ``--against`` tree) is below this.
FLOOR = 0.85
#: The checkout this module belongs to (``src/repro/bench.py``).
ROOT = Path(__file__).resolve().parents[2]

#: ``launch(root, workload, cpu)`` starts one perfbench run (pinned to
#: ``cpu`` unless it is None) and returns a function that waits for it
#: and returns its :func:`parse_output` entry.
Launch = Callable[[Path, str, Optional[int]], Callable[[], Dict[str, object]]]


class BenchError(RuntimeError):
    """A perfbench run that failed or printed no result."""


def perfbench_command(root: Path, workload: str) -> List[str]:
    return [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--trace", "0"]


def parse_output(stdout: str) -> Dict[str, object]:
    """One workload's entry from perfbench's last two output lines (run
    context, then the result)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as exc:
        raise BenchError(f"no perfbench result in output: {exc}") from None
    return {
        "result": result,
        "host.calibration_s": context.get("host.calibration_s"),
        "timed_pass_walls_s": context.get("timed_pass_walls_s", []),
    }


def launch_perfbench(
    root: Path, workload: str, cpu: Optional[int]
) -> Callable[[], Dict[str, object]]:
    """Start ``root``'s perfbench on ``workload`` in the background."""
    proc = subprocess.Popen(
        perfbench_command(root, workload), cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})

    def wait() -> Dict[str, object]:
        stdout, stderr = proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{root}: perfbench {workload} exited "
                             f"{proc.returncode}: {stderr.strip()[-500:]}")
        return parse_output(stdout)

    return wait


def accesses_per_s(entry: Mapping[str, object]) -> float:
    return float(entry["result"]["metrics"]["accesses_per_s"]["value"])


def git_sha(root: Path) -> Optional[str]:
    """``HEAD`` of ``root`` (``-dirty`` when tracked files differ from
    it), or None outside a git checkout."""
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", "-C", str(root), *args],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if not sha:
        return None
    return sha + "-dirty" if git("status", "--porcelain",
                                  "--untracked-files=no") else sha


def _run_pair(
    launch: Launch, workload: str, sides: Sequence[Tuple[Path, int]],
    side_by_side: bool,
) -> List[Dict[str, object]]:
    """Run each ``(root, cpu)`` of ``sides`` on ``workload``: all at once
    when ``side_by_side``, else one after the other in order."""
    if side_by_side:
        waits = [launch(root, workload, cpu) for root, cpu in sides]
        return [wait() for wait in waits]
    return [launch(root, workload, cpu)() for root, cpu in sides]


def run_bench(
    against: Optional[Path] = None,
    pairs: int = DEFAULT_PAIRS,
    launch: Launch = launch_perfbench,
    cpus: Optional[Sequence[int]] = None,
    root: Path = ROOT,
    echo: Callable[[str], None] = lambda _line: None,
) -> Dict[str, object]:
    """Assemble the ``BENCH_speed.json`` payload.

    Without ``against`` each workload runs once, unpinned.  With it,
    each pair pins this tree and ``against`` to two cores of ``cpus``
    (default: this process's affinity) and swaps them on odd pairs; a
    host with one usable core runs the two one after the other instead,
    alternating which goes first.
    """
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": "speed",
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "platform": sys.platform,
        "command": " ".join(perfbench_command(Path("."), "W")[1:]),
        "workloads": {},
    }
    if against is None:
        for workload in WORKLOADS:
            entry = launch(root, workload, None)()
            payload["workloads"][workload] = entry
            echo(f"{workload}: {accesses_per_s(entry):,.0f} accesses/s")
        return payload

    cpus = sorted(os.sched_getaffinity(0)) if cpus is None else list(cpus)
    side_by_side = len(cpus) >= 2
    runs: Dict[str, List[Dict[str, object]]] = {w: [] for w in WORKLOADS}
    for index in range(max(1, pairs)):
        swap = index % 2 == 1
        this_cpu, base_cpu = cpus[0], cpus[1 if side_by_side else 0]
        if swap:
            this_cpu, base_cpu = base_cpu, this_cpu
        sides = [(root, this_cpu), (against, base_cpu)]
        for workload in WORKLOADS:
            # Odd pairs also start the other side first (which matters
            # only when the two run one after the other).
            got = _run_pair(launch, workload, sides[::-1] if swap else sides,
                            side_by_side)
            this, base = got[::-1] if swap else got
            ratio = accesses_per_s(this) / accesses_per_s(base)
            runs[workload].append({
                "this": this, "base": base, "ratio": ratio,
                "cpus": [this_cpu, base_cpu],
            })
            payload["workloads"][workload] = this
            echo(f"pair {index + 1} {workload}: this/base "
                 f"{accesses_per_s(this):,.0f}/{accesses_per_s(base):,.0f}"
                 f" accesses/s = {ratio:.3f}")
    payload["against"] = {
        "dir": str(against),
        "git_sha": git_sha(against),
        "floor": FLOOR,
        "side_by_side": side_by_side,
        "workloads": {
            workload: {
                "median_ratio": statistics.median(r["ratio"] for r in rs),
                "pairs": rs,
            }
            for workload, rs in runs.items()
        },
    }
    return payload


def compare(payload: Mapping[str, object]) -> List[str]:
    """Why ``payload`` fails the gate (empty when it passes)."""
    checks = [(w, e["result"]) for w, e in payload["workloads"].items()]
    slow: List[str] = []
    against = payload.get("against") or {"workloads": {}}
    for workload, data in against["workloads"].items():
        for index, pair in enumerate(data["pairs"], 1):
            checks += [(f"{workload} pair {index} {side}", pair[side]["result"])
                       for side in ("this", "base")]
        if data["median_ratio"] < against["floor"]:
            slow.append(f"{workload}: median accesses_per_s ratio "
                        f"{data['median_ratio']:.3f} is below the floor "
                        f"{against['floor']:.2f}")
    wrong = [f"{name}: correct={r.get('correct')} failed={r.get('failed')}"
             for name, r in checks
             if r.get("correct") is not True or r.get("failed") != 0]
    return wrong + slow


def write_json(path: os.PathLike, payload: Mapping[str, object]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def add_arguments(parser) -> None:
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--against", default=None, metavar="DIR",
                        help="gate this checkout against the checkout in DIR "
                             "with side-by-side pinned pairs")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help=f"A/B pairs with --against (default "
                             f"{DEFAULT_PAIRS})")


def run_from_args(args, launch: Launch = launch_perfbench,
                  cpus: Optional[Sequence[int]] = None) -> int:
    """Execute a parsed bench invocation; returns the exit code."""
    against = None
    if args.against is not None:
        against = Path(args.against).resolve()
        if not (against / "perfbench" / "run.py").is_file():
            print(f"--against {args.against}: no perfbench/run.py there",
                  file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("--pairs must be at least 1", file=sys.stderr)
        return 2
    try:
        payload = run_bench(against, args.pairs, launch=launch, cpus=cpus,
                            echo=lambda line: print(line, flush=True))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    found = compare(payload)
    payload["passed"] = not found
    write_json(args.out, payload)
    print(f"wrote {args.out}")
    if found:
        print("speed gate failed:", file=sys.stderr)
        for problem in found:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if against is not None:
        medians = ", ".join(
            f"{w} {d['median_ratio']:.3f}"
            for w, d in payload["against"]["workloads"].items())
        print(f"speed gate passed: median ratios {medians} "
              f"(floor {FLOOR:.2f})")
    return 0
