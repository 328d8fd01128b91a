"""Speed gate: ``repro bench``.

Runs the repository benchmark, ``perfbench/run.py --workload W --seed N
--trace 0`` (``--seed``, default 1), on the two in-process workloads
(``cells-flat`` and ``cells-deep-gc``) and writes ``BENCH_speed.json``
(schema 2): each workload's result line, its host calibration and timed
pass walls, the seed, git sha, python and platform.

``--against DIR`` turns the run into a same-host A/B gate.  Each of
``--pairs`` pairs runs DIR's perfbench and this checkout's side by side,
each process pinned to its own core (the cores swap every pair), so
both sides of a pair see the same host state.  The gate fails (exit 1)
when any run reports ``correct: false`` or ``failed > 0``, or when on
either workload the median per-pair ``accesses_per_s`` ratio (this tree
over DIR) falls below :data:`FLOOR` or the median per-pair
``peak_rss_mb`` ratio rises above :data:`RSS_CEILING`.  Same-host pairs
need neither a
calibration nor a committed baseline; ``docs/PERFORMANCE.md`` records
the A/A spread the floor was set from.

``--workload service-sweep`` runs the fleet workload instead.  It runs
four processes on two cores, so its pairs run one after the other,
unpinned, alternating which side goes first; each pair prints the
``job_cold_s`` and ``accesses_per_s`` ratios.  Only its correctness
checks gate it: it has no floor yet.  Its summary also carries, for
every end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the per-pair ratios (this tree over DIR), the pairs this
tree won, and whether they make a gain (wins in at least nine tenths
of the pairs, medians apart by more than DIR's interquartile range) or
a regression beyond the metric's bound, so a claim and every
no-regression row read off one file.
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
DEFAULT_SEED = 1
WORKLOADS = ("cells-flat", "cells-deep-gc")
#: Workloads that run their pairs one after the other, unpinned, and
#: are gated only on correctness.
FLEET_WORKLOADS = ("service-sweep",)
#: The gate fails when a workload's median per-pair ``accesses_per_s``
#: ratio (this tree / the ``--against`` tree) is below this.
FLOOR = 0.85
#: The gate fails when a workload's median per-pair ``peak_rss_mb``
#: ratio (this tree / the ``--against`` tree) is above this.
RSS_CEILING = 1.10
#: The checkout this module belongs to (``src/repro/bench.py``).
ROOT = Path(__file__).resolve().parents[2]

#: ``launch(root, workload, cpu, seed)`` starts one perfbench run (pinned
#: to ``cpu`` unless it is None) and returns a function that waits for it
#: and returns its :func:`parse_output` entry.
Launch = Callable[[Path, str, Optional[int], int],
                  Callable[[], Dict[str, object]]]


class BenchError(RuntimeError):
    """A perfbench run that failed or printed no result."""


def perfbench_command(root: Path, workload: str,
                      seed: int = DEFAULT_SEED) -> List[str]:
    return [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]


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
    root: Path, workload: str, cpu: Optional[int], seed: int = DEFAULT_SEED
) -> Callable[[], Dict[str, object]]:
    """Start ``root``'s perfbench on ``workload`` in the background."""
    proc = subprocess.Popen(
        perfbench_command(root, workload, seed), cwd=root,
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


def metric(entry: Mapping[str, object], name: str) -> float:
    return float(entry["result"]["metrics"][name]["value"])


def accesses_per_s(entry: Mapping[str, object]) -> float:
    return metric(entry, "accesses_per_s")


def peak_rss_mb(entry: Mapping[str, object]) -> float:
    return metric(entry, "peak_rss_mb")


def job_cold_s(entry: Mapping[str, object]) -> float:
    return metric(entry, "job_cold_s")


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
    side_by_side: bool, seed: int,
) -> List[Dict[str, object]]:
    """Run each ``(root, cpu)`` of ``sides`` on ``workload``: all at once
    when ``side_by_side``, else one after the other in order."""
    if side_by_side:
        waits = [launch(root, workload, cpu, seed) for root, cpu in sides]
        return [wait() for wait in waits]
    return [launch(root, workload, cpu, seed)() for root, cpu in sides]


def run_bench(
    against: Optional[Path] = None,
    pairs: int = DEFAULT_PAIRS,
    launch: Launch = launch_perfbench,
    cpus: Optional[Sequence[int]] = None,
    root: Path = ROOT,
    echo: Callable[[str], None] = lambda _line: None,
    seed: int = DEFAULT_SEED,
    workloads: Sequence[str] = WORKLOADS,
) -> Dict[str, object]:
    """Assemble the ``BENCH_speed.json`` payload.

    Without ``against`` each workload runs once, unpinned.  With it,
    each pair pins this tree and ``against`` to two cores of ``cpus``
    (default: this process's affinity) and swaps them on odd pairs; a
    host with one usable core, and a workload of
    :data:`FLEET_WORKLOADS`, runs the two one after the other instead,
    unpinned for the latter, alternating which goes first.
    """
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": "speed",
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "platform": sys.platform,
        "command": " ".join(perfbench_command(Path("."), "W", seed)[1:]),
        "seed": seed,
        "workloads": {},
    }
    if against is None:
        for workload in workloads:
            entry = launch(root, workload, None, seed)()
            payload["workloads"][workload] = entry
            echo(f"{workload}: {accesses_per_s(entry):,.0f} accesses/s")
        return payload

    cpus = sorted(os.sched_getaffinity(0)) if cpus is None else list(cpus)
    side_by_side = len(cpus) >= 2
    runs: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    for index in range(max(1, pairs)):
        swap = index % 2 == 1
        this_cpu, base_cpu = cpus[0], cpus[1 if side_by_side else 0]
        if swap:
            this_cpu, base_cpu = base_cpu, this_cpu
        for workload in workloads:
            fleet = workload in FLEET_WORKLOADS
            sides = ([(root, None), (against, None)] if fleet
                     else [(root, this_cpu), (against, base_cpu)])
            # Odd pairs also start the other side first (which matters
            # only when the two run one after the other).
            got = _run_pair(launch, workload, sides[::-1] if swap else sides,
                            side_by_side and not fleet, seed)
            this, base = got[::-1] if swap else got
            ratio = accesses_per_s(this) / accesses_per_s(base)
            rss_ratio = peak_rss_mb(this) / peak_rss_mb(base)
            run = {"this": this, "base": base, "ratio": ratio,
                   "rss_ratio": rss_ratio,
                   "cpus": [sides[0][1], sides[1][1]]}
            line = (f"pair {index + 1} {workload}: this/base "
                    f"{accesses_per_s(this):,.0f}/{accesses_per_s(base):,.0f}"
                    f" accesses/s = {ratio:.3f}, "
                    f"{peak_rss_mb(this):.1f}/{peak_rss_mb(base):.1f}"
                    f" peak MB = {rss_ratio:.3f}")
            if fleet:
                line += (f", {job_cold_s(this):.3f}/{job_cold_s(base):.3f}"
                         f" job_cold_s = "
                         f"{job_cold_s(this) / job_cold_s(base):.3f}")
            runs[workload].append(run)
            payload["workloads"][workload] = this
            echo(line)
    payload["against"] = {
        "dir": str(against),
        "git_sha": git_sha(against),
        "floor": FLOOR,
        "rss_ceiling": RSS_CEILING,
        "side_by_side": side_by_side,
        "workloads": {workload: _summary(workload, rs, root)
                      for workload, rs in runs.items()},
    }
    return payload


def _summary(workload: str, runs: Sequence[Mapping[str, object]],
             root: Path) -> Dict[str, object]:
    """One workload's pairs and their median ratios; ``gated`` says
    whether the floor and ceiling apply to it.  A fleet workload also
    gets :func:`metric_summary` of each of ``root``'s end-to-end
    metrics that every run reports."""
    data: Dict[str, object] = {
        "gated": workload not in FLEET_WORKLOADS,
        "median_ratio": statistics.median(r["ratio"] for r in runs),
        "median_rss_ratio": statistics.median(r["rss_ratio"] for r in runs),
        "pairs": list(runs),
    }
    if not data["gated"]:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        data["metrics"] = {
            m["name"]: metric_summary(m, runs) for m in spec["end_to_end"]
            if all(m["name"] in r[side]["result"]["metrics"]
                   for r in runs for side in ("this", "base"))}
    return data


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else list(values) * 3)
    return {"q1": q1, "median": median, "q3": q3}


def metric_summary(spec: Mapping[str, object],
                   runs: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """One end-to-end metric over the pairs of an A/B run.

    ``spec`` is its ``BENCHMARK.json`` entry (``better`` and ``bound``).
    ``ratios`` are this tree over the base, per pair.  A pair is a win
    when this tree reads better (a tie is no win).  ``gain``: wins in at
    least nine tenths of the pairs and medians apart by more than the
    base's interquartile range.  ``regressed``: this tree's median is
    worse than the base's by more than ``bound`` (a fraction of it).
    """
    name, lower = spec["name"], spec["better"] == "lower"
    this = [metric(r["this"], name) for r in runs]
    base = [metric(r["base"], name) for r in runs]
    wins = sum((t < b) if lower else (t > b) for t, b in zip(this, base))
    mine, theirs = _quartiles(this), _quartiles(base)
    sign = 1 if lower else -1
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "this": mine,
        "base": theirs,
        "ratios": [t / b if b else None for t, b in zip(this, base)],
        "wins": wins,
        "pairs": len(runs),
        "gain": (wins >= 0.9 * len(runs)
                 and sign * (theirs["median"] - mine["median"])
                 > theirs["q3"] - theirs["q1"]),
        "regressed": (sign * (mine["median"] - theirs["median"])
                      > spec["bound"] * abs(theirs["median"])),
    }


def compare(payload: Mapping[str, object]) -> List[str]:
    """Why ``payload`` fails the gate (empty when it passes)."""
    checks = [(w, e["result"]) for w, e in payload["workloads"].items()]
    slow: List[str] = []
    against = payload.get("against") or {"workloads": {}}
    for workload, data in against["workloads"].items():
        for index, pair in enumerate(data["pairs"], 1):
            checks += [(f"{workload} pair {index} {side}", pair[side]["result"])
                       for side in ("this", "base")]
        if not data.get("gated", True):
            continue
        if data["median_ratio"] < against["floor"]:
            slow.append(f"{workload}: median accesses_per_s ratio "
                        f"{data['median_ratio']:.3f} is below the floor "
                        f"{against['floor']:.2f}")
        if data["median_rss_ratio"] > against["rss_ceiling"]:
            slow.append(f"{workload}: median peak_rss_mb ratio "
                        f"{data['median_rss_ratio']:.3f} is above the "
                        f"ceiling {against['rss_ceiling']:.2f}")
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
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"perfbench panel seed (default {DEFAULT_SEED})")
    parser.add_argument("--workload", default=None,
                        choices=WORKLOADS + FLEET_WORKLOADS,
                        help="run only this perfbench workload (default: "
                             f"{' and '.join(WORKLOADS)}); "
                             f"{', '.join(FLEET_WORKLOADS)} runs its pairs "
                             "one after the other, gated on correctness "
                             "only")


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
                            echo=lambda line: print(line, flush=True),
                            seed=args.seed,
                            workloads=((args.workload,) if args.workload
                                       else WORKLOADS))
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
            f"{w} {d['median_ratio']:.3f} (peak MB {d['median_rss_ratio']:.3f}"
            + (")" if d["gated"] else
               f", job_cold_s {_median_ratio(d, 'job_cold_s'):.3f}, "
               "not gated)")
            for w, d in payload["against"]["workloads"].items())
        print(f"speed gate passed: median ratios {medians} "
              f"(floor {FLOOR:.2f}, peak MB ceiling {RSS_CEILING:.2f})")
        for workload, data in payload["against"]["workloads"].items():
            for name, row in data.get("metrics", {}).items():
                print(f"  {workload} {name}: this {_spread(row['this'])}, "
                      f"base {_spread(row['base'])}, {row['wins']}/"
                      f"{row['pairs']} wins"
                      + (", gain" if row["gain"] else "")
                      + (", regressed" if row["regressed"] else ""))
    return 0


def _median_ratio(summary: Mapping[str, object], name: str) -> float:
    return statistics.median(summary["metrics"][name]["ratios"])


def _spread(quartiles: Mapping[str, float]) -> str:
    return (f"{quartiles['median']:.4g} "
            f"[{quartiles['q1']:.4g}-{quartiles['q3']:.4g}]")
