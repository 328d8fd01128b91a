#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cells-flat --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` makes a separate traced run and prints every
per-layer metric.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds run context (host calibration, sample counts).  The
workloads, metrics and the per-layer -> end-to-end table live in
``spec.json``; ``README.md`` explains them.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - T0 must precede every import
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, calibrate, clean_environment, load_spec  # noqa: E402


def _benchmark_mismatch(spec) -> str:
    """Names and units ``BENCHMARK.json`` lists that ``spec.json`` does
    not (or the reverse); empty when the two agree."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    for key in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        ours = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != ours:
            return f"{key}: {sorted(set(listed) ^ set(ours))}"
    names = [w["name"] for w in bench["workloads"]]
    if names != [w["name"] for w in spec["workloads"]]:
        return f"workloads: {names}"
    return ""


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A shell that starts us in the background ignores SIGINT, and child
    # processes inherit that; the service workload stops its coordinator
    # with SIGINT, so put the default handler back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    clean_environment()
    workload = next(w for w in spec["workloads"] if w["name"] == args.workload)
    # Timed in every interpreter, set-up probes included, so each set-up
    # sample contains the same work.
    calibration = calibrate()
    if args.setup_probe:
        import cells

        print(json.dumps(cells.probe(args.workload, workload, args.seed, T0)))
        return 0
    mismatch = _benchmark_mismatch(spec)
    if mismatch:
        print(f"perfbench: BENCHMARK.json and spec.json disagree: {mismatch}",
              file=sys.stderr)
        return 2

    if workload["kind"] == "service":
        import service as module
    else:
        import cells as module
    outcome = module.run(args.workload, workload, spec, args.seed,
                         args.seconds, bool(args.trace), T0)
    checker = outcome["checker"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = calibration if name == "host.calibration_s" else \
            outcome["metrics"][name]
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    context = dict(outcome["context"])
    context.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "host.calibration_s": calibration,
                    "failures": checker.notes})
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
