#!/usr/bin/env python3
"""Rewrite ``digests.json``: the SHA-256 of every cell's
``RunResult.to_dict()`` for the pinned seed (``spec.json``'s
``default_seed``), for every workload.

    python3 perfbench/pin.py

``service-sweep`` pins the cells of its first ``SERVICE_JOBS`` cold jobs
(job 0 warms the fleet).  Run it only when a change is meant to move
results; the benchmark fails any run whose results differ from these.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, clean_environment, derive_seed, load_spec  # noqa: E402

SERVICE_JOBS = 8


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    clean_environment()
    from cells import Panel, cell_list, run_pass

    spec = load_spec()
    seed = int(spec["default_seed"])
    pins = {"seed": seed, "workloads": {}}
    for workload in spec["workloads"]:
        cells = cell_list(workload)
        if workload["kind"] == "service":
            jobs = {}
            for index in range(SERVICE_JOBS):
                kwargs = {"records_per_thread": int(workload["records"]),
                          "seed": derive_seed(seed, f"cold-{index}")}
                jobs[f"cold-{index}"] = run_pass(cells, kwargs)[1]
            pins["workloads"][workload["name"]] = jobs
        else:
            panel = Panel(workload["name"], workload, seed)
            pins["workloads"][workload["name"]] = {
                tag: run_pass(cells, kwargs)[1]
                for tag, kwargs in zip(panel.tags, panel.kwargs)
            }
        print(f"pinned {workload['name']}", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
