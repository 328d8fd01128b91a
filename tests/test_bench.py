"""Unit tests for the speed gate (:mod:`repro.bench`).

Every perfbench run goes through an injectable ``launch``, so these
tests pin the pairing, core pinning, payload schema and gate decisions
without running the benchmark.
"""

import argparse
import json

import pytest

from repro import bench


def entry(accesses_per_s, correct=True, failed=0):
    """A parsed perfbench result, as :func:`bench.parse_output` builds."""
    return {
        "result": {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": {"accesses_per_s": {"value": accesses_per_s,
                                                  "unit": "1/s"}}},
        "host.calibration_s": 0.03,
        "timed_pass_walls_s": [1.0, 1.1],
    }


class FakeLaunch:
    """Records ``start``/``wait`` events; ``speed[root]`` sets each
    tree's accesses/s (a list is consumed one run at a time)."""

    def __init__(self, speed, failed=None):
        self.speed = speed
        self.failed = failed or {}
        self.events = []

    def __call__(self, root, workload, cpu):
        self.events.append(("start", root, workload, cpu))
        speed = self.speed[root]
        value = speed.pop(0) if isinstance(speed, list) else speed

        def wait():
            self.events.append(("wait", root, workload, cpu))
            return entry(value, failed=self.failed.get(root, 0))

        return wait


@pytest.fixture
def trees(tmp_path):
    this, base = tmp_path / "this", tmp_path / "base"
    for root in (this, base):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
    return this, base


def parse(*argv):
    parser = argparse.ArgumentParser()
    bench.add_arguments(parser)
    return parser.parse_args(list(argv))


def against_payload(ratios, floor=bench.FLOOR):
    def pairs():
        return [{"ratio": r, "cpus": [0, 1], "this": entry(r),
                 "base": entry(1.0)}
                for r in ratios]

    return {
        "workloads": {w: entry(1.0) for w in bench.WORKLOADS},
        "against": {"floor": floor, "workloads": {
            w: {"median_ratio": sorted(ratios)[len(ratios) // 2],
                "pairs": pairs()}
            for w in bench.WORKLOADS}},
    }


def test_schema_round_trip(tmp_path, trees):
    this, _ = trees
    launch = FakeLaunch({this: 1000.0})
    payload = bench.run_bench(launch=launch, root=this)
    assert payload["schema"] == 2
    assert payload["kind"] == "speed"
    assert {"git_sha", "python", "platform", "command"} <= set(payload)
    assert "--seed 1 --trace 0" in payload["command"]
    assert list(payload["workloads"]) == list(bench.WORKLOADS)
    for data in payload["workloads"].values():
        assert bench.accesses_per_s(data) == 1000.0
        assert data["host.calibration_s"] == 0.03
        assert data["timed_pass_walls_s"] == [1.0, 1.1]
    # Without --against nothing is pinned.
    assert {cpu for _, _, _, cpu in launch.events} == {None}
    path = tmp_path / "BENCH_speed.json"
    bench.write_json(path, payload)
    assert json.loads(path.read_text()) == json.loads(json.dumps(payload))


def test_compare_passes_within_threshold():
    assert bench.compare(against_payload([0.80, 0.86, 1.2])) == []
    assert bench.compare(against_payload([bench.FLOOR] * 3)) == []


def test_compare_fails_beyond_threshold():
    found = bench.compare(against_payload([0.70, 0.84, 1.2]))
    assert len(found) == len(bench.WORKLOADS)
    assert all("below the floor" in problem for problem in found)


def test_incorrect_run_fails_gate():
    payload = against_payload([1.0, 1.0, 1.0])
    payload["against"]["workloads"]["cells-flat"]["pairs"][1]["base"][
        "result"]["failed"] = 2
    assert bench.compare(payload) == [
        "cells-flat pair 2 base: correct=True failed=2"]
    payload = against_payload([1.0])
    payload["workloads"]["cells-deep-gc"]["result"]["correct"] = False
    assert bench.compare(payload) == [
        "cells-deep-gc: correct=False failed=0"]


def test_pairs_run_side_by_side_on_swapped_cores(trees):
    this, base = trees
    launch = FakeLaunch({this: 900.0, base: 1000.0})
    payload = bench.run_bench(base, pairs=3, launch=launch, cpus=[3, 5],
                              root=this)
    flat = [e for e in launch.events if e[2] == "cells-flat"]
    # Both sides start before either is waited for, on different cores,
    # and the cores swap every pair.
    assert [e[0] for e in flat] == ["start", "start", "wait", "wait"] * 3
    starts = [(root, cpu) for kind, root, _, cpu in flat if kind == "start"]
    assert starts == [(this, 3), (base, 5), (base, 3), (this, 5),
                      (this, 3), (base, 5)]
    data = payload["against"]["workloads"]["cells-flat"]
    assert [p["cpus"] for p in data["pairs"]] == [[3, 5], [5, 3], [3, 5]]
    assert data["median_ratio"] == pytest.approx(0.9)
    assert payload["against"]["side_by_side"] is True
    assert bench.compare(payload) == []


def test_one_core_runs_pairs_in_alternating_order(trees):
    this, base = trees
    launch = FakeLaunch({this: 1000.0, base: 1000.0})
    payload = bench.run_bench(base, pairs=2, launch=launch, cpus=[7],
                              root=this)
    flat = [e for e in launch.events if e[2] == "cells-flat"]
    assert [(kind, root) for kind, root, _, _ in flat] == [
        ("start", this), ("wait", this), ("start", base), ("wait", base),
        ("start", base), ("wait", base), ("start", this), ("wait", this),
    ]
    assert {cpu for _, _, _, cpu in flat} == {7}
    assert payload["against"]["side_by_side"] is False


def test_cli_gate_exit_codes(tmp_path, trees, capsys):
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "3", "--out", str(out))

    fast = FakeLaunch({this: 1000.0, base: 1000.0})
    assert bench.run_from_args(args, launch=fast, cpus=[0, 1]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert "speed gate passed" in capsys.readouterr().out

    slow = FakeLaunch({this: 700.0, base: 1000.0})
    assert bench.run_from_args(args, launch=slow, cpus=[0, 1]) == 1
    assert json.loads(out.read_text())["passed"] is False
    assert "below the floor" in capsys.readouterr().err

    broken = FakeLaunch({this: 1000.0, base: 1000.0}, failed={this: 1})
    assert bench.run_from_args(args, launch=broken, cpus=[0, 1]) == 1


def test_cli_rejects_bad_against_and_pairs(tmp_path, trees):
    this, base = trees
    launch = FakeLaunch({})
    args = parse("--against", str(tmp_path / "nowhere"))
    assert bench.run_from_args(args, launch=launch) == 2
    args = parse("--against", str(base), "--pairs", "0")
    assert bench.run_from_args(args, launch=launch) == 2
    assert launch.events == []


def test_cli_has_only_out_against_pairs():
    assert vars(parse()) == {"out": bench.DEFAULT_OUT, "against": None,
                             "pairs": bench.DEFAULT_PAIRS}
    for removed in ("--quick", "--check", "--update-baseline"):
        with pytest.raises(SystemExit):
            parse(removed)


def test_parse_output_reads_context_and_result_lines():
    stdout = "\n".join([
        "log line",
        json.dumps({"context": {"host.calibration_s": 0.04,
                                "timed_pass_walls_s": [2.0]}}),
        json.dumps(entry(5.0)["result"]),
    ]) + "\n"
    parsed = bench.parse_output(stdout)
    assert bench.accesses_per_s(parsed) == 5.0
    assert parsed["host.calibration_s"] == 0.04
    assert parsed["timed_pass_walls_s"] == [2.0]
    with pytest.raises(bench.BenchError):
        bench.parse_output("perfbench: crashed\n")
