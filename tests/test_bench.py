"""Unit tests for the speed gate (:mod:`repro.bench`).

Every perfbench run goes through an injectable ``launch``, so these
tests pin the pairing, core pinning, payload schema and gate decisions
without running the benchmark.
"""

import argparse
import json

import pytest

from repro import bench


def entry(accesses_per_s, correct=True, failed=0, peak_rss_mb=100.0,
          job_cold_s=1.0):
    """A parsed perfbench result, as :func:`bench.parse_output` builds."""
    return {
        "result": {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": {"accesses_per_s": {"value": accesses_per_s,
                                                  "unit": "1/s"},
                               "peak_rss_mb": {"value": peak_rss_mb,
                                               "unit": "MB"},
                               "job_cold_s": {"value": job_cold_s,
                                              "unit": "s"}}},
        "host.calibration_s": 0.03,
        "timed_pass_walls_s": [1.0, 1.1],
    }


class FakeLaunch:
    """Records ``start``/``wait`` events and the seed of each run;
    ``speed[root]`` sets each tree's accesses/s (a list is consumed one
    run at a time) and ``rss[root]`` its peak MB."""

    def __init__(self, speed, failed=None, rss=None, cold=None):
        self.speed = speed
        self.failed = failed or {}
        self.rss = rss or {}
        self.cold = cold or {}
        self.events = []
        self.seeds = []

    def __call__(self, root, workload, cpu, seed):
        self.events.append(("start", root, workload, cpu))
        self.seeds.append(seed)
        speed = self.speed[root]
        value = speed.pop(0) if isinstance(speed, list) else speed

        def wait():
            self.events.append(("wait", root, workload, cpu))
            return entry(value, failed=self.failed.get(root, 0),
                         peak_rss_mb=self.rss.get(root, 100.0),
                         job_cold_s=self.cold.get(root, 1.0))

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


def against_payload(ratios, floor=bench.FLOOR, rss_ratio=1.0):
    def pairs():
        return [{"ratio": r, "rss_ratio": rss_ratio, "cpus": [0, 1],
                 "this": entry(r), "base": entry(1.0)}
                for r in ratios]

    return {
        "workloads": {w: entry(1.0) for w in bench.WORKLOADS},
        "against": {"floor": floor, "rss_ceiling": bench.RSS_CEILING,
                    "workloads": {
                        w: {"median_ratio": sorted(ratios)[len(ratios) // 2],
                            "median_rss_ratio": rss_ratio,
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
    assert payload["seed"] == 1 and set(launch.seeds) == {1}
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
                             "pairs": bench.DEFAULT_PAIRS,
                             "seed": bench.DEFAULT_SEED, "workload": None}
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


def test_cli_seed_reaches_every_run_and_the_payload(tmp_path, trees):
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "2", "--seed", "2",
                 "--out", str(out))
    launch = FakeLaunch({this: 1000.0, base: 1000.0})
    assert bench.run_from_args(args, launch=launch, cpus=[0, 1]) == 0
    assert launch.seeds == [2] * 2 * 2 * len(bench.WORKLOADS)
    written = json.loads(out.read_text())
    assert written["seed"] == 2
    assert "--seed 2 --trace 0" in written["command"]
    assert bench.perfbench_command(base, "cells-flat", 2)[-4:] == [
        "--seed", "2", "--trace", "0"]


def test_cli_memory_gate(tmp_path, trees, capsys):
    """The median per-pair peak_rss_mb ratio is printed beside
    accesses_per_s and fails the gate above the ceiling."""
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "3", "--out", str(out))

    lean = FakeLaunch({this: 1000.0, base: 1000.0},
                      rss={this: 70.0, base: 100.0})
    assert bench.run_from_args(args, launch=lean, cpus=[0, 1]) == 0
    printed = capsys.readouterr().out
    assert "70.0/100.0 peak MB = 0.700" in printed
    assert "peak MB 0.700" in printed
    data = json.loads(out.read_text())["against"]
    assert data["rss_ceiling"] == bench.RSS_CEILING
    assert data["workloads"]["cells-flat"]["median_rss_ratio"] == (
        pytest.approx(0.7))

    fat = FakeLaunch({this: 1000.0, base: 1000.0},
                     rss={this: 115.0, base: 100.0})
    assert bench.run_from_args(args, launch=fat, cpus=[0, 1]) == 1
    assert json.loads(out.read_text())["passed"] is False
    err = capsys.readouterr().err
    assert "median peak_rss_mb ratio 1.150 is above the ceiling 1.10" in err


def test_compare_rss_ceiling_is_inclusive():
    assert bench.compare(against_payload([1.0], rss_ratio=1.10)) == []
    found = bench.compare(against_payload([1.0], rss_ratio=1.11))
    assert len(found) == len(bench.WORKLOADS)
    assert all("above the ceiling" in problem for problem in found)


def test_service_sweep_pairs_run_unpinned_one_after_the_other(tmp_path,
                                                              trees):
    """``--workload service-sweep`` runs only that workload, each pair's
    two sides one after the other, unpinned, alternating which goes
    first, and records the job_cold_s ratio beside accesses_per_s."""
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "2", "--workload",
                 "service-sweep", "--out", str(out))
    launch = FakeLaunch({this: 1100.0, base: 1000.0},
                        cold={this: 0.9, base: 1.0})
    assert bench.run_from_args(args, launch=launch, cpus=[0, 1]) == 0
    assert [(kind, root, cpu) for kind, root, _, cpu in launch.events] == [
        ("start", this, None), ("wait", this, None),
        ("start", base, None), ("wait", base, None),
        ("start", base, None), ("wait", base, None),
        ("start", this, None), ("wait", this, None),
    ]
    assert {workload for _, _, workload, _ in launch.events} == {
        "service-sweep"}
    data = json.loads(out.read_text())["against"]["workloads"]
    assert list(data) == ["service-sweep"]
    sweep = data["service-sweep"]
    assert sweep["gated"] is False
    assert sweep["metrics"]["job_cold_s"]["ratios"] == [
        pytest.approx(0.9)] * 2
    assert sweep["median_ratio"] == pytest.approx(1.1)


def test_service_sweep_is_gated_on_correctness_only(tmp_path, trees, capsys):
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "1", "--workload",
                 "service-sweep", "--out", str(out))
    slow = FakeLaunch({this: 500.0, base: 1000.0},
                      rss={this: 150.0, base: 100.0})
    assert bench.run_from_args(args, launch=slow, cpus=[0, 1]) == 0
    assert "not gated" in capsys.readouterr().out
    broken = FakeLaunch({this: 1000.0, base: 1000.0}, failed={base: 1})
    assert bench.run_from_args(args, launch=broken, cpus=[0, 1]) == 1
    assert "service-sweep pair 1 base: correct=True failed=1" in (
        capsys.readouterr().err)


def fleet_runs(name, this, base):
    """A/B pairs whose ``name`` metric reads ``this`` / ``base``."""
    def side(value):
        run = entry(1000.0)
        run["result"]["metrics"][name] = {"value": value, "unit": "s"}
        return run

    return [{"this": side(t), "base": side(b)} for t, b in zip(this, base)]


def test_metric_summary_wins_gain_and_regression():
    lower = {"name": "first_cell_s", "better": "lower", "bound": 0.25}
    # Nine wins and a tie in ten pairs, medians 0.5 apart while the
    # base's quartiles are 0.075 apart: a gain.
    row = bench.metric_summary(lower, fleet_runs(
        "first_cell_s", [0.5] * 9 + [0.6],
        [1.0, 1.1, 0.9, 1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 0.6]))
    assert (row["wins"], row["pairs"], row["gain"], row["regressed"]) == (
        9, 10, True, False)
    assert row["this"]["median"] == 0.5
    assert row["base"] == {"q1": pytest.approx(0.925), "median": 1.0,
                           "q3": pytest.approx(1.0)}
    assert row["ratios"][-1] == 1.0
    # Eight of ten wins is no gain, however far apart the medians.
    row = bench.metric_summary(lower, fleet_runs(
        "first_cell_s", [0.5] * 8 + [2.0] * 2, [1.0] * 10))
    assert (row["wins"], row["gain"]) == (8, False)
    # Higher is better: 30% fewer accesses/s is beyond a 0.25 bound.
    higher = {"name": "accesses_per_s", "better": "higher", "bound": 0.25}
    row = bench.metric_summary(higher, fleet_runs(
        "accesses_per_s", [70.0, 72.0, 68.0], [100.0, 101.0, 99.0]))
    assert (row["wins"], row["gain"], row["regressed"]) == (0, False, True)
    assert row["ratios"] == [pytest.approx(0.7), pytest.approx(72 / 101),
                             pytest.approx(68 / 99)]
    assert row["this"] == {"q1": 69.0, "median": 70.0, "q3": 71.0}
    # One pair: its value is every quartile.
    row = bench.metric_summary(higher, fleet_runs(
        "accesses_per_s", [90.0], [100.0]))
    assert row["this"] == {"q1": 90.0, "median": 90.0, "q3": 90.0}
    assert not row["regressed"]


def test_service_sweep_summarises_every_end_to_end_metric(tmp_path, trees,
                                                           capsys):
    """Each end-to-end metric of BENCHMARK.json that the runs report
    gets its row, and the CLI prints it."""
    this, base = bench.ROOT, trees[1]
    out = tmp_path / "out.json"
    args = parse("--against", str(base), "--pairs", "2", "--workload",
                 "service-sweep", "--out", str(out))
    launch = FakeLaunch({this: 1100.0, base: 1000.0},
                        cold={this: 0.9, base: 1.0})
    assert bench.run_from_args(args, launch=launch, cpus=[0, 1]) == 0
    sweep = json.loads(out.read_text())["against"]["workloads"][
        "service-sweep"]
    assert sorted(sweep["metrics"]) == ["accesses_per_s", "job_cold_s",
                                        "peak_rss_mb"]
    cold = sweep["metrics"]["job_cold_s"]
    assert (cold["better"], cold["bound"], cold["wins"]) == ("lower", 0.25, 2)
    assert cold["ratios"] == [pytest.approx(0.9)] * 2
    assert "service-sweep job_cold_s: this 0.9 [0.9-0.9], base 1 [1-1], " \
        "2/2 wins" in capsys.readouterr().out
