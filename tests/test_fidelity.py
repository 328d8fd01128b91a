"""Fidelity scoring: delta classification, the expectations and claims
on the figure records, and their evaluation over payloads."""

import json
import math

import pytest

from repro.cli import main
from repro.experiments.cost import PAPER_EXPECTED as COST_EXPECTED
from repro.experiments.jobspec import FIGURES
from repro.experiments.overall import PAPER_EXPECTED as OVERALL_EXPECTED
from repro.figures.fidelity import classify, evaluate, judge
from repro.figures.spec import Claim, check


def expectation_rows(figure, payload):
    return evaluate(FIGURES[figure], payload)[0]


# -- classify() edge cases --------------------------------------------------


def test_exact_match_passes_with_zero_delta():
    row = classify(10.0, 10.0)
    assert row.status == "pass"
    assert row.delta == 0.0


def test_boundary_deltas_are_inclusive():
    # exactly pass_tol away is still a pass; exactly warn_tol a warn
    assert classify(100.0, 125.0, pass_tol=0.25).status == "pass"
    assert classify(100.0, 250.0, warn_tol=1.5).status == "warn"
    assert classify(100.0, 250.1, warn_tol=1.5).status == "off"


def test_negative_deltas_classified_by_magnitude():
    assert classify(100.0, 80.0).status == "pass"       # -20%
    assert classify(100.0, 20.0).status == "warn"       # -80%
    assert classify(100.0, -200.0).status == "off"      # -300%


def test_missing_reproduced_value_is_na():
    row = classify(10.0, None)
    assert row.status == "n/a"
    assert row.reproduced is None and row.delta is None


def test_nonfinite_reproduced_value_is_na():
    assert classify(10.0, float("nan")).status == "n/a"
    assert classify(10.0, float("inf")).status == "n/a"


def test_zero_paper_value_does_not_divide_by_zero():
    row = classify(0.0, 0.5)
    assert math.isfinite(row.delta)
    assert row.status == "off"  # any miss against 0 is a huge delta


def test_exact_tolerance_zero_requires_equality():
    assert classify(2.0, 2.0, pass_tol=0.0).status == "pass"
    assert classify(2.0, 2.1, pass_tol=0.0, warn_tol=4.0).status == "warn"


# -- evaluate() against driver payloads ------------------------------------


def test_table3_rows_cover_every_paper_workload():
    paper = OVERALL_EXPECTED["table3"]["read_latency_us"]
    rows = expectation_rows("table3", dict(paper))  # reproduced == paper
    assert len(rows) == len(paper)
    assert all(r.status == "pass" and r.delta == 0.0 for r in rows)


def test_table3_workload_subset_yields_na_for_missing():
    rows = expectation_rows("table3", {"ycsb": 3.3})
    by_metric = {r.metric: r for r in rows}
    assert by_metric["flash read latency, ycsb (us)"].status == "pass"
    missing = [r for r in rows if "ycsb" not in r.metric]
    assert missing and all(r.status == "n/a" for r in missing)


def test_fig14_geomean_speedup_extraction():
    # normalized times 0.25 and 0.0625 -> speedups 4 and 16, geomean 8
    data = {"bc": {"SkyByte-Full": 0.25}, "ycsb": {"SkyByte-Full": 0.0625}}
    (row,) = [r for r in expectation_rows("fig14", data)]
    assert row.reproduced == pytest.approx(8.0)


def test_fig14_without_full_variant_is_na():
    (row,) = expectation_rows("fig14", {"bc": {"Base-CSSD": 1.0}})
    assert row.status == "n/a"


def test_fig9_best_threshold_argmin():
    data = {
        "bc": {"2.0": 1.0, "10.0": 1.3, "80.0": 2.0},
        "ycsb": {"2.0": 1.0, "10.0": 1.1, "80.0": 1.5},
    }
    rows = {r.metric: r for r in expectation_rows("fig9", data)}
    best = rows["best trigger threshold (us)"]
    assert best.reproduced == 2.0
    assert best.status == "pass"  # exact-match expectation
    worst = rows["worst-case degradation (x)"]
    assert worst.reproduced == 2.0


def test_cost_ratio_tight_tolerance():
    payload = {
        "cost_ratio": 4.28 / 0.27,  # what the driver actually computes
        "performance_fraction_geomean": 0.75,
        "cost_effectiveness": 11.8,
    }
    rows = {r.metric: r for r in expectation_rows("cost", payload)}
    assert rows["DRAM:flash $ ratio (x)"].status == "pass"
    assert rows["cost-effectiveness (x)"].status == "pass"
    assert COST_EXPECTED["cost"]["cost_ratio"] == pytest.approx(
        payload["cost_ratio"], rel=0.01
    )


def test_malformed_payload_yields_na_not_raise():
    rows = expectation_rows("fig2", {"bc": "not-a-dict"})
    assert rows and all(r.status == "n/a" for r in rows)


def test_figures_without_expectations_evaluate_empty():
    assert expectation_rows("fig16", {"bc": {"H-R/W": 1.0}}) == []
    assert FIGURES["fig16"].expectations == ()


def test_every_expectation_has_sane_tolerances():
    expectations = [e for f in FIGURES.values() for e in f.expectations]
    assert len(expectations) == 20
    for exp in expectations:
        assert exp.warn_tol >= exp.pass_tol >= 0.0


def test_every_former_benchmark_assert_is_one_claim():
    assert sum(len(f.claims) for f in FIGURES.values()) == 43


# -- claims --------------------------------------------------------------------


def test_claim_holds_breaks_and_is_na():
    claim = Claim("tpcc beats bc", lambda d: [check(
        d["tpcc"] < d["bc"], tpcc=d["tpcc"], bc=d["bc"])])
    holds = judge("figX", claim, {"bc": 2.0, "tpcc": 1.0})
    assert (holds.figure, holds.status, holds.measured) == ("figX", "holds", {})
    broken = judge("figX", claim, {"bc": 1.0, "tpcc": 2.0})
    assert broken.status == "broken"
    assert broken.measured == {"tpcc": 2.0, "bc": 1.0}
    assert judge("figX", claim, {"bc": 1.0}).status == "n/a"  # no tpcc


def test_per_workload_claim_shows_only_the_workloads_that_broke():
    (claim,) = [c for c in FIGURES["fig18"].claims
                if c.text.startswith("SkyByte-Full cuts")]
    payload = {"bc": {"SkyByte-Full": 0.5}, "tpcc": {"SkyByte-Full": 1.2}}
    (row,) = [r for r in evaluate(FIGURES["fig18"], payload)[1]
              if r.claim == claim.text]
    assert row.status == "broken"
    assert row.measured == {"tpcc full": 1.2}


def test_claim_without_comparisons_is_na():
    claim = Claim("every workload is fast", lambda d: [
        check(v < 1.0, v=v) for v in d.values()])
    assert judge("figX", claim, {}).status == "n/a"


def test_fig23_claim_keeps_the_benchmark_bound():
    """CP <= CT * 1.1 exactly: 1.1 holds, just past it breaks."""
    (claim,) = FIGURES["fig23"].claims[:1]
    row = {"SkyByte-C": 1.0, "SkyByte-CP": 0.9, "SkyByte-CT": 0.9 / 1.1,
           "SkyByte-Full": 0.8}
    assert judge("fig23", claim, {"bc": row}).status == "holds"
    row["SkyByte-CP"] = 0.9 * 1.001
    assert judge("fig23", claim, {"bc": row}).status == "broken"


@pytest.fixture(scope="module")
def report_60(tmp_path_factory):
    out = tmp_path_factory.mktemp("report60")
    assert main(["report", "--records", "60", "--no-cache", "--no-trends",
                 "-o", str(out), "--quiet"]) == 0
    return out


def test_every_record_evaluates_on_a_real_report(report_60):
    bench = json.loads((report_60 / "BENCH_fidelity.json").read_text())
    for name, record in FIGURES.items():
        payload = json.loads((report_60 / f"{name}.json").read_text())
        rows, claims = evaluate(record, payload)
        assert len(rows) == len(record.expectations)
        assert len(claims) == len(record.claims)
        # every workload the claims read is in the report's payloads
        assert all(c.status in ("holds", "broken") for c in claims), name
        assert [c["status"] for c in bench["figures"][name]["claims"]] == [
            c.status for c in claims]
    counts = bench["overall"]["claims"]
    assert sum(counts.values()) == 43 and counts["n/a"] == 0
