"""Fidelity-table math: delta computation and status classification."""

import math

import pytest

from repro.experiments.cost import PAPER_EXPECTED as COST_EXPECTED
from repro.experiments.overall import PAPER_EXPECTED as OVERALL_EXPECTED
from repro.figures.fidelity import (
    all_expectations,
    classify,
    evaluate,
    expectations_for,
)


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
    rows = evaluate("table3", dict(paper))  # reproduced == paper
    assert len(rows) == len(paper)
    assert all(r.status == "pass" and r.delta == 0.0 for r in rows)


def test_table3_workload_subset_yields_na_for_missing():
    rows = evaluate("table3", {"ycsb": 3.3})
    by_metric = {r.metric: r for r in rows}
    assert by_metric["flash read latency, ycsb (us)"].status == "pass"
    missing = [r for r in rows if "ycsb" not in r.metric]
    assert missing and all(r.status == "n/a" for r in missing)


def test_fig14_geomean_speedup_extraction():
    # normalized times 0.25 and 0.0625 -> speedups 4 and 16, geomean 8
    data = {"bc": {"SkyByte-Full": 0.25}, "ycsb": {"SkyByte-Full": 0.0625}}
    (row,) = [r for r in evaluate("fig14", data)]
    assert row.reproduced == pytest.approx(8.0)


def test_fig14_without_full_variant_is_na():
    (row,) = evaluate("fig14", {"bc": {"Base-CSSD": 1.0}})
    assert row.status == "n/a"


def test_fig9_best_threshold_argmin():
    data = {
        "bc": {"2.0": 1.0, "10.0": 1.3, "80.0": 2.0},
        "ycsb": {"2.0": 1.0, "10.0": 1.1, "80.0": 1.5},
    }
    rows = {r.metric: r for r in evaluate("fig9", data)}
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
    rows = {r.metric: r for r in evaluate("cost", payload)}
    assert rows["DRAM:flash $ ratio (x)"].status == "pass"
    assert rows["cost-effectiveness (x)"].status == "pass"
    assert COST_EXPECTED["cost"]["cost_ratio"] == pytest.approx(
        payload["cost_ratio"], rel=0.01
    )


def test_malformed_payload_yields_na_not_raise():
    rows = evaluate("fig2", {"bc": "not-a-dict"})
    assert rows and all(r.status == "n/a" for r in rows)


def test_figures_without_expectations_evaluate_empty():
    assert evaluate("fig16", {"bc": {"H-R/W": 1.0}}) == []
    assert expectations_for("fig16") == []


def test_every_expectation_names_a_registered_figure():
    from repro.experiments.jobspec import FIGURES

    for exp in all_expectations():
        assert exp.figure in FIGURES
        assert exp.warn_tol >= exp.pass_tol >= 0.0
