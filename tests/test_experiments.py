"""Smoke tests for the figure records (tiny traces): one plan of every
figure on ``bc``, its cells shared, plus the plan's dedup and failure
isolation."""

import dataclasses

import pytest

from repro.experiments import orchestrator
from repro.experiments.cost import CostModel
from repro.experiments.jobspec import FIGURES, FigureLog, parse_spec, run_figures

R = 400  # tiny traces: these tests check plumbing, not magnitudes


class Capture(FigureLog):
    """Keeps every payload, failure and cell source ``run_figures``
    reports."""

    def __init__(self):
        self.data = {}
        self.errors = {}
        self.sources = []
        self.run_keys = []

    def cell_completed(self, job, source):
        self.sources.append(source)
        if source == "run":
            self.run_keys.append(job.key())

    def figure_finished(self, figure, data):
        self.data[figure] = data

    def figure_failed(self, figure, error):
        self.errors[figure] = error


def plan(tmp_path, figures, workloads=("bc",), records=R, **options):
    spec = parse_spec("report", {"figures": list(figures),
                                 "workloads": list(workloads),
                                 "records": records})
    log = Capture()
    failed = run_figures(spec, tmp_path, log, **options)
    return log, failed


@pytest.fixture(scope="module")
def every(tmp_path_factory):
    """Every figure's payload from one plan on bc at R records."""
    log, failed = plan(tmp_path_factory.mktemp("figures"), sorted(FIGURES),
                       cache=False)
    assert failed == [], log.errors
    return log.data


def test_every_figure_writes_a_payload(every):
    assert set(every) == set(FIGURES)


def test_fig2_driver(every):
    assert every["fig2"]["bc"]["slowdown"] > 1.0


def test_fig3_driver(every):
    rows = every["fig3"]
    assert rows["bc"]["CXL-SSD"]["max_ns"] > rows["bc"]["DRAM"]["max_ns"]


def test_fig4_driver(every):
    assert 0.0 < every["fig4"]["bc"]["cssd_memory_bound"] <= 1.0


def test_fig5_and_fig6_drivers(every):
    assert 0.0 <= every["fig5"]["bc"][8]["mean_ratio"] <= 1.0
    assert 0.0 <= every["fig6"]["bc"][8]["mean_ratio"] <= 1.0


def test_fig9_driver(every):
    rows = every["fig9"]
    assert rows["bc"][2] == 1.0
    assert rows["bc"][40] > 0.0


def test_fig10_driver(every):
    rows = every["fig10"]
    assert set(rows["bc"]) == {"RR", "RANDOM", "FAIRNESS"}
    assert rows["bc"]["RR"]["normalized_time"] == 1.0


def test_fig14_driver(every):
    rows = every["fig14"]
    assert rows["bc"]["Base-CSSD"] == 1.0
    assert rows["bc"]["DRAM-Only"] < 1.0


def test_fig15_driver(every):
    assert set(every["fig15"]["bc"]) == {8, 16, 24, 32, 40, 48}


def test_fig16_driver(every):
    assert sum(every["fig16"]["bc"].values()) == pytest.approx(1.0)


def test_fig17_driver(every):
    rows = every["fig17"]
    assert rows["bc"]["Base-CSSD"]["amat_ns"] > rows["bc"]["DRAM-Only"]["amat_ns"]


def test_fig18_driver(every):
    assert every["fig18"]["bc"]["Base-CSSD"] == 1.0


def test_fig19_fig20_drivers(every):
    sizes = {16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}
    assert set(every["fig19"]["bc"]) == sizes
    assert every["fig20"]["bc"][16 * 1024] == 1.0


def test_fig21_driver(every):
    assert set(every["fig21"]["bc"]["SkyByte-Full"]) == {
        256 * 1024, 512 * 1024, 1024 * 1024, 2048 * 1024, 4096 * 1024}


def test_fig22_driver(every):
    rows = every["fig22"]
    assert "SkyByte-Full-16" in rows["bc"]["ULL"]
    assert rows["bc"]["MLC"]["SkyByte-WP"] > 0


def test_fig23_driver(every):
    assert every["fig23"]["bc"]["SkyByte-C"] == 1.0


def test_table3_driver(every):
    assert every["table3"]["bc"] >= 3.0  # at least the ULL device read latency


def test_cost_driver(every):
    out = every["cost"]
    assert out["cost_ratio"] == pytest.approx(CostModel().cost_ratio)
    assert 0.0 < out["performance_fraction_geomean"] < 1.0


def test_cost_model_arithmetic():
    model = CostModel()
    # Paper: $4.28/GB DRAM vs $0.27/GB flash => ~15.9x cheaper.
    assert model.cost_ratio == pytest.approx(15.9, rel=0.05)
    # The whole-setup ratio (with the 2 GB host budget) is a bit lower.
    assert model.setup_cost_ratio < model.cost_ratio
    assert model.setup_cost_ratio > 10.0


class TestAblations:
    def test_prefetch_helps_streaming(self, tmp_path):
        log, failed = plan(tmp_path, ["prefetch-ablation"],
                           workloads=["srad"], records=600, cache=False)
        assert failed == []
        assert log.data["prefetch-ablation"]["srad"]["prefetch_gain"] > 0.95

    def test_promotion_threshold_tradeoff(self, every):
        rows = every["promotion-threshold"]
        # A permissive threshold promotes more pages.
        assert rows[8]["pages_promoted"] >= rows[256]["pages_promoted"]

    def test_persistence_interval_traffic(self, every):
        rows = every["persistence-interval"]
        # Disabling durability flushes can only reduce flash writes.
        assert rows[0]["flash_writes_per_Mi"] <= rows[50]["flash_writes_per_Mi"]


# -- the plan ------------------------------------------------------------------


def test_one_plan_simulates_each_distinct_cell_once(tmp_path):
    """Figs. 14, 17 and 18 read one design grid: without a cache, every
    distinct cell still runs exactly once."""
    figures = ("fig14", "fig17", "fig18")
    log, failed = plan(tmp_path, figures, records=200, cache=False)
    assert failed == []
    planned = [job.key() for name in figures
               for job in FIGURES[name].cells(["bc"], 200)]
    assert len(planned) == 8 + 6 + 7
    assert sorted(log.run_keys) == sorted(set(planned))
    assert log.sources.count("run") == len(set(planned)) == 8
    assert set(log.data) == set(figures)


def test_a_reduce_that_raises_fails_only_its_figure(tmp_path, monkeypatch):
    def boom(*_args):
        raise RuntimeError("reduce exploded")

    monkeypatch.setitem(FIGURES, "table3",
                        dataclasses.replace(FIGURES["table3"], reduce=boom))
    log, failed = plan(tmp_path, ["table3", "fig16", "fig5"], records=80,
                       cache=False)
    assert failed == ["table3"]
    assert "reduce exploded" in log.errors["table3"]
    assert set(log.data) == {"fig16", "fig5"}
    assert not (tmp_path / "table3.json").exists()
    assert (tmp_path / "fig16.json").is_file()


def test_a_failing_cell_fails_only_the_figures_it_starves(tmp_path,
                                                         monkeypatch):
    """Figures whose cells all landed (table3 from the cache, fig5 with
    none) render; fig16 and fig14, still waiting on a SkyByte-Full cell
    when it raises, fail."""
    cache = tmp_path / "cache"
    plan(tmp_path, ["table3"], records=80, cache=cache)
    real = orchestrator.run_workload

    def run_workload(workload, variant, **kwargs):
        if variant == "SkyByte-Full":
            raise RuntimeError("cell exploded")
        return real(workload, variant, **kwargs)

    monkeypatch.setattr(orchestrator, "run_workload", run_workload)
    log, failed = plan(tmp_path, ["table3", "fig5", "fig16", "fig14"],
                       records=80, cache=cache, jobs=1)
    assert sorted(failed) == ["fig14", "fig16"]
    assert all("cell exploded" in log.errors[f] for f in failed)
    assert set(log.data) == {"table3", "fig5"}
    assert (tmp_path / "table3.json").is_file()

