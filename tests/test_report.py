"""Tests for the incremental report builder and ``repro report`` CLI."""

import dataclasses

import pytest

from _worker_utils import free_port
from repro.cli import FIGURES, main
from repro.figures.report import ReportBuilder
from repro.figures.spec import no_cells

R = "80"  # records per thread: plumbing-sized


# -- ReportBuilder lifecycle ------------------------------------------------


def test_builder_rejects_unknown_figures(tmp_path):
    with pytest.raises(KeyError, match="fig999"):
        ReportBuilder(tmp_path, ["fig14", "fig999"])


def test_builder_incremental_states(tmp_path):
    builder = ReportBuilder(tmp_path, ["fig14", "table3"])
    builder.render()
    md = (tmp_path / "REPORT.md").read_text()
    assert "In progress: 0/2" in md
    assert "*pending*" in md
    # pending figures still show their fidelity rows, marked by state
    assert ("| table3 | flash read latency, bc (us) | 3.5 | - | - "
            "| pending |") in md
    assert ("| table3 | every average is at least the 3 us device read "
            "latency | pending | - |") in md

    assert "rewritten as each figure finishes" in md

    # cells are counted but render nothing until a figure finishes
    builder.cell_completed(None, "run")
    builder.cell_completed(None, "cache")
    assert "0 cell(s) finished" in (tmp_path / "REPORT.md").read_text()

    builder.figure_finished(
        "fig14", {"bc": {"Base-CSSD": 1.0, "SkyByte-Full": 0.2}}
    )
    assert (tmp_path / "fig14.svg").is_file()
    md = (tmp_path / "REPORT.md").read_text()
    assert "![fig14](fig14.svg)" in md
    assert "2 cell(s) finished (1 from cache)" in md
    assert not builder.complete

    builder.figure_failed("table3", "Traceback: boom")
    assert builder.complete
    md = (tmp_path / "REPORT.md").read_text()
    assert "Complete: 1/2" in md and "1 failed" in md and "boom" in md
    html = (tmp_path / "REPORT.html").read_text()
    assert "<svg" in html and "boom" in html
    # atomic writes leave no temp droppings behind
    assert not list(tmp_path.glob("*.tmp*"))


def test_builder_faceted_figures_write_numbered_svgs(tmp_path):
    builder = ReportBuilder(tmp_path, ["fig15"])
    data = {"bc": {"8": {"throughput": 1.0, "ssd_bandwidth": 1.0,
                         "context_switches": 0.0},
                   "24": {"throughput": 2.0, "ssd_bandwidth": 1.5,
                          "context_switches": 5.0}}}
    builder.figure_finished("fig15", data)
    assert (tmp_path / "fig15_1.svg").is_file()
    assert (tmp_path / "fig15_2.svg").is_file()
    md = (tmp_path / "REPORT.md").read_text()
    assert "![fig15](fig15_1.svg)" in md and "![fig15](fig15_2.svg)" in md


def test_builder_writes_machine_readable_bench(tmp_path):
    import json

    builder = ReportBuilder(tmp_path, ["fig14", "table3"])
    builder.figure_finished(
        "fig14", {"bc": {"Base-CSSD": 1.0, "SkyByte-Full": 1.0 / 6.11}}
    )
    bench = json.loads((tmp_path / "BENCH_fidelity.json").read_text())
    fig14 = bench["figures"]["fig14"]
    assert fig14["state"] == "done"
    assert fig14["score"] == 1.0  # the one expectation passes exactly
    assert fig14["wall_s"] >= 0.0  # seconds from the report's start
    assert fig14["expectations"][0]["status"] == "pass"
    # pending figures appear with null score and their state
    assert bench["figures"]["table3"]["state"] == "pending"
    assert bench["figures"]["table3"]["score"] is None
    assert bench["overall"]["complete"] is False
    assert bench["overall"]["statuses"]["pass"] == 1
    # one workload lacks the designs fig14's claims compare: n/a, not broken
    assert {c["status"] for c in fig14["claims"]} == {"n/a"}
    assert len(fig14["claims"]) == 5
    assert bench["overall"]["claims"] == {"holds": 0, "broken": 0, "n/a": 5}

    builder.figure_failed("table3", "boom")
    bench = json.loads((tmp_path / "BENCH_fidelity.json").read_text())
    assert bench["figures"]["table3"]["state"] == "failed"
    assert bench["overall"]["complete"] is True
    # the report's own wall time, not a sum over figures
    assert (bench["overall"]["wall_s"]
            >= bench["figures"]["table3"]["wall_s"]
            >= bench["figures"]["fig14"]["wall_s"])


# -- CLI end-to-end ---------------------------------------------------------


def report_argv(out, cache, *extra):
    return ["report", "--workloads", "ycsb-b", "--records", R,
            "--cache-dir", str(cache), "-o", str(out), "--quiet", *extra]


def test_report_cli_end_to_end_and_cache_warm_rerun(tmp_path, capsys):
    out, cache = tmp_path / "rep", tmp_path / "cache"
    argv = report_argv(out, cache, "--figures", "table3,cost",
                       "--jobs", "2")
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 hit(s), 3 miss(es)" in first  # table3: 1 cell, cost: 2 cells
    md = (out / "REPORT.md").read_text()
    assert "Complete: 2/2 figure(s) rendered" in md
    assert "## Fidelity vs. the paper" in md
    for artifact in ("REPORT.html", "BENCH_fidelity.json", "table3.svg",
                     "cost.svg", "table3.json", "cost.json"):
        assert (out / artifact).is_file()
    assert (out / "REPORT.html").read_text().count("<svg") == 2

    # cache-warm re-run: rebuilds the report without simulating
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "3 hit(s), 0 miss(es)" in second
    assert "(3 from cache)" in (out / "REPORT.md").read_text()


def test_report_accepts_positional_names(tmp_path, capsys):
    out, cache = tmp_path / "rep", tmp_path / "cache"
    argv = ["report", "table3", "--workloads", "ycsb", "--records", R,
            "--cache-dir", str(cache), "-o", str(out), "--quiet",
            "--backend", "serial"]
    assert main(argv) == 0
    assert "Complete: 1/1" in (out / "REPORT.md").read_text()


def test_report_unknown_figure_fails_cleanly(tmp_path, capsys):
    rc = main(["report", "--figures", "fig999", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown figure(s): fig999" in capsys.readouterr().err


def stub(monkeypatch, figure, reduce):
    """Replace ``figure``'s record by one with no cells and ``reduce``."""
    monkeypatch.setitem(FIGURES, figure, dataclasses.replace(
        FIGURES[figure], cells=no_cells, reduce=reduce))


def test_report_records_driver_failure_and_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    def boom(*_args):
        raise RuntimeError("driver exploded")

    stub(monkeypatch, "table3", boom)
    out = tmp_path / "rep"
    rc = main(["report", "--figures", "table3", "--no-cache",
               "-o", str(out), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "1 figure(s) failed: table3" in err
    md = (out / "REPORT.md").read_text()
    assert "FAILED" in md and "driver exploded" in md


def test_report_records_shaping_failure_and_continues(
    tmp_path, capsys, monkeypatch
):
    """A payload the shaper can't handle fails that figure only."""
    stub(monkeypatch, "fig2", lambda *_args: {"bc": "garbage"})
    stub(monkeypatch, "table3", lambda *_args: {"ycsb": 3.3})
    out = tmp_path / "rep"
    rc = main(["report", "--figures", "fig2,table3", "--no-cache",
               "-o", str(out), "--quiet"])
    assert rc == 1
    md = (out / "REPORT.md").read_text()
    assert "Complete: 1/2" in md and "1 failed" in md
    assert (out / "table3.svg").is_file()  # other figures still rendered
    assert "1 figure(s) failed: fig2" in capsys.readouterr().err


def test_report_over_distributed_worker(tmp_path, spawn_worker, capsys):
    address = f"127.0.0.1:{free_port()}"
    proc = spawn_worker("--connect", address, "--no-cache")
    out = tmp_path / "rep"
    argv = ["report", "--figures", "table3", "--workloads", "ycsb",
            "--records", R, "--listen", address, "--no-cache",
            "-o", str(out), "--quiet"]
    assert main(argv) == 0
    assert proc.wait(timeout=30) == 0  # listener closed -> clean exit
    md = (out / "REPORT.md").read_text()
    assert "Complete: 1/1" in md
    assert "1 cell(s) finished (0 from cache)" in md  # progress fired per cell
    assert (out / "table3.svg").is_file()
