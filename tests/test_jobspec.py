"""Tests for the one job spec behind ``repro sweep|figures|report``,
``repro job submit`` and the service's jobs (``experiments/jobspec.py``).

Covers the spec parser (unknown keys, types, ranges, names), the
argv -> spec function, cache-key identity of the planned grids, the
library's own range check in ``resolve_run``, and the CLI's exit 2 on
every bad cell option.  The HTTP side (400 at submit, a report job
byte-identical to ``repro report``) is in ``test_service.py``.
"""

import hashlib

import pytest

from repro import run_workload
from repro.cli import _spec_from_args, build_parser, main
from repro.experiments.jobspec import (
    CELL_FIELDS,
    FIGURES,
    SpecError,
    parse_spec,
    plan_sweep,
)
from repro.variants import MAIN_VARIANTS
from repro.workloads.suites import WORKLOAD_NAMES

R = 80  # records per thread: plumbing-sized


def keys_digest(cells):
    return hashlib.sha256(
        "\n".join(c.key() for c in cells).encode()).hexdigest()


# -- parse_spec ---------------------------------------------------------------


@pytest.mark.parametrize("kind, spec, field", [
    ("sweep", {"recrods": 200}, "recrods"),
    ("sweep", {"threads": 0}, "threads"),
    ("sweep", {"records": -5}, "records"),
    ("sweep", {"scale": 0}, "scale"),
    ("sweep", {"seed": -1}, "seed"),
    ("sweep", {"jobs": 0}, "jobs"),
    ("sweep", {"records": "200"}, "records"),
    ("sweep", {"records": True}, "records"),
    ("sweep", {"timing": "TLC"}, "timing"),
    ("sweep", {"device_model": "deeper"}, "device_model"),
    ("sweep", {"workloads": ["no-such-workload"]}, "workloads"),
    ("sweep", {"workloads": "bc"}, "workloads"),
    ("sweep", {"scenarios": ["nope"]}, "scenarios"),
    ("sweep", {"variants": ["SkyByte-Nope"]}, "variants"),
    ("sweep", {"names": ["web-tier"]}, "names"),
    ("sweep", {"figures": ["fig2"]}, "figures"),
    ("scenario", {}, "names"),
    ("scenario", {"names": ["nope"]}, "names"),
    ("scenario", {"names": ["web-tier"], "workloads": ["bc"]}, "workloads"),
    ("report", {"figures": ["fig999"]}, "figures"),
    ("report", {"seed": 3}, "seed"),
    ("report", {"records": 0}, "records"),
])
def test_bad_specs_are_rejected_naming_the_field(kind, spec, field):
    with pytest.raises(SpecError) as info:
        parse_spec(kind, spec)
    assert info.value.field == field
    assert str(info.value).startswith(f"{field}: ")


def test_bad_kind_and_non_object_spec_are_value_errors():
    with pytest.raises(ValueError, match="unknown job kind"):
        parse_spec("bogus", {})
    with pytest.raises(ValueError, match="JSON object"):
        parse_spec("sweep", ["bc"])


def test_parse_canonicalises_names_and_treats_null_as_unset():
    spec = parse_spec("sweep", {
        "workloads": ["YCSB-B"], "scenarios": ["scenario:web-tier"],
        "variants": ["skybyte-full"], "records": R, "threads": None,
        "device_model": "deep", "jobs": 2,
    })
    assert spec.workloads == ("ycsb", "web-tier")  # grid rows
    assert spec.variants == ("SkyByte-Full",)
    assert spec.cell == {"records": R, "device_model": "deep"}
    assert spec.jobs == 2


def test_scenario_spec_takes_names_or_scenarios():
    assert parse_spec("scenario", {"names": ["web-tier"]}).workloads == (
        "web-tier",)
    assert parse_spec("scenario", {"scenarios": ["web-tier"]}).workloads == (
        "web-tier",)


def test_sweep_spec_defaults_to_the_table_i_grid():
    spec = parse_spec("sweep", {})
    assert spec.workloads == tuple(WORKLOAD_NAMES)
    assert spec.variants == tuple(MAIN_VARIANTS)
    assert parse_spec("sweep", {"scenarios": ["web-tier"]}).workloads == (
        "web-tier",)


def test_report_spec_defaults_to_every_figure_and_dedupes():
    assert parse_spec("report", {}).figures == tuple(sorted(FIGURES))
    spec = parse_spec("report", {"figures": ["fig2", "table3", "fig2"]})
    assert spec.figures == ("fig2", "table3")


def test_every_cell_field_has_a_kwarg_and_an_option():
    assert [f.name for f in CELL_FIELDS] == [
        "records", "threads", "scale", "timing", "seed", "device_model"]
    run_help = build_parser().parse_args(["run", "bc", "Base-CSSD"])
    for spec_field in CELL_FIELDS:
        assert spec_field.kwarg
        assert hasattr(run_help, spec_field.name)


# -- argv -> spec ---------------------------------------------------------------


def test_sweep_and_job_submit_argv_build_the_same_spec():
    options = ["--workloads", "bc,ycsb", "--scenario", "web-tier",
               "--variants", "Base-CSSD", "--records", "200", "--threads",
               "4", "--scale", "256", "--timing", "SLC", "--seed", "7",
               "--device-model", "deep", "--jobs", "2"]
    parser = build_parser()
    local = _spec_from_args("sweep", parser.parse_args(["sweep"] + options))
    remote = _spec_from_args(
        "sweep", parser.parse_args(["job", "submit", "sweep"] + options))
    assert local == remote == {
        "workloads": ["bc", "ycsb"], "scenarios": ["web-tier"],
        "variants": ["Base-CSSD"], "records": 200, "threads": 4,
        "scale": 256, "timing": "SLC", "seed": 7, "device_model": "deep",
        "jobs": 2,
    }


def test_job_submit_positional_names_are_scenarios_or_figures():
    parser = build_parser()
    scenario = parser.parse_args(["job", "submit", "scenario", "web-tier",
                                  "log-ingest,graph-walk"])
    assert _spec_from_args("scenario", scenario) == {
        "names": ["web-tier", "log-ingest", "graph-walk"]}
    report = parser.parse_args(["job", "submit", "report", "fig2",
                                "--figures", "table3"])
    assert _spec_from_args("report", report) == {
        "figures": ["fig2", "table3"]}


def test_report_argv_merges_positional_and_figures_option():
    args = build_parser().parse_args(
        ["report", "fig2", "--figures", "table3,fig2", "--records", "60"])
    spec = _spec_from_args("report", args)
    assert spec == {"figures": ["fig2", "table3", "fig2"], "records": 60}
    assert parse_spec("report", spec).figures == ("fig2", "table3")


# -- cache-key identity ---------------------------------------------------------


def test_default_sweep_grid_keeps_its_cache_keys(monkeypatch):
    """``repro sweep``'s default grid hashes to the keys it had before
    the job spec module, so existing result caches stay warm."""
    monkeypatch.delenv("REPRO_RECORDS", raising=False)
    spec = parse_spec("sweep", {})
    assert spec.cell == {"records": 3000}
    cells = plan_sweep(spec)
    assert len(cells) == 56
    assert keys_digest(cells) == (
        "ce341fef37d98fc5b8d68321137dca10b5008fc89b2337ca33f44d1c8d2b826f")


def test_every_cell_field_keeps_its_cache_keys():
    cells = plan_sweep(parse_spec("sweep", {
        "workloads": ["bc"], "scenarios": ["tab1-ycsb"],
        "variants": ["Base-CSSD", "SkyByte-Full"], "records": 200,
        "threads": 4, "scale": 256, "timing": "SLC", "seed": 7,
        "device_model": "deep",
    }))
    assert [c.workload for c in cells] == ["bc", "bc", "tab1-ycsb", "tab1-ycsb"]
    assert keys_digest(cells) == (
        "d322f8229d88e124f80157cd97eaa86117eb454ecf679ccbe72cbf23bccaf46f")


# -- library and CLI range checks -------------------------------------------------


@pytest.mark.parametrize("kwargs, name", [
    ({"threads": 0}, "threads"),
    ({"records_per_thread": 0}, "records_per_thread"),
])
def test_run_workload_rejects_empty_runs(kwargs, name):
    params = dict({"records_per_thread": R}, **kwargs)
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        run_workload("bc", "Base-CSSD", **params)


@pytest.mark.parametrize("argv, option", [
    (["run", "bc", "Base-CSSD", "--records", "0"], "--records"),
    (["run", "bc", "Base-CSSD", "--scale", "0"], "--scale"),
    (["run", "bc", "Base-CSSD", "--seed", "-1"], "--seed"),
    (["sweep", "--workloads", "bc", "--variants", "DRAM-Only",
      "--records", "0"], "--records"),
    (["sweep", "--workloads", "bc", "--variants", "DRAM-Only",
      "--threads", "-3"], "--threads"),
    (["figures", "fig2", "--workloads", "bc", "--records", "0"], "--records"),
    (["profile", "bc", "Base-CSSD", "--seed", "-1"], "--seed"),
    (["trace", "gen", "web-tier", "-o", "x.sbt", "--threads", "0"],
     "--threads"),
    (["trace", "capture", "bc", "Base-CSSD", "-o", "x.sbt", "--scale", "0"],
     "--scale"),
    (["job", "submit", "sweep", "--records", "0"], "--records"),
])
def test_bad_cell_options_exit_2_naming_the_option(capsys, monkeypatch,
                                                   tmp_path, argv, option):
    monkeypatch.chdir(tmp_path)
    extra = ["--records", str(R)] if "--records" not in argv else []
    if argv[0] in ("run", "sweep", "figures"):
        extra.append("--no-cache")
    with pytest.raises(SystemExit) as info:
        main(argv + extra)
    assert info.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err

