"""Tests for the ``python -m repro`` command line interface."""

import json
import re

import pytest

from repro.cli import FIGURES, main

R = "80"  # records per thread: plumbing-sized


def test_run_prints_summary(capsys, tmp_path):
    out_json = tmp_path / "run.json"
    rc = main(["run", "bc", "Base-CSSD", "--records", R, "--no-cache",
               "--json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bc / Base-CSSD" in out
    assert "throughput_ipns" in out
    data = json.loads(out_json.read_text())
    assert data["workload"] == "bc"
    assert data["stats"]["scalars"]["instructions"] > 0


def test_run_accepts_aliases_and_case(capsys):
    rc = main(["run", "YCSB-B", "skybyte-full", "--records", R, "--no-cache"])
    assert rc == 0
    assert "ycsb / SkyByte-Full" in capsys.readouterr().out


def test_run_unknown_workload_fails_cleanly(capsys):
    rc = main(["run", "nope", "Base-CSSD", "--records", R, "--no-cache"])
    assert rc == 2
    assert "unknown workload" in capsys.readouterr().err


def test_sweep_writes_results_and_reports_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    output = tmp_path / "results.json"
    argv = ["sweep", "--workloads", "ycsb-b", "--variants", "skybyte-full",
            "--records", R, "--jobs", "2", "--cache-dir", str(cache_dir),
            "--output", str(output), "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 hit(s), 1 miss(es)" in first

    payload = json.loads(output.read_text())
    assert payload["workloads"] == ["ycsb"]
    assert payload["variants"] == ["SkyByte-Full"]
    assert len(payload["results"]) == 1
    assert payload["results"][0]["stats"]["scalars"]["instructions"] > 0
    assert payload["cache"] == {"hits": 0, "misses": 1, "dir": str(cache_dir)}

    # Re-run: 100% cache hits, identical stats.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "1 hit(s), 0 miss(es) (100% hits)" in second
    repeat = json.loads(output.read_text())
    assert repeat["results"] == payload["results"]


def test_sweep_stream_emits_ndjson_per_cell(capsys, tmp_path):
    out = tmp_path / "stream.json"
    rc = main(["sweep", "--workloads", "bc", "--variants",
               "Base-CSSD,DRAM-Only", "--records", R, "--no-cache",
               "--stream", "--output", str(out)])
    assert rc == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert [(e["completed"], e["total"]) for e in lines] == [(1, 2), (2, 2)]
    assert {e["variant"] for e in lines} == {"Base-CSSD", "DRAM-Only"}
    assert all(e["source"] == "run" for e in lines)
    # Streaming never changes results: the saved JSON matches a
    # barrier-mode run byte for byte.
    barrier = tmp_path / "barrier.json"
    assert main(["sweep", "--workloads", "bc", "--variants",
                 "Base-CSSD,DRAM-Only", "--records", R, "--no-cache",
                 "--quiet", "--output", str(barrier)]) == 0
    capsys.readouterr()
    assert (json.loads(out.read_text())["results"]
            == json.loads(barrier.read_text())["results"])


def test_cell_policy_flags_reach_backend():
    import argparse

    from repro.cli import _backend_from_args

    args = argparse.Namespace(listen="127.0.0.1:0", backend=None,
                              jobs=None, cell_timeout=1.5, retry_budget=2)
    with _backend_from_args(args) as backend:
        assert backend.policy.cell_timeout == 1.5
        assert backend.policy.retry_budget == 2


def test_sweep_multiple_cells_table(capsys, tmp_path):
    rc = main(["sweep", "--workloads", "bc,ycsb", "--variants",
               "Base-CSSD,DRAM-Only", "--records", R, "--no-cache", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "= 4 cell(s)" in out
    assert "cache: disabled" in out
    assert out.count("DRAM-Only") >= 2


def test_figures_subcommand_writes_json(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    rc = main(["figures", "fig2", "--workloads", "bc", "--records", R,
               "--no-cache", "--output", str(out_dir), "--quiet"])
    assert rc == 0
    data = json.loads((out_dir / "fig2.json").read_text())
    assert data["bc"]["slowdown"] > 1.0


def test_figures_rejects_unknown_name(capsys, tmp_path):
    rc = main(["figures", "fig999", "--output", str(tmp_path)])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figures_registry_covers_every_driver():
    expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
                "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
                "fig20", "fig21", "fig22", "fig23", "table3", "cost"}
    assert expected <= set(FIGURES)


def test_sweep_scenario_option(capsys, tmp_path):
    out = tmp_path / "scenario.json"
    rc = main(["sweep", "--scenario", "web-tier", "--variants", "Base-CSSD",
               "--records", R, "--no-cache", "--quiet", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["workloads"] == ["web-tier"]
    assert payload["results"][0]["workload"] == "web-tier"


def test_sweep_scenario_mixes_with_workloads(capsys):
    rc = main(["sweep", "--workloads", "bc", "--scenario", "tab1-ycsb",
               "--variants", "Base-CSSD", "--records", R, "--no-cache",
               "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bc" in out and "tab1-ycsb" in out


def test_sweep_unknown_scenario_fails_cleanly(capsys):
    rc = main(["sweep", "--scenario", "nope", "--records", R, "--no-cache"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_accepts_scenario_names(capsys):
    rc = main(["run", "graph-walk", "Base-CSSD", "--records", R,
               "--no-cache"])
    assert rc == 0
    assert "graph-walk / Base-CSSD" in capsys.readouterr().out


# -- trace gen / inspect / capture / replay ---------------------------------


def test_trace_gen_inspect_replay_roundtrip(capsys, tmp_path):
    trace = tmp_path / "t.sbt"
    rc = main(["trace", "gen", "web-tier", "--threads", "2", "--records", R,
               "-o", str(trace)])
    assert rc == 0
    assert trace.is_file()
    capsys.readouterr()

    assert main(["trace", "inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "web-tier" in out and "records" in out

    out_json = tmp_path / "replay.json"
    rc = main(["trace", "replay", str(trace), "--variant", "Base-CSSD",
               "--no-cache", "--json", str(out_json)])
    assert rc == 0
    assert json.loads(out_json.read_text())["workload"] == "web-tier"


def test_trace_gen_multiple_names_builds_colocation(capsys, tmp_path):
    trace = tmp_path / "coloc.sbt"
    rc = main(["trace", "gen", "web-tier", "log-ingest", "--threads", "1",
               "--records", R, "-o", str(trace)])
    assert rc == 0
    capsys.readouterr()
    assert main(["trace", "inspect", str(trace), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["threads"] == 2
    assert info["meta"]["kind"] == "colocation"
    assert [t["name"] for t in info["meta"]["tenants"]] == [
        "web-tier", "log-ingest"]


def test_trace_capture_then_replay_is_bit_exact(capsys, tmp_path):
    trace = tmp_path / "cap.sbt"
    cap_json = tmp_path / "cap.json"
    rep_json = tmp_path / "rep.json"
    rc = main(["trace", "capture", "bc", "SkyByte-W", "--records", R,
               "-o", str(trace)])
    assert rc == 0
    rc = main(["trace", "replay", str(trace), "--no-cache",
               "--json", str(rep_json)])
    assert rc == 0
    rc = main(["run", "bc", "SkyByte-W", "--records", R, "--no-cache",
               "--json", str(cap_json)])
    assert rc == 0
    replayed = json.loads(rep_json.read_text())
    direct = json.loads(cap_json.read_text())
    assert (json.dumps(replayed["stats"], sort_keys=True)
            == json.dumps(direct["stats"], sort_keys=True))


def test_trace_replay_missing_file_fails_cleanly(capsys, tmp_path):
    rc = main(["trace", "replay", str(tmp_path / "missing.sbt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_trace_replay_truncated_file_fails_cleanly(capsys, tmp_path):
    trace = tmp_path / "t.sbt"
    assert main(["trace", "gen", "log-ingest", "--threads", "1",
                 "--records", R, "-o", str(trace)]) == 0
    trace.write_bytes(trace.read_bytes()[:-10])
    capsys.readouterr()
    rc = main(["trace", "replay", str(trace), "--no-cache"])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_trace_gen_unknown_name_fails_cleanly(capsys, tmp_path):
    rc = main(["trace", "gen", "nope", "-o", str(tmp_path / "x.sbt")])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cache_stats_path_and_clear(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    main(["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
          "--records", R, "--cache-dir", str(cache_dir), "--quiet"])
    capsys.readouterr()

    assert main(["cache", "path", "--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out.strip() == str(cache_dir)

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries:   1" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert "removed 1 cached result(s)" in capsys.readouterr().out

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries:   0" in capsys.readouterr().out


def test_sweep_kept_children_match_in_process(capsys, tmp_path):
    out_serial = tmp_path / "serial.json"
    out_children = tmp_path / "children.json"
    base = ["sweep", "--workloads", "bc", "--variants", "Base-CSSD,DRAM-Only",
            "--records", R, "--no-cache", "--quiet"]
    assert main(base + ["--jobs", "1", "--output", str(out_serial)]) == 0
    assert main(base + ["--jobs", "2", "--output", str(out_children)]) == 0
    capsys.readouterr()
    serial = json.loads(out_serial.read_text())
    children = json.loads(out_children.read_text())
    assert serial["results"] == children["results"]
    assert serial["backend"] == "local[jobs=1]"
    assert children["backend"] == "local[jobs=2]"


@pytest.mark.parametrize("backend", ["thread", "threads", "process",
                                     "processes"])
def test_retired_backend_names_are_argparse_errors(capsys, backend):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--workloads", "bc", "--records", R, "--no-cache",
              "--backend", backend])
    assert info.value.code == 2
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "bc", "Base-CSSD"],
    ["sweep"],
    ["figures", "fig2"],
    ["report", "fig2"],
    ["trace", "replay", "missing.sbt"],
    ["serve"],
    ["job", "submit"],
])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_2_naming_the_option(capsys, argv, jobs):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--jobs", jobs])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "bc", "Base-CSSD", "--records", R, "--no-cache"],
    ["sweep", "--workloads", "bc", "--records", R, "--no-cache"],
    ["figures", "fig2", "--workloads", "bc", "--records", R, "--no-cache"],
])
@pytest.mark.parametrize("value", ["0", "-1", "lots"])
def test_bad_repro_jobs_is_rejected_naming_it(capsys, monkeypatch, tmp_path,
                                              argv, value):
    monkeypatch.setenv("REPRO_JOBS", value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_sweep_distributed_backend_matches_local(capsys, tmp_path, spawn_worker):
    """The acceptance path: ``sweep --backend distributed --listen
    HOST:PORT`` served by a real ``repro worker --connect`` subprocess is
    byte-identical to ``--backend local``."""
    from _worker_utils import free_port

    address = f"127.0.0.1:{free_port()}"
    proc = spawn_worker("--connect", address, "--no-cache")
    out_local = tmp_path / "local.json"
    out_dist = tmp_path / "dist.json"
    base = ["sweep", "--workloads", "bc", "--variants", "Base-CSSD,DRAM-Only",
            "--records", R, "--no-cache", "--quiet"]
    assert main(base + ["--backend", "local", "--output", str(out_local)]) == 0
    assert main(base + ["--backend", "distributed", "--listen", address,
                        "--output", str(out_dist)]) == 0
    capsys.readouterr()
    assert proc.wait(timeout=30) == 0  # listener closed -> clean exit
    local = json.loads(out_local.read_text())
    dist = json.loads(out_dist.read_text())
    assert json.dumps(local["results"], sort_keys=True) == json.dumps(
        dist["results"], sort_keys=True
    )


def test_sweep_distributed_without_workers_fails_cleanly(capsys):
    """``--backend distributed`` without ``--listen`` exits 2 and says
    how to start a dial-in fleet."""
    rc = main(["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
               "--records", R, "--no-cache", "--quiet",
               "--backend", "distributed"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--listen" in err and "repro worker --connect" in err


def test_cache_stats_reports_lifetime_counters(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
            "--records", R, "--cache-dir", str(cache_dir), "--quiet"]
    main(argv)
    main(argv)  # second run: one hit
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries:   1" in out
    assert "cap:       unbounded" in out
    # The cold-start miss predates the cache directory, so by design it
    # is not in the lifetime counters (no directory is conjured for it).
    assert "1 hit(s), 0 miss(es), 1 put(s), 0 eviction(s)" in out


def test_cache_stats_and_prune_do_not_create_missing_dir(capsys, tmp_path):
    cache_dir = tmp_path / "absent"
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries:   0" in capsys.readouterr().out
    assert main(["cache", "stats", "--json", "--cache-dir", str(cache_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["puts"] == 0
    assert main(["cache", "prune", "--max-bytes", "1",
                 "--cache-dir", str(cache_dir)]) == 0
    assert "evicted 0 entries" in capsys.readouterr().out
    assert not cache_dir.exists()


def test_cache_prune_requires_cap(capsys, tmp_path):
    rc = main(["cache", "prune", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "size cap" in capsys.readouterr().err


def test_cache_prune_evicts_lru(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    base = ["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
            "--cache-dir", str(cache_dir), "--quiet"]
    main(base + ["--records", R])
    main(base + ["--records", str(int(R) + 1)])  # a second, newer entry
    capsys.readouterr()
    entries = sorted(cache_dir.glob("*.json"))
    keep = max(p.stat().st_size for p in entries)
    assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                 "--max-bytes", str(keep)]) == 0
    assert "evicted 1 entry" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries:   1" in capsys.readouterr().out


def test_listen_conflicts_with_non_distributed_backend(capsys):
    rc = main(["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
               "--records", R, "--no-cache", "--quiet",
               "--listen", "127.0.0.1:0", "--backend", "serial"])
    assert rc == 2
    assert "incompatible" in capsys.readouterr().err


def test_worker_requires_a_mode():
    with pytest.raises(SystemExit):
        main(["worker"])


@pytest.mark.parametrize("argv", [
    ["registry", "--listen", "127.0.0.1:0"],
    ["sweep", "--workers", "127.0.0.1:7461"],
    ["sweep", "--registry", "127.0.0.1:7470"],
    ["sweep", "--backend", "registry"],
    ["serve", "--workers", "127.0.0.1:7461"],
    ["worker", "--listen", "127.0.0.1:0"],
    ["worker", "--connect", "127.0.0.1:7461", "--register", "127.0.0.1:7470"],
])
def test_removed_fleet_topologies_are_argparse_errors(argv, capsys):
    """Workers join a fleet one way only: by dialing in."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--workloads", "bc", "--listen", "127.0.0.1:99999"],
    ["serve", "--listen", "127.0.0.1:70000"],
    ["worker", "--connect", "127.0.0.1:99999"],
])
def test_out_of_range_port_fails_cleanly(argv, capsys, tmp_path):
    """A port outside 0-65535 is bad input (exit 2), not a traceback
    or a 10 s dial loop."""
    if argv[0] == "serve":
        argv = argv + ["--state-dir", str(tmp_path / "state"),
                       "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 2
    assert "bad address" in capsys.readouterr().err
    assert not (tmp_path / "state").exists()


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
    assert main(["cache", "path"]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "env-cache")


def test_records_env_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RECORDS", R)
    rc = main(["sweep", "--workloads", "bc", "--variants", "Base-CSSD",
               "--no-cache", "--quiet"])
    assert rc == 0
    assert f"{R} records/thread" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_bad_invocations_exit_nonzero(argv):
    with pytest.raises(SystemExit):
        main(argv)


def _profile_rows(out):
    """``{package: self seconds}`` from ``repro profile``'s table."""
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and (parts[0].startswith("repro")
                                or parts[0] in ("other", "total")):
            rows[parts[0]] = float(parts[1])
    return rows


def test_profile_package_rows_sum_to_total(capsys):
    rc = main(["profile", "tab1-ycsb", "SkyByte-Full", "--records", "300",
               "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("profile: tab1-ycsb / SkyByte-Full")
    rows = _profile_rows(out)
    total = rows.pop("total")
    assert {"repro.sim", "repro.ssd", "repro.cpu"} <= set(rows)
    assert abs(sum(rows.values()) - total) <= 0.01 * total
    assert "top 5 functions by self time:" in out
    assert len(out.split("top 5 functions by self time:")[1]
               .strip().splitlines()) == 6  # header + 5


def _profile_counts(capsys):
    assert main(["profile", "graph-walk", "SkyByte-Full", "--records", "200",
                 "--device-model", "deep", "--top", "0"]) == 0
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("counts: "))


def test_profile_counts_are_exact(capsys):
    """Calls and engine events of the profiled run do not depend on the
    host: two profiles of one deep cell print the same counts."""
    first = _profile_counts(capsys)
    assert re.fullmatch(
        r"counts: [\d,]+ calls \([\d.]+ per access\), [\d,]+ engine events "
        r"\([\d.]+ per access\), [\d,]+ simulated accesses", first), first
    assert _profile_counts(capsys) == first


def test_profile_unknown_variant_fails_cleanly(capsys):
    assert main(["profile", "bc", "nope", "--records", R]) == 2
    assert "unknown" in capsys.readouterr().err
