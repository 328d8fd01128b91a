"""Unified command line interface: ``python -m repro <subcommand>``.

Subcommands
===========

``run``
    Simulate one (workload, variant) cell and print its headline stats.
``sweep``
    Run a workload x variant grid through the parallel orchestrator
    (``--jobs N`` kept cell processes, on-disk result cache) and write
    the per-run stats as JSON.  ``--backend`` picks the execution
    backend (``local`` or ``serial``); ``--listen [HOST:]PORT`` instead
    coordinates TCP workers that dial in (``repro worker --connect
    HOST:PORT``).  ``--scenario NAME``
    adds phase-DSL scenarios (see ``docs/SCENARIOS.md``) to the grid
    alongside (or instead of) Table I workloads.
``trace``
    Portable trace files (``.sbt``): ``gen`` synthesizes a scenario or
    workload trace (several names build a multi-tenant colocation
    trace), ``capture`` records the stream a live simulation consumes,
    ``inspect`` prints a file's metadata and shape, and ``replay``
    re-simulates a file bit-exactly -- on any execution backend,
    through the same orchestrator/cache pipeline as ``sweep``.
``figures``
    Regenerate the paper's evaluation figures/tables through the shared
    orchestrator, one JSON file per figure.  The registered figure ids
    are the keys of :data:`FIGURES` (run ``repro figures --help`` for
    the list; ``docs/FIGURES.md`` documents each one).
``report``
    Run figure drivers and render their results: per-figure SVG charts
    (dependency-free renderer, no matplotlib) assembled with a
    reproduced-vs-paper fidelity table into ``REPORT.md`` and
    ``REPORT.html``.  The report is rewritten atomically after every
    finished simulation cell, so a long sweep can be watched by
    refreshing the file; a cache-warm re-run rebuilds it without
    re-simulating.
``worker``
    Serve sweep cells to a coordinator over TCP: ``--connect HOST:PORT``
    dials a ``sweep``/``figures``/``report``/``trace replay``/``serve``
    started with ``--listen``.  Workers may join and leave mid-sweep
    (see ``docs/DISTRIBUTED.md``).
``cache``
    Inspect (``stats``), bound (``prune``), locate (``path``) or empty
    (``clear``) the result cache.
``serve``
    Run the always-on sweep coordinator: an HTTP/JSON job API backed by
    a persistent sqlite queue and a sqlite-indexed result cache.
    Submitted sweep/scenario/report jobs survive coordinator restarts
    and are scheduled priority-first with fair share across submitters
    (see ``docs/DISTRIBUTED.md``).
``job``
    Client verbs for a running ``serve`` coordinator: ``submit``,
    ``list``, ``show``, ``events`` (``--follow`` streams NDJSON),
    ``result``, ``wait``, ``cancel``.  The server address comes from
    ``--server`` or ``REPRO_SERVICE``.

Trace length per thread follows ``REPRO_RECORDS`` unless ``--records``
is given; ``REPRO_JOBS`` sets the default worker count;
``REPRO_BENCH_BACKEND`` the default backend;
``REPRO_CELL_TIMEOUT``/``REPRO_RETRY_BUDGET`` (or
``--cell-timeout``/``--retry-budget``) the distributed per-cell
reliability policy; the cache lives in ``.repro_cache/``
(``REPRO_CACHE_DIR`` or ``--cache-dir`` override) and is size-capped by
``REPRO_CACHE_MAX_BYTES`` / ``--cache-max-bytes`` (0 = unbounded).
The CLI enables the result cache by default -- ``--no-cache`` opts out.
``sweep --stream`` emits one JSON line per completed cell (NDJSON) as
long sweeps progress instead of waiting for the final table.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import bench as bench_mod
from repro.experiments import ablation, colocation, cost, design, migration_study
from repro.experiments import flash_sensitivity, motivation, occupancy, overall
from repro.experiments import qos, sensitivity
from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    SweepBackend,
    parse_address,
    resolve_backend,
)
from repro.experiments.orchestrator import (
    ResultCache,
    SweepJob,
    default_jobs,
    run_sweep,
    stream_sweep,
    sweep_product,
)
from repro.experiments.runner import (
    DEFAULT_SCALE,
    build_config,
    capture_workload,
    default_records,
    run_workload,
)
from repro.experiments.worker import run_worker
from repro.figures.report import ReportBuilder
from repro.figures.trends import append_trend, load_trends
from repro.obs import REGISTRY
from repro.scenarios import (
    build_colocation,
    canonical_scenario,
    get_scenario,
    inspect_tracefile,
    read_meta,
    scenario_names,
    tenants_from_names,
    write_tracefile,
)
from repro.variants import MAIN_VARIANTS, VARIANTS, canonical_variant
from repro.workloads.suites import WORKLOAD_NAMES, canonical_workload

#: Figure/table drivers reachable from ``python -m repro figures``.
FIGURES: Dict[str, Callable] = {
    "fig2": motivation.fig2_dram_vs_cssd,
    "fig3": motivation.fig3_latency_distribution,
    "fig4": motivation.fig4_boundedness,
    "fig5": motivation.fig5_read_locality,
    "fig6": motivation.fig6_write_locality,
    "fig9": design.fig9_threshold_sweep,
    "fig10": design.fig10_scheduling_policies,
    "fig14": overall.fig14_overall,
    "fig15": overall.fig15_thread_scaling,
    "fig16": overall.fig16_request_breakdown,
    "fig17": overall.fig17_amat,
    "fig18": overall.fig18_write_traffic,
    "fig19": sensitivity.fig19_log_size_performance,
    "fig20": sensitivity.fig20_log_size_traffic,
    "fig21": sensitivity.fig21_dram_size,
    "fig22": sensitivity.fig22_flash_latency,
    "fig23": migration_study.fig23_migration_mechanisms,
    "table3": overall.table3_flash_read_latency,
    "colocation": colocation.colocation_study,
    "qos": qos.qos_slo_study,
    "flash-sensitivity": flash_sensitivity.flash_sensitivity_study,
    "cost": cost.cost_effectiveness,
    "prefetch-ablation": ablation.prefetch_ablation,
    "promotion-threshold": ablation.promotion_threshold_sweep,
    "persistence-interval": ablation.persistence_interval_sweep,
    "channel-occupancy": occupancy.channel_occupancy_study,
}


def _split_names(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated name options to one list."""
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out or None


def _cache_from_args(args: argparse.Namespace) -> object:
    """The cache argument for run_sweep: CLI caches by default."""
    if getattr(args, "no_cache", False):
        return False
    max_bytes = getattr(args, "cache_max_bytes", None)
    return ResultCache(getattr(args, "cache_dir", None), max_bytes=max_bytes)


def _policy_from_args(args: argparse.Namespace) -> Optional[CellPolicy]:
    """The per-cell reliability policy, or None for the env default.

    ``--cell-timeout`` / ``--retry-budget`` override the corresponding
    ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRY_BUDGET`` values; unset
    options keep the environment's (or built-in) defaults.
    """
    timeout = getattr(args, "cell_timeout", None)
    budget = getattr(args, "retry_budget", None)
    if timeout is None and budget is None:
        return None
    base = CellPolicy.from_env()
    return CellPolicy(
        cell_timeout=timeout if timeout is not None else base.cell_timeout,
        retry_budget=budget if budget is not None else base.retry_budget,
    )


def _backend_from_args(args: argparse.Namespace) -> SweepBackend:
    """The one backend a command runs all its sweeps on.

    ``--listen`` builds a coordinator workers dial in to
    (``repro worker --connect``); ``--backend`` names a local backend
    (``distributed`` needs ``--listen``); without either,
    ``REPRO_BENCH_BACKEND`` decides.  The command closes it at its end.
    """
    listen = getattr(args, "listen", None)
    spec = getattr(args, "backend", None)
    policy = _policy_from_args(args)
    if listen:
        if spec not in (None, "distributed"):
            raise ValueError(
                f"--listen is a distributed-backend option, "
                f"incompatible with --backend {spec}"
            )
        return DistributedBackend(listen=listen, policy=policy)
    return resolve_backend(spec, jobs=getattr(args, "jobs", None),
                           policy=policy)


def _print_kv(rows: Dict[str, object], indent: str = "  ") -> None:
    width = max(len(k) for k in rows) + 2
    for key, value in rows.items():
        if isinstance(value, float):
            print(f"{indent}{key:<{width}}{value:.6g}")
        else:
            print(f"{indent}{key:<{width}}{value}")


def _print_cache_summary(store: object, backend: object) -> None:
    """The shared tail output of sweep/report: cache and worker hits."""
    if isinstance(store, ResultCache):
        total = store.hits + store.misses
        pct = 100.0 * store.hits / total if total else 0.0
        print(f"cache: {store.hits} hit(s), {store.misses} miss(es) "
              f"({pct:.0f}% hits) in {store.root}")
    else:
        print("cache: disabled")
    if isinstance(backend, DistributedBackend) and backend.remote_cache_hits:
        print(f"workers answered {backend.remote_cache_hits} cell(s) "
              f"from their own cache")


def _progress_printer(verbose: bool) -> Optional[Callable[[SweepJob, str], None]]:
    if not verbose:
        return None

    def report(job: SweepJob, source: str) -> None:
        print(f"  [{source:>5}] {job.label()}", flush=True)

    return report


def _add_device_model_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device-model", dest="device_model", default=None,
                        choices=["flat", "deep"],
                        help="flash device model: flat horizon estimates or "
                             "the deep geometry/scheduler/GC model (default "
                             "flat; see docs/DEVICE_MODEL.md)")


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--records", type=int, default=None,
                        help="trace records per thread (default REPRO_RECORDS)")
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="cell processes, kept for the whole command "
                             "(default REPRO_JOBS or 1: in process)")
    parser.add_argument("--backend", default=None,
                        choices=["local", "serial", "distributed"],
                        help="execution backend (default REPRO_BENCH_BACKEND "
                             "or local; distributed needs --listen)")
    parser.add_argument("--listen", default=None, metavar="[HOST:]PORT",
                        help="coordinate distributed workers that dial in "
                             "(started with: repro worker --connect HOST:PORT); "
                             "port 0 picks a free port")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt cell timeout on distributed workers "
                             "(default REPRO_CELL_TIMEOUT; 0 = unlimited)")
    parser.add_argument("--retry-budget", type=int, default=None, metavar="N",
                        help="attempts per cell before the sweep fails "
                             "(default REPRO_RETRY_BUDGET or 3)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .repro_cache)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="evict LRU cache entries beyond this size "
                             "(default REPRO_CACHE_MAX_BYTES; 0 = unbounded)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")


def _bad_name(exc: KeyError) -> int:
    """Report an unknown workload/variant name and return exit code 2.

    Only name lookups are caught this way -- a KeyError escaping from
    deeper in a driver is a bug and must traceback, not masquerade as
    bad user input.
    """
    print(f"error: {exc.args[0]}", file=sys.stderr)
    return 2


def _bad_backend(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    try:
        job = SweepJob.make(
            args.workload,
            args.variant,
            records_per_thread=args.records,
            threads=args.threads,
            scale=args.scale,
            timing=args.timing,
            seed=args.seed,
            device_model=args.device_model,
        )
    except KeyError as exc:
        return _bad_name(exc)
    try:
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_backend(exc)
    with backend:
        if args.timeline:
            # A timelined cell records per-request spans, so it runs
            # in-process and uncached (its result carries the trace
            # config and engine counters, which cached results do not).
            result = run_workload(job.workload, job.variant,
                                  timeline=args.timeline, **dict(job.params))
        else:
            result = run_sweep([job], cache=_cache_from_args(args),
                               backend=backend,
                               policy=_policy_from_args(args))[0]
    print(f"{result.workload} / {result.variant} "
          f"({result.threads} threads, {result.config.ssd.timing.name} flash)")
    _print_kv(result.stats.summary())
    if args.timeline:
        print(f"wrote timeline {args.timeline} "
              f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        scenarios = [canonical_scenario(s)
                     for s in (_split_names(args.scenario) or [])]
        named = _split_names(args.workloads)
        workloads = [canonical_workload(w) for w in (named or [])]
        if not workloads and not scenarios:
            workloads = list(WORKLOAD_NAMES)
        workloads += scenarios
        variants = [canonical_variant(v)
                    for v in (_split_names(args.variants) or MAIN_VARIANTS)]
    except KeyError as exc:
        return _bad_name(exc)
    try:
        backend = _backend_from_args(args)
        jobs = args.jobs if args.jobs is not None else default_jobs()
    except ValueError as exc:
        return _bad_backend(exc)
    records = args.records or default_records()
    store = _cache_from_args(args)
    specs = sweep_product(
        workloads,
        variants,
        records_per_thread=records,
        threads=args.threads,
        scale=args.scale,
        timing=args.timing,
        seed=args.seed,
        device_model=args.device_model,
    )
    backend_label = backend.describe()
    print(f"sweep: {len(workloads)} workload(s) x {len(variants)} variant(s) "
          f"= {len(specs)} cell(s), {records} records/thread, jobs={jobs}, "
          f"backend={backend_label}", flush=True)
    policy = _policy_from_args(args)
    try:
        if args.stream:
            # Streaming mode: one JSON line per completed cell (NDJSON), in
            # completion order, so long sweeps can be tailed/piped live.
            results = [None] * len(specs)
            for update in stream_sweep(specs, jobs=jobs, cache=store,
                                       backend=backend, policy=policy):
                for i in update.positions:
                    results[i] = update.result
                r = update.result
                print(json.dumps({
                    "event": "cell",
                    "workload": r.workload,
                    "variant": r.variant,
                    "source": update.source,
                    "completed": update.completed,
                    "total": update.total,
                    "exec_ms": r.stats.execution_ns / 1e6,
                    "ipns": r.stats.throughput_ipns,
                }, sort_keys=True), flush=True)
        else:
            results = run_sweep(specs, jobs=jobs, cache=store, backend=backend,
                                progress=_progress_printer(not args.quiet),
                                policy=policy)
    finally:
        backend.close()

    header = f"{'workload':<12}{'variant':<16}{'threads':>8}" \
             f"{'exec_ms':>12}{'ipns':>10}{'ctx_sw':>8}"
    print(header)
    for r in results:
        print(f"{r.workload:<12}{r.variant:<16}{r.threads:>8}"
              f"{r.stats.execution_ns / 1e6:>12.3f}"
              f"{r.stats.throughput_ipns:>10.4f}"
              f"{r.stats.context_switches:>8}")

    _print_cache_summary(store, backend)

    if args.output:
        payload = {
            "workloads": workloads,
            "variants": variants,
            "records_per_thread": records,
            "jobs": jobs,
            "backend": backend_label,
            "results": [r.to_dict() for r in results],
        }
        if isinstance(store, ResultCache):
            payload["cache"] = {"hits": store.hits, "misses": store.misses,
                                "dir": str(store.root)}
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.output}")
    return 0


def _figure_kwargs(
    fn: Callable,
    args: argparse.Namespace,
    backend: object,
    cache: object = None,
    progress: Optional[Callable[[SweepJob, str], None]] = None,
) -> Dict[str, object]:
    """The subset of CLI options this figure driver understands.

    ``cache`` lets a multi-figure command share one store (so its
    hit/miss counters cover the whole run); ``progress`` reaches every
    driver that sweeps through the orchestrator (the replay-based
    figures 5/6 have no cells to report).
    """
    accepted = inspect.signature(fn).parameters
    candidates: Dict[str, object] = {
        "workloads": _split_names(args.workloads),
        "records": args.records,
        "jobs": args.jobs,
        # False (from --no-cache) must reach the driver explicitly,
        # otherwise resolve_cache would fall back to REPRO_CACHE.
        "cache": cache if cache is not None else _cache_from_args(args),
        "backend": backend,
        "progress": progress,
        "policy": _policy_from_args(args),
    }
    return {
        name: value
        for name, value in candidates.items()
        if name in accepted and value is not None
    }


def cmd_figures(args: argparse.Namespace) -> int:
    try:
        if args.workloads:
            args.workloads = [canonical_workload(w)
                              for w in _split_names(args.workloads)]
    except KeyError as exc:
        return _bad_name(exc)
    names = _split_names(args.names) or sorted(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    # One backend for all figures: a --listen coordinator binds its port
    # exactly once, kept cell processes serve every figure, and bad
    # backend arguments fail before any simulation.
    try:
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_backend(exc)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    progress = _progress_printer(not args.quiet)
    try:
        for name in names:
            fn = FIGURES[name]
            print(f"== {name}: {fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            data = fn(**_figure_kwargs(fn, args, backend, progress=progress))
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(data, indent=2, default=str))
            print(f"   wrote {path}")
    finally:
        backend.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render figures to SVG and assemble the paper-fidelity report."""
    try:
        if args.workloads:
            args.workloads = [canonical_workload(w)
                              for w in _split_names(args.workloads)]
    except KeyError as exc:
        return _bad_name(exc)
    names = (_split_names(args.names) or []) + (_split_names(args.figures) or [])
    names = list(dict.fromkeys(names)) or sorted(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    try:
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_backend(exc)
    out_dir = Path(args.output)
    builder = ReportBuilder(out_dir, names)
    printer = _progress_printer(not args.quiet)

    def progress(job: SweepJob, source: str) -> None:
        if printer is not None:
            printer(job, source)
        builder.cell_completed(job, source)

    store = _cache_from_args(args)
    failures: List[str] = []
    try:
        for name in names:
            fn = FIGURES[name]
            print(f"== {name}: {fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            builder.figure_started(name)
            kwargs = _figure_kwargs(fn, args, backend, cache=store,
                                    progress=progress)
            # One umbrella per figure: a failure anywhere -- driver,
            # JSON write, shaping, SVG render, fidelity scoring -- is
            # recorded as that figure's FAILED section and the report
            # moves on to the next figure.
            try:
                data = fn(**kwargs)
                (out_dir / f"{name}.json").write_text(
                    json.dumps(data, indent=2, default=str)
                )
                builder.figure_finished(name, data)
            except Exception:  # noqa: BLE001 - recorded, reported, non-zero exit
                builder.figure_failed(name, traceback.format_exc())
                failures.append(name)
                print(f"   FAILED (see {out_dir / 'REPORT.md'})",
                      file=sys.stderr)
                continue
            rendered = ", ".join(f for f, _svg in builder.svg_files[name])
            print(f"   rendered {rendered or 'report section'}")
    finally:
        backend.close()
        builder.render()
    if not args.no_trends:
        trends_path = Path(args.trends or os.environ.get("REPRO_TRENDS")
                           or "benchmarks/trends.ndjson")
        speed_path = out_dir / "BENCH_speed.json"
        if not speed_path.exists():
            speed_path = Path("BENCH_speed.json")
        row = append_trend(trends_path,
                           fidelity_path=out_dir / "BENCH_fidelity.json",
                           speed_path=speed_path)
        if row is not None:
            builder.trend_rows = load_trends(trends_path)
            builder.render()
            print(f"trends: appended commit {row.get('commit') or '?'} to "
                  f"{trends_path} ({len(builder.trend_rows)} row(s))")
    _print_cache_summary(store, backend)
    print(f"report: {out_dir / 'REPORT.md'} + {out_dir / 'REPORT.html'}")
    if failures:
        print(f"error: {len(failures)} figure(s) failed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    # Workers on one host share a content-addressed cache when pointed
    # at the same directory; a remote worker keeps its own (the sqlite
    # index needs shared memory, so no network filesystems).
    cache = (
        None
        if args.no_cache
        else ResultCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    )
    try:
        return run_worker(
            connect=args.connect,
            cache=cache,
            retries=args.retry,
            retry_delay=args.retry_delay,
            once=args.once,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_cache(args: argparse.Namespace) -> int:
    store = ResultCache(args.cache_dir, max_bytes=args.max_bytes)
    if args.action == "path":
        print(store.root)
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    if args.action == "prune":
        if store.max_bytes <= 0:
            print("error: prune needs a size cap "
                  "(--max-bytes or REPRO_CACHE_MAX_BYTES)", file=sys.stderr)
            return 2
        removed = store.prune()
        stats = store.stats()
        print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'} from "
              f"{store.root} ({stats['size_bytes']} bytes kept, "
              f"cap {store.max_bytes})")
        return 0
    stats = store.stats()
    if getattr(args, "json", False):
        payload = dict(stats)
        payload["cache_dir"] = str(store.root)
        remote_hits = REGISTRY.value("repro_remote_cache_hits_total")
        payload["remote_cache_hits"] = int(remote_hits or 0)
        payload["metrics"] = REGISTRY.snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache dir: {store.root}")
    print(f"entries:   {stats['entries']}")
    print(f"size:      {stats['size_bytes'] / 1024:.1f} KiB")
    cap = f"{stats['max_bytes']} bytes" if stats["max_bytes"] else "unbounded"
    print(f"cap:       {cap}")
    print(f"lifetime:  {stats['hits']} hit(s), {stats['misses']} miss(es), "
          f"{stats['puts']} put(s), {stats['evictions']} eviction(s)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Speed gate: run perfbench, emit BENCH_speed.json, optionally A/B
    against another checkout (see :mod:`repro.bench`)."""
    return bench_mod.run_from_args(args)


def _trace_gen_meta(names: Sequence[str], args: argparse.Namespace,
                    threads_per_tenant: int):
    """Build (traces, meta) for ``trace gen``: one name is a solo trace,
    several names become colocated tenants in disjoint partitions."""
    records = args.records or default_records()
    scale = args.scale or DEFAULT_SCALE
    seed = args.seed if args.seed is not None else 42
    qos_mode = getattr(args, "qos", None)
    if qos_mode and len(names) == 1:
        raise ValueError("--qos needs a multi-tenant (colocation) trace; "
                         "pass several scenario names")
    device_model = getattr(args, "device_model", None)
    if len(names) == 1:
        scenario = get_scenario(names[0])
        threads = threads_per_tenant
        traces = scenario.generate(threads, records, scale=scale, seed=seed)
        config = build_config(scale=scale, seed=seed, threads=threads,
                              device_model=device_model)
        meta = {
            "kind": "scenario",
            "workload": scenario.name,
            "scenario": scenario.to_dict(),
            "seed": seed,
            "scale": scale,
            "threads": threads,
            "records_per_thread": records,
            "mlp": scenario.mlp,
            "config": config.to_dict(),
        }
        return traces, meta
    tenants = tenants_from_names(names, threads=threads_per_tenant, seed=seed)
    plan = build_colocation(tenants, scale=scale, records_per_thread=records)
    config = build_config(scale=scale, seed=seed, threads=len(plan.traces),
                          device_model=device_model)
    if qos_mode:
        # Bake the QoS knobs into the embedded config: replay then
        # reconstructs the exact same isolation behaviour on any backend
        # (the qos-smoke CI job byte-compares local vs distributed).
        config = config.replace(qos=plan.qos_config(qos_mode))
    meta = {"kind": "colocation",
            "workload": "+".join(t.name for t in tenants),
            "seed": seed,
            "config": config.to_dict()}
    meta.update(plan.meta())
    return plan.traces, meta


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        if args.trace_cmd == "gen":
            names = _split_names(args.names)
            traces, meta = _trace_gen_meta(names, args, args.threads)
            write_tracefile(args.output, traces, meta)
            records = sum(len(t) for t in traces)
            print(f"wrote {args.output}: {meta['workload']} "
                  f"({len(traces)} thread(s), {records} record(s), "
                  f"seed {meta['seed']})")
            return 0
        if args.trace_cmd == "inspect":
            info = inspect_tracefile(args.file)
            if args.json:
                print(json.dumps(info, indent=2, sort_keys=True))
                return 0
            meta = info["meta"]
            _print_kv({
                "file": info["path"],
                "bytes": info["file_bytes"],
                "kind": meta.get("kind", "?"),
                "workload": meta.get("workload", "?"),
                "threads": info["threads"],
                "records": info["records"],
                "seed": meta.get("seed", "?"),
                "scale": meta.get("scale", "?"),
            }, indent="")
            header = f"{'thread':>6}{'records':>10}{'writes':>9}{'pages':>8}"
            print(header)
            for tid, row in enumerate(info["per_thread"]):
                print(f"{tid:>6}{row['records']:>10}"
                      f"{row['write_ratio']:>9.3f}{row['pages']:>8}")
            return 0
        if args.trace_cmd == "capture":
            options = {
                "records_per_thread": args.records,
                "threads": args.threads,
                "scale": args.scale,
                "seed": args.seed,
                "device_model": getattr(args, "device_model", None),
            }
            result = capture_workload(
                args.workload, args.variant, args.output,
                **{k: v for k, v in options.items() if v is not None},
            )
            print(f"captured {args.output} from live run "
                  f"{result.workload}/{result.variant} "
                  f"({result.threads} thread(s))")
            _print_kv(result.stats.summary())
            return 0
        # replay: one SweepJob keyed on the file content, so any backend
        # (and the result cache) can serve it like a normal sweep cell.
        meta = read_meta(args.file)
        variant = args.variant or meta.get("variant") or "Base-CSSD"
        job = SweepJob.make(str(meta.get("workload") or "trace"), variant,
                            trace=args.file)
        with _backend_from_args(args) as backend:
            result = run_sweep(
                [job], cache=_cache_from_args(args),
                backend=backend, policy=_policy_from_args(args),
            )[0]
        print(f"replayed {args.file}: {result.workload} / {result.variant} "
              f"({result.threads} thread(s))")
        _print_kv(result.stats.summary())
        if args.json:
            Path(args.json).write_text(
                json.dumps(result.to_dict(), indent=2, sort_keys=True)
            )
            print(f"wrote {args.json}")
        return 0
    except KeyError as exc:
        return _bad_name(exc)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


#: Default ``repro serve`` bind / ``repro job`` dial address.
DEFAULT_SERVICE_ADDR = "127.0.0.1:8642"


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on coordinator until interrupted."""
    from repro.service.api import ServiceAPI
    from repro.service.coordinator import SweepService

    try:
        host, port = parse_address(args.http or DEFAULT_SERVICE_ADDR)
        service = SweepService(
            state_dir=args.state_dir,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            listen=args.listen,
            jobs=args.jobs if args.jobs is not None else default_jobs(),
            policy=_policy_from_args(args),
            max_active=args.max_active,
            log=sys.stdout,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service.start()
    api = ServiceAPI(service, host=host, port=port)
    # SIGTERM (plain ``kill``, supervisors) takes the same shutdown path
    # as Ctrl-C, so the cache and job-store connections get closed.
    # SIGINT is mapped too: a shell that starts us in the background
    # hands down SIG_IGN for it.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    print(f"serve: listening on http://{api.address[0]}:{api.address[1]} "
          f"(backend: {service.backend_label}, state: {service.state_dir})",
          flush=True)
    try:
        api.serve_forever()
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", flush=True)
    finally:
        api.close()
        service.close()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one cell in process: self time per package, then the
    functions with the most self time (docs/PERFORMANCE.md)."""
    if args.top < 0:
        print("error: --top must be >= 0", file=sys.stderr)
        return 2
    try:
        job = SweepJob.make(
            args.workload,
            args.variant,
            records_per_thread=args.records,
            seed=args.seed,
            device_model=args.device_model,
        )
    except KeyError as exc:
        return _bad_name(exc)
    from repro.obs.profile import profile_cell, render_counts, render_profile

    result, stats, events = profile_cell(
        job.workload, job.variant, **job.kwargs())
    print(f"profile: {result.workload} / {result.variant} "
          f"({result.threads} threads, seed {result.config.seed}, "
          f"{result.config.device_model.kind} device model; second run)")
    print(render_counts(stats, events, result.stats.amat_accesses))
    print(render_profile(stats, args.top))
    return 0


def cmd_job(args: argparse.Namespace) -> int:
    """Talk to a running ``repro serve`` coordinator."""
    from repro.service.client import ServiceClient, ServiceError

    server = args.server or os.environ.get("REPRO_SERVICE",
                                           DEFAULT_SERVICE_ADDR)
    client = ServiceClient(server)
    try:
        return _run_job_verb(client, args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_job_verb(client: object, args: argparse.Namespace) -> int:
    verb = args.job_cmd
    if verb == "submit":
        spec: Dict[str, object] = {}
        if args.kind == "report":
            if args.figures:
                spec["figures"] = _split_names(args.figures)
        elif args.kind == "scenario":
            spec["names"] = _split_names(args.names) or []
        if args.workloads:
            spec["workloads"] = _split_names(args.workloads)
        if args.kind == "sweep" and args.scenario:
            spec["scenarios"] = _split_names(args.scenario)
        if args.variants:
            spec["variants"] = _split_names(args.variants)
        for knob in ("records", "threads", "scale", "timing", "seed", "jobs"):
            value = getattr(args, knob, None)
            if value is not None:
                spec[knob] = value
        submitter = (args.submitter or os.environ.get("USER")
                     or "anonymous")
        job = client.submit(args.kind, spec, submitter=submitter,
                            priority=args.priority)
        print(f"job {job['id']} ({job['kind']}) {job['state']}")
        if not args.follow:
            return 0
        for event in client.stream(job["id"]):
            print(json.dumps(event), flush=True)
        final = client.job(job["id"])
        return 0 if final["state"] == "done" else 1
    if verb == "list":
        jobs = client.jobs(state=args.state, submitter=args.submitter)
        for job in jobs:
            print(f"{job['id']:>5}  {job['state']:<9} {job['kind']:<8} "
                  f"prio={job['priority']:<3} {job['submitter']}")
        if not jobs:
            print("no jobs")
        return 0
    if verb == "show":
        print(json.dumps(client.job(args.id), indent=2))
        return 0
    if verb == "events":
        if args.follow:
            for event in client.stream(args.id, after=args.after):
                print(json.dumps(event), flush=True)
        else:
            for event in client.events(args.id, after=args.after):
                print(json.dumps(event))
        return 0
    if verb == "result":
        payload = client.result(args.id)
        if args.output:
            Path(args.output).write_text(json.dumps(payload, indent=2))
            print(f"wrote {args.output}")
        else:
            print(json.dumps(payload, indent=2))
        return 0
    if verb == "wait":
        job = client.wait(args.id, timeout=args.timeout)
        print(f"job {job['id']} {job['state']}")
        if job["state"] == "failed" and job.get("error"):
            print(job["error"], file=sys.stderr)
        return 0 if job["state"] == "done" else 1
    if verb == "cancel":
        outcome = client.cancel(args.id)
        print(f"job {outcome['id']} {outcome['state']}")
        return 0
    raise AssertionError(f"unhandled job verb {verb!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SkyByte reproduction: parallel experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one (workload, variant) cell")
    p_run.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)}")
    p_run.add_argument("variant", help=f"one of {', '.join(VARIANTS)}")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--scale", type=int, default=None)
    p_run.add_argument("--timing", default=None,
                       choices=["ULL", "ULL2", "SLC", "MLC"])
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--json", default=None, help="write RunResult JSON here")
    p_run.add_argument("--timeline", default=None, metavar="OUT.json",
                       help="write a sim-time Chrome-trace-event/Perfetto "
                            "timeline of the run here (same results; "
                            "bypasses the result cache; "
                            "see docs/OBSERVABILITY.md)")
    _add_device_model_option(p_run)
    _add_common_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a workload x variant grid in parallel"
    )
    p_sweep.add_argument("--workloads", action="append", default=None,
                         help="comma-separated or repeated (default: all)")
    p_sweep.add_argument("--scenario", action="append", default=None,
                         metavar="NAME,...",
                         help="phase-DSL scenarios to sweep alongside (or "
                              "instead of) Table I workloads; see "
                              "docs/SCENARIOS.md for the registry")
    p_sweep.add_argument("--variants", action="append", default=None,
                         help="comma-separated or repeated (default: Fig.14 set)")
    p_sweep.add_argument("--threads", type=int, default=None)
    p_sweep.add_argument("--scale", type=int, default=None)
    p_sweep.add_argument("--timing", default=None,
                         choices=["ULL", "ULL2", "SLC", "MLC"])
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--output", "-o", default=None,
                         help="write results JSON here")
    p_sweep.add_argument("--stream", action="store_true",
                         help="emit one JSON line per completed cell "
                              "(NDJSON), in completion order")
    _add_device_model_option(p_sweep)
    _add_common_run_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser(
        "figures", help="regenerate evaluation figures through the pool"
    )
    p_fig.add_argument("names", nargs="*", default=None,
                       help=f"figures to run (default all): "
                            f"{', '.join(sorted(FIGURES))}")
    p_fig.add_argument("--workloads", action="append", default=None)
    p_fig.add_argument("--output", "-o", default="figures_out",
                       help="directory for per-figure JSON (default figures_out)")
    _add_common_run_options(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_rep = sub.add_parser(
        "report",
        help="render figures to SVG and build REPORT.md/REPORT.html "
             "with a reproduced-vs-paper fidelity table",
    )
    p_rep.add_argument("names", nargs="*", default=None,
                       help=f"figures to include (default all): "
                            f"{', '.join(sorted(FIGURES))}")
    p_rep.add_argument("--figures", action="append", default=None,
                       metavar="NAME,...",
                       help="comma-separated figure ids (alternative to "
                            "the positional list)")
    p_rep.add_argument("--workloads", action="append", default=None,
                       help="restrict sweeps to these workloads "
                            "(comma-separated or repeated)")
    p_rep.add_argument("--output", "-o", default="report_out",
                       help="directory for REPORT.md/REPORT.html, SVGs and "
                            "per-figure JSON (default report_out)")
    p_rep.add_argument("--trends", default=None, metavar="NDJSON",
                       help="trend history file appended after the report "
                            "(default $REPRO_TRENDS or "
                            "benchmarks/trends.ndjson)")
    p_rep.add_argument("--no-trends", action="store_true",
                       help="skip appending to the trend history")
    _add_common_run_options(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_worker = sub.add_parser(
        "worker", help="serve sweep cells to a distributed coordinator"
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="dial a coordinator started with --listen")
    p_worker.add_argument("--cache-dir", default=None,
                          help="share this result cache directory")
    p_worker.add_argument("--cache-max-bytes", type=int, default=None)
    p_worker.add_argument("--no-cache", action="store_true",
                          help="run every cell, even if cached")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after serving one coordinator connection")
    p_worker.add_argument("--retry", type=int, default=40,
                          help="--connect attempts before giving up")
    p_worker.add_argument("--retry-delay", type=float, default=0.25)
    p_worker.set_defaults(func=cmd_worker)

    p_trace = sub.add_parser(
        "trace",
        help="generate, capture, inspect and replay portable .sbt traces",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)

    p_gen = trace_sub.add_parser(
        "gen",
        help="synthesize a scenario/workload trace (several names build "
             "a multi-tenant colocation trace)",
    )
    p_gen.add_argument("names", nargs="+",
                       help=f"scenario or workload name(s); scenarios: "
                            f"{', '.join(scenario_names())}")
    p_gen.add_argument("--output", "-o", required=True, metavar="FILE.sbt")
    p_gen.add_argument("--threads", type=int, default=2,
                       help="threads (per tenant when colocating; default 2)")
    p_gen.add_argument("--records", type=int, default=None,
                       help="records per thread (default REPRO_RECORDS)")
    p_gen.add_argument("--scale", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--qos", default=None, metavar="MODE",
                       choices=("wfq", "priority", "log-partition",
                                "cache-quota"),
                       help="embed a tenant-QoS config in the colocation "
                            "trace (wfq, priority, log-partition, "
                            "cache-quota; see docs/QOS.md)")
    _add_device_model_option(p_gen)
    p_gen.set_defaults(func=cmd_trace)

    p_inspect = trace_sub.add_parser(
        "inspect", help="print a tracefile's metadata and per-thread shape"
    )
    p_inspect.add_argument("file")
    p_inspect.add_argument("--json", action="store_true",
                           help="emit the full inspection as JSON")
    p_inspect.set_defaults(func=cmd_trace)

    p_capture = trace_sub.add_parser(
        "capture",
        help="run one simulation cell and capture the stream it consumes",
    )
    p_capture.add_argument("workload", help="workload or scenario name")
    p_capture.add_argument("variant", help=f"one of {', '.join(VARIANTS)}")
    p_capture.add_argument("--output", "-o", required=True, metavar="FILE.sbt")
    p_capture.add_argument("--records", type=int, default=None)
    p_capture.add_argument("--threads", type=int, default=None)
    p_capture.add_argument("--scale", type=int, default=None)
    p_capture.add_argument("--seed", type=int, default=None)
    _add_device_model_option(p_capture)
    p_capture.set_defaults(func=cmd_trace)

    p_replay = trace_sub.add_parser(
        "replay",
        help="re-simulate a tracefile bit-exactly (any backend, cached)",
    )
    p_replay.add_argument("file")
    p_replay.add_argument("--variant", default=None,
                          help="design variant (default: the file's, "
                               "else Base-CSSD)")
    p_replay.add_argument("--json", default=None,
                          help="write the RunResult JSON here")
    _add_common_run_options(p_replay)
    p_replay.set_defaults(func=cmd_trace)

    p_cache = sub.add_parser(
        "cache", help="inspect, bound, or clear the result cache"
    )
    p_cache.add_argument("action", nargs="?", default="stats",
                         choices=["stats", "prune", "clear", "path"])
    p_cache.add_argument("--cache-dir", default=None)
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable stats (store counters plus "
                              "the in-process metrics registry, including "
                              "remote cache hits)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="size cap for stats display and prune "
                              "(default REPRO_CACHE_MAX_BYTES)")
    p_cache.set_defaults(func=cmd_cache)

    p_bench = sub.add_parser(
        "bench",
        help="run perfbench's cells workloads and emit BENCH_speed.json; "
             "--against DIR gates on side-by-side A/B pairs",
    )
    bench_mod.add_arguments(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on sweep coordinator (HTTP job API + "
             "persistent sqlite queue)",
    )
    p_serve.add_argument("--http", default=None, metavar="[HOST:]PORT",
                         help=f"HTTP API bind address (default "
                              f"{DEFAULT_SERVICE_ADDR}; port 0 picks a free "
                              f"port, printed on stdout)")
    p_serve.add_argument("--state-dir", default=".repro_service",
                         help="job queue + artifacts directory "
                              "(default .repro_service)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result cache directory (sqlite-indexed)")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None)
    p_serve.add_argument("--jobs", type=_positive_int, default=None,
                         help="local cell processes per job "
                              "(default REPRO_JOBS or 1)")
    p_serve.add_argument("--listen", default=None, metavar="[HOST:]PORT",
                         help="accept dial-in workers "
                              "(repro worker --connect)")
    p_serve.add_argument("--max-active", type=int, default=1,
                         help="jobs run concurrently (default 1)")
    p_serve.add_argument("--cell-timeout", type=float, default=None)
    p_serve.add_argument("--retry-budget", type=int, default=None)
    p_serve.set_defaults(func=cmd_serve)

    p_prof = sub.add_parser(
        "profile",
        help="profile one cell in process: self time per repro package "
             "and the top functions",
    )
    p_prof.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)}")
    p_prof.add_argument("variant", help=f"one of {', '.join(VARIANTS)}")
    p_prof.add_argument("--records", type=int, default=None,
                        help="trace records per thread (default REPRO_RECORDS)")
    p_prof.add_argument("--seed", type=int, default=None)
    _add_device_model_option(p_prof)
    p_prof.add_argument("--top", type=int, default=25, metavar="K",
                        help="functions to list by self time (default 25)")
    p_prof.set_defaults(func=cmd_profile)

    p_job = sub.add_parser(
        "job", help="submit to / inspect a running serve coordinator"
    )
    p_job.add_argument("--server", default=None, metavar="URL",
                       help=f"coordinator address (default REPRO_SERVICE "
                            f"or {DEFAULT_SERVICE_ADDR})")
    job_sub = p_job.add_subparsers(dest="job_cmd", required=True)

    p_submit = job_sub.add_parser("submit", help="queue a job")
    p_submit.add_argument("kind", nargs="?", default="sweep",
                          choices=["sweep", "scenario", "report"])
    p_submit.add_argument("names", nargs="*", default=None,
                          help="scenario names (kind=scenario)")
    p_submit.add_argument("--workloads", action="append", default=None)
    p_submit.add_argument("--scenario", action="append", default=None,
                          help="scenarios to sweep alongside workloads "
                               "(kind=sweep)")
    p_submit.add_argument("--variants", action="append", default=None)
    p_submit.add_argument("--figures", action="append", default=None,
                          help="figure ids (kind=report; default all)")
    p_submit.add_argument("--records", type=int, default=None)
    p_submit.add_argument("--threads", type=int, default=None)
    p_submit.add_argument("--scale", type=int, default=None)
    p_submit.add_argument("--timing", default=None,
                          choices=["ULL", "ULL2", "SLC", "MLC"])
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument("--jobs", type=_positive_int, default=None)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--submitter", default=None,
                          help="fair-share identity (default $USER)")
    p_submit.add_argument("--follow", action="store_true",
                          help="stream events until the job finishes")
    p_submit.set_defaults(func=cmd_job)

    p_jlist = job_sub.add_parser("list", help="list jobs")
    p_jlist.add_argument("--state", default=None,
                         choices=["queued", "running", "done", "failed",
                                  "cancelled"])
    p_jlist.add_argument("--submitter", default=None)
    p_jlist.set_defaults(func=cmd_job)

    p_jshow = job_sub.add_parser("show", help="print one job as JSON")
    p_jshow.add_argument("id", type=int)
    p_jshow.set_defaults(func=cmd_job)

    p_jev = job_sub.add_parser("events", help="print a job's event log")
    p_jev.add_argument("id", type=int)
    p_jev.add_argument("--after", type=int, default=0,
                       help="only events with seq > N")
    p_jev.add_argument("--follow", action="store_true",
                       help="stream NDJSON until the job finishes")
    p_jev.set_defaults(func=cmd_job)

    p_jres = job_sub.add_parser("result", help="fetch a done job's payload")
    p_jres.add_argument("id", type=int)
    p_jres.add_argument("--output", "-o", default=None)
    p_jres.set_defaults(func=cmd_job)

    p_jwait = job_sub.add_parser("wait", help="block until a job finishes")
    p_jwait.add_argument("id", type=int)
    p_jwait.add_argument("--timeout", type=float, default=3600.0)
    p_jwait.set_defaults(func=cmd_job)

    p_jcancel = job_sub.add_parser("cancel", help="cancel a job")
    p_jcancel.add_argument("id", type=int)
    p_jcancel.set_defaults(func=cmd_job)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
