"""Command line interface: ``python -m repro <subcommand>``.

``run``/``sweep``/``profile`` simulate cells, ``trace`` writes, inspects
and replays ``.sbt`` trace files, ``figures``/``report`` regenerate the
paper's figures (``report`` also renders REPORT.md/REPORT.html),
``worker`` serves cells to a ``--listen`` coordinator, ``serve`` runs
the HTTP job service and ``job`` talks to it, ``cache`` and ``bench``
manage the result cache and the speed gate.  ``python -m repro CMD
--help`` lists each verb's options; README.md has the verb table.

The cell options are declared once, from
:data:`~repro.experiments.jobspec.CELL_FIELDS`, and ``sweep``,
``figures``, ``report`` and ``job submit`` build one job spec from argv
(:func:`_spec_from_args`), checked by the parser the service uses.
A command runs its sweeps on one backend it builds
(:func:`_backend_from_args`): ``--listen`` a distributed coordinator,
else ``--jobs`` local cell processes.  Environment defaults:
``REPRO_RECORDS``, ``REPRO_JOBS``,
``REPRO_CELL_TIMEOUT``/``REPRO_RETRY_BUDGET``, ``REPRO_CACHE_DIR``
(default ``.repro_cache/``) and ``REPRO_CACHE_MAX_BYTES``; a bad value
exits 2 naming the variable.  The CLI caches results by default;
``--no-cache`` opts out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import bench as bench_mod
from repro.config import ISOLATIONS
from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    LocalProcessBackend,
    SweepBackend,
    parse_address,
)
from repro.experiments.jobspec import (
    CELL_FIELDS,
    FIGURES,
    GRID_KEYS,
    JOBS,
    Field,
    SpecError,
    cell_event,
    cell_kwargs,
    parse_spec,
    plan_sweep,
    run_figures,
    sweep_payload,
)
from repro.experiments.orchestrator import ResultCache, SweepJob, run_sweep
from repro.experiments.runner import (
    DEFAULT_SCALE,
    build_config,
    capture_workload,
    default_records,
    parse_number,
    resolve_run,
    run_workload,
)
from repro.experiments.worker import run_worker
from repro.figures.report import ReportBuilder
from repro.figures.trends import append_trend, load_trends
from repro.obs import REGISTRY
from repro.scenarios import (
    build_colocation,
    get_scenario,
    inspect_tracefile,
    read_meta,
    scenario_names,
    tenants_from_names,
    write_tracefile,
)
from repro.variants import VARIANTS
from repro.workloads.suites import WORKLOAD_NAMES


def _split_names(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated name options to one list."""
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out or None


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """The command's result cache: the CLI caches by default."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir, max_bytes=args.cache_max_bytes)


def _policy_from_args(args: argparse.Namespace) -> Optional[CellPolicy]:
    """The distributed backend's cell policy, None without ``--listen``.

    ``--cell-timeout`` / ``--retry-budget`` override
    ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRY_BUDGET``.  Options of the
    backend the command does not build are a ``ValueError`` naming the
    option it needs: a setting is never ignored.
    """
    timeout, budget = args.cell_timeout, args.retry_budget
    if not args.listen:
        for option, value in (("--cell-timeout", timeout),
                              ("--retry-budget", budget)):
            if value is not None:
                raise ValueError(
                    f"{option} sets the distributed backend's cell policy "
                    f"and needs --listen [HOST:]PORT (workers dial in "
                    f"with repro worker --connect HOST:PORT)")
        return None
    if args.jobs is not None:
        raise ValueError("--jobs sets the local backend's cell processes "
                         "and is incompatible with --listen (the workers "
                         "that dial in run the cells)")
    return CellPolicy.from_env(cell_timeout=timeout, retry_budget=budget)


def _backend_from_args(args: argparse.Namespace) -> SweepBackend:
    """The one backend a command runs all its sweeps on, closed at its
    end: with ``--listen`` a coordinator workers dial in to (``repro
    worker --connect``), else ``--jobs`` (default ``REPRO_JOBS``) local
    cell processes."""
    policy = _policy_from_args(args)
    if policy is None:
        return LocalProcessBackend(args.jobs)
    return DistributedBackend(listen=args.listen, policy=policy)


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


def _add_spec_option(parser: argparse.ArgumentParser,
                     spec_field: Field) -> None:
    """One spec field as ``--name``; a number goes through the field's
    own check, so argv and HTTP reject the same values."""

    def number(text: str) -> object:
        try:
            return spec_field.check(int(text))
        except SpecError as exc:
            raise argparse.ArgumentTypeError(exc.reason) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None

    parser.add_argument(
        "--" + spec_field.name.replace("_", "-"), dest=spec_field.name,
        help=spec_field.help, choices=spec_field.choices or None,
        type=number if spec_field.type is int else None)


def _add_cell_options(parser: argparse.ArgumentParser,
                      names: Sequence[str] = ()) -> None:
    """The cell options (``--records --threads --scale --timing --seed
    --device-model``), or only ``names``."""
    for spec_field in CELL_FIELDS:
        if not names or spec_field.name in names:
            _add_spec_option(parser, spec_field)


def _number_type(option: str, minimum: float, kind: type) -> Callable:
    """An argparse ``type`` holding ``option`` to the rule its
    environment variable follows (:func:`parse_number`)."""
    def parse(raw: str) -> float:
        try:
            return parse_number(option, raw, minimum, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--listen", default=None, metavar="[HOST:]PORT",
                        help="coordinate distributed workers that dial in "
                             "(started with: repro worker --connect HOST:PORT); "
                             "port 0 picks a free port")
    parser.add_argument("--cell-timeout", default=None,
                        type=_number_type("--cell-timeout", 0, float),
                        metavar="SECONDS",
                        help="per-attempt cell timeout on distributed workers "
                             "(default REPRO_CELL_TIMEOUT; 0 = unlimited)")
    parser.add_argument("--retry-budget", default=None, metavar="N",
                        type=_number_type("--retry-budget", 1, int),
                        help="attempts per cell before the sweep fails "
                             "(default REPRO_RETRY_BUDGET or 3)")


def _add_cache_options(parser: argparse.ArgumentParser,
                       no_cache: bool = True) -> None:
    if no_cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .repro_cache; "
                             "processes on one host may share one)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="evict LRU cache entries beyond this size "
                             "(default REPRO_CACHE_MAX_BYTES; 0 = unbounded)")


def _add_grid_options(parser: argparse.ArgumentParser,
                      keys: Sequence[str]) -> None:
    """Name-list spec options, comma-separated or repeated."""
    helps = {
        "workloads": "Table I workloads (sweep default: all; figures: "
                     "restrict their sweeps to these)",
        "scenarios": "phase-DSL scenarios to sweep alongside (or instead "
                     "of) Table I workloads; see docs/SCENARIOS.md",
        "variants": "design variants (default: the Fig. 14 set)",
        "figures": "figure ids (default all; alternative to the "
                   "positional list)",
    }
    for key in keys:
        option = "--scenario" if key == "scenarios" else f"--{key}"
        parser.add_argument(option, dest=key, action="append", default=None,
                            metavar="NAME,...", help=helps[key])


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    _add_spec_option(parser, JOBS)
    _add_fleet_options(parser)
    _add_cache_options(parser)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")


def _bad_input(exc: Exception) -> int:
    """Report bad user input and return exit code 2.  Catch only name
    lookups and input checks with it: a KeyError from deep in a driver
    is a bug and must traceback."""
    message = exc.args[0] if isinstance(exc, KeyError) else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def _spec_from_args(kind: str, args: argparse.Namespace) -> Dict[str, object]:
    """The job spec an argv describes: what ``repro sweep|figures|report``
    run locally and ``repro job submit`` sends (see
    :func:`~repro.experiments.jobspec.parse_spec`)."""
    values = vars(args)
    spec = {key: _split_names(values.get(key)) for key in GRID_KEYS}
    names = _split_names(values.get("names"))
    if names:  # positional: figure ids for a report, else scenarios
        key = "figures" if kind == "report" else "names"
        spec[key] = names + (spec.get(key) or [])
    spec.update((f.name, values.get(f.name)) for f in CELL_FIELDS + (JOBS,))
    return {key: value for key, value in spec.items() if value is not None}


def _planned_job(args: argparse.Namespace) -> SweepJob:
    """The one cell ``run``/``profile`` name, checked before it runs:
    a bad config or REPRO_RECORDS is a ``ValueError`` here."""
    job = SweepJob.make(args.workload, args.variant, **cell_kwargs(vars(args)))
    resolve_run(job.workload, job.variant, **job.kwargs())
    return job


def cmd_run(args: argparse.Namespace) -> int:
    try:
        job = _planned_job(args)
        store = _cache_from_args(args)
        backend = _backend_from_args(args)
    except (KeyError, ValueError) as exc:
        return _bad_input(exc)
    with backend:
        if args.timeline:
            # A timelined cell records per-request spans, so it runs
            # in-process and uncached (its result carries the trace
            # config and engine counters, which cached results do not).
            result = run_workload(job.workload, job.variant,
                                  timeline=args.timeline, **dict(job.params))
        else:
            result = run_sweep([job], backend=backend, cache=store)[0]
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
        spec = parse_spec("sweep", _spec_from_args("sweep", args))
        store = _cache_from_args(args)
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_input(exc)
    cells = plan_sweep(spec)
    print(f"sweep: {len(spec.workloads)} workload(s) x "
          f"{len(spec.variants)} variant(s) = {len(cells)} cell(s), "
          f"{spec.cell['records']} records/thread, "
          f"backend={backend.describe()}", flush=True)

    def on_cell(update) -> None:
        if args.stream:
            # One JSON line per completed cell (NDJSON), in completion
            # order, so long sweeps can be tailed/piped live.
            print(json.dumps(cell_event(update), sort_keys=True), flush=True)
        elif not args.quiet:
            print(f"  [{update.source:>5}] {update.job.label()}", flush=True)

    with backend:
        results = run_sweep(cells, backend=backend, cache=store,
                            on_update=on_cell)
        # Described while open: a closed listener has no address.
        payload = sweep_payload(spec, backend, results, store)

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
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.output}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    # One sweep on one backend for all figures: a --listen coordinator
    # binds its port exactly once, kept cell processes serve every
    # figure, and bad backend arguments fail before any simulation.
    try:
        spec = parse_spec("report", _spec_from_args("report", args))
        store = _cache_from_args(args)
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_input(exc)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    with backend:
        run_figures(spec, out_dir, verbose=True,
                    progress=_progress_printer(not args.quiet),
                    backend=backend, cache=store)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render figures to SVG and assemble the paper-fidelity report."""
    try:
        spec = parse_spec("report", _spec_from_args("report", args))
        store = _cache_from_args(args)
        backend = _backend_from_args(args)
    except ValueError as exc:
        return _bad_input(exc)
    out_dir = Path(args.output)
    builder = ReportBuilder(out_dir, list(spec.figures))
    try:
        with backend:
            failures = run_figures(
                spec, out_dir, builder, verbose=True,
                progress=_progress_printer(not args.quiet),
                backend=backend, cache=store)
    finally:
        builder.render()
    if not args.no_trends:
        trends_path = Path(args.trends or out_dir / "trends.ndjson")
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
    try:
        return run_worker(connect=args.connect,
                          cache=_cache_from_args(args),
                          retries=args.retry, retry_delay=args.retry_delay,
                          once=args.once)
    except (ValueError, OSError) as exc:
        return _bad_input(exc)


def cmd_cache(args: argparse.Namespace) -> int:
    try:
        store = ResultCache(args.cache_dir, max_bytes=args.max_bytes)
    except ValueError as exc:
        return _bad_input(exc)
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


def _trace_gen_meta(names: Sequence[str], args: argparse.Namespace):
    """Build (traces, meta) for ``trace gen``: one name is a solo trace,
    several names become colocated tenants in disjoint partitions
    (``--threads`` is then per tenant)."""
    records = args.records or default_records()
    scale = args.scale or DEFAULT_SCALE
    seed = args.seed if args.seed is not None else 42
    if args.qos and len(names) == 1:
        raise ValueError("--qos needs a multi-tenant (colocation) trace; "
                         "pass several scenario names")
    if len(names) == 1:
        scenario = get_scenario(names[0])
        traces = scenario.generate(args.threads, records, scale=scale,
                                   seed=seed)
        meta = {"kind": "scenario", "workload": scenario.name,
                "scenario": scenario.to_dict(), "seed": seed, "scale": scale,
                "threads": args.threads, "records_per_thread": records,
                "mlp": scenario.mlp}
    else:
        tenants = tenants_from_names(names, threads=args.threads, seed=seed)
        plan = build_colocation(tenants, scale=scale,
                                records_per_thread=records)
        traces = plan.traces
        meta = {"kind": "colocation", "seed": seed,
                "workload": "+".join(t.name for t in tenants), **plan.meta()}
    config = build_config(scale=scale, seed=seed, threads=len(traces),
                          device_model=args.device_model)
    if args.qos:
        # Bake the QoS knobs into the embedded config: replay then
        # reconstructs the exact same isolation behaviour on any backend
        # (the qos-smoke CI job byte-compares local vs distributed).
        config = config.replace(qos=plan.qos_config(args.qos))
    meta["config"] = config.to_dict()
    return traces, meta


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        if args.trace_cmd == "gen":
            names = _split_names(args.names)
            traces, meta = _trace_gen_meta(names, args)
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
            result = capture_workload(args.workload, args.variant,
                                      args.output, **cell_kwargs(vars(args)))
            print(f"captured {args.output} from live run "
                  f"{result.workload}/{result.variant} "
                  f"({result.threads} thread(s))")
            _print_kv(result.stats.summary())
            return 0
        # replay: one SweepJob keyed on the file content, so any backend
        # (and the result cache) can serve it like a normal sweep cell.
        store = _cache_from_args(args)
        with _backend_from_args(args) as backend:
            meta = read_meta(args.file)
            variant = args.variant or meta.get("variant") or "Base-CSSD"
            job = SweepJob.make(str(meta.get("workload") or "trace"),
                                variant, trace=args.file)
            result = run_sweep([job], backend=backend, cache=store)[0]
        print(f"replayed {args.file}: {result.workload} / {result.variant} "
              f"({result.threads} thread(s))")
        _print_kv(result.stats.summary())
        if args.json:
            Path(args.json).write_text(
                json.dumps(result.to_dict(), indent=2, sort_keys=True)
            )
            print(f"wrote {args.json}")
        return 0
    except (KeyError, ValueError, OSError) as exc:
        return _bad_input(exc)


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
            jobs=args.jobs,
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
        job = _planned_job(args)
    except (KeyError, ValueError) as exc:
        return _bad_input(exc)
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
        spec = _spec_from_args(args.kind, args)
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
    p_run.add_argument("--json", default=None, help="write RunResult JSON here")
    p_run.add_argument("--timeline", default=None, metavar="OUT.json",
                       help="write a sim-time Chrome-trace-event/Perfetto "
                            "timeline of the run here (same results; "
                            "bypasses the result cache; "
                            "see docs/OBSERVABILITY.md)")
    _add_cell_options(p_run)
    _add_common_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a workload x variant grid in parallel"
    )
    _add_grid_options(p_sweep, ["workloads", "scenarios", "variants"])
    p_sweep.add_argument("--output", "-o", default=None,
                         help="write results JSON here")
    p_sweep.add_argument("--stream", action="store_true",
                         help="emit one JSON line per completed cell "
                              "(NDJSON), in completion order")
    _add_cell_options(p_sweep)
    _add_common_run_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser(
        "figures", help="regenerate evaluation figures through the pool"
    )
    p_fig.add_argument("names", nargs="*", default=None,
                       help=f"figures to run (default all): "
                            f"{', '.join(sorted(FIGURES))}")
    _add_grid_options(p_fig, ["workloads"])
    p_fig.add_argument("--output", "-o", default="figures_out",
                       help="directory for per-figure JSON (default figures_out)")
    _add_cell_options(p_fig, ["records"])
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
    _add_grid_options(p_rep, ["figures", "workloads"])
    p_rep.add_argument("--output", "-o", default="report_out",
                       help="directory for REPORT.md/REPORT.html, SVGs and "
                            "per-figure JSON (default report_out)")
    p_rep.add_argument("--trends", default=None, metavar="NDJSON",
                       help="trend history file appended after the report "
                            "(default <output>/trends.ndjson)")
    p_rep.add_argument("--no-trends", action="store_true",
                       help="skip appending to the trend history")
    _add_cell_options(p_rep, ["records"])
    _add_common_run_options(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_worker = sub.add_parser(
        "worker", help="serve sweep cells to a distributed coordinator"
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="dial a coordinator started with --listen")
    _add_cache_options(p_worker)
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
    p_trace.set_defaults(func=cmd_trace)
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
    _add_cell_options(p_gen, ["records", "threads", "scale", "seed",
                              "device_model"])
    p_gen.set_defaults(threads=2)  # per tenant when colocating
    p_gen.add_argument("--qos", default=None, metavar="MODE",
                       choices=ISOLATIONS[1:],
                       help=f"embed a tenant-QoS config in the colocation "
                            f"trace ({', '.join(ISOLATIONS[1:])}; see "
                            f"docs/QOS.md)")

    p_inspect = trace_sub.add_parser(
        "inspect", help="print a tracefile's metadata and per-thread shape"
    )
    p_inspect.add_argument("file")
    p_inspect.add_argument("--json", action="store_true",
                           help="emit the full inspection as JSON")

    p_capture = trace_sub.add_parser(
        "capture",
        help="run one simulation cell and capture the stream it consumes",
    )
    p_capture.add_argument("workload", help="workload or scenario name")
    p_capture.add_argument("variant", help=f"one of {', '.join(VARIANTS)}")
    p_capture.add_argument("--output", "-o", required=True, metavar="FILE.sbt")
    _add_cell_options(p_capture, ["records", "threads", "scale", "seed",
                                  "device_model"])

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
    p_bench.set_defaults(func=bench_mod.run_from_args)

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
    _add_cache_options(p_serve, no_cache=False)
    _add_spec_option(p_serve, JOBS)
    _add_fleet_options(p_serve)
    p_serve.add_argument("--max-active", type=int, default=1,
                         help="jobs run concurrently (default 1)")
    p_serve.set_defaults(func=cmd_serve)

    p_prof = sub.add_parser(
        "profile",
        help="profile one cell in process: self time per repro package "
             "and the top functions",
    )
    p_prof.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)}")
    p_prof.add_argument("variant", help=f"one of {', '.join(VARIANTS)}")
    _add_cell_options(p_prof, ["records", "seed", "device_model"])
    p_prof.add_argument("--top", type=int, default=25, metavar="K",
                        help="functions to list by self time (default 25)")
    p_prof.set_defaults(func=cmd_profile)

    p_job = sub.add_parser(
        "job", help="submit to / inspect a running serve coordinator"
    )
    p_job.add_argument("--server", default=None, metavar="URL",
                       help=f"coordinator address (default REPRO_SERVICE "
                            f"or {DEFAULT_SERVICE_ADDR})")
    p_job.set_defaults(func=cmd_job)
    job_sub = p_job.add_subparsers(dest="job_cmd", required=True)

    p_submit = job_sub.add_parser("submit", help="queue a job")
    p_submit.add_argument("kind", nargs="?", default="sweep",
                          choices=["sweep", "scenario", "report"])
    p_submit.add_argument("names", nargs="*", default=None,
                          help="scenario names (kind=scenario) or figure "
                               "ids (kind=report)")
    _add_grid_options(p_submit, GRID_KEYS)
    _add_cell_options(p_submit)
    _add_spec_option(p_submit, JOBS)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--submitter", default=None,
                          help="fair-share identity (default $USER)")
    p_submit.add_argument("--follow", action="store_true",
                          help="stream events until the job finishes")

    p_jlist = job_sub.add_parser("list", help="list jobs")
    p_jlist.add_argument("--state", default=None,
                         choices=["queued", "running", "done", "failed",
                                  "cancelled"])
    p_jlist.add_argument("--submitter", default=None)

    p_jshow = job_sub.add_parser("show", help="print one job as JSON")
    p_jshow.add_argument("id", type=int)

    p_jev = job_sub.add_parser("events", help="print a job's event log")
    p_jev.add_argument("id", type=int)
    p_jev.add_argument("--after", type=int, default=0,
                       help="only events with seq > N")
    p_jev.add_argument("--follow", action="store_true",
                       help="stream NDJSON until the job finishes")

    p_jres = job_sub.add_parser("result", help="fetch a done job's payload")
    p_jres.add_argument("id", type=int)
    p_jres.add_argument("--output", "-o", default=None)

    p_jwait = job_sub.add_parser("wait", help="block until a job finishes")
    p_jwait.add_argument("id", type=int)
    p_jwait.add_argument("--timeout", type=float, default=3600.0)

    p_jcancel = job_sub.add_parser("cancel", help="cancel a job")
    p_jcancel.add_argument("id", type=int)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
