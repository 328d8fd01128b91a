"""End-to-end observability (docs/OBSERVABILITY.md).

Four layers under test:

* the labeled metrics registry and its Prometheus text renderer;
* the sim-time timeline tracer (Chrome trace-event/Perfetto JSON) and
  the spans the simulator records into it -- including the two
  acceptance scenarios: a deep-model background-GC campaign and a
  QoS-paced flash read must both be visible as spans;
* structured JSON-lines logging and wall-clock span contexts (wire and
  HTTP header codecs, nesting);
* the service's ``/metrics`` + ``/healthz`` endpoints, scraped while a
  live job runs.

Observability must be serialisation-invisible: with it off (the
default) stats payloads, config dicts, and cache keys are
byte-identical to the pre-observability shapes -- several tests here
pin exactly that.
"""

import io
import json
import urllib.request

import pytest

from repro.config import SimConfig, TraceConfig
from repro.experiments.runner import run_workload
from repro.obs.log import JsonLinesLogger, get_logger
from repro.obs.metrics import MetricsRegistry, _NOOP, _default_enabled
from repro.obs.spans import (
    SpanContext,
    activate,
    current_context,
    deactivate,
    span,
)
from repro.obs.timeline import TimelineTracer
from repro.sim.stats import EngineStats, SimStats


# -- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_families(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c_total", "a counter", kind="x").inc()
        reg.counter("c_total", "a counter", kind="x").inc(2)
        reg.counter("c_total", "a counter", kind="y").inc()
        reg.gauge("g", "a gauge").set(7)
        reg.histogram("h_seconds", "a histogram").observe(0.02)
        assert reg.value("c_total", kind="x") == 3
        assert reg.value("c_total", kind="y") == 1
        assert reg.value("g") == 7
        assert reg.value("never_published") is None
        snap = reg.snapshot()
        assert snap["c_total"]['{kind="x"}'] == 3
        assert snap["h_seconds"]["_count"] == 1
        assert snap["h_seconds"]["_sum"] == pytest.approx(0.02)

    def test_prometheus_rendering(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("jobs_total", "jobs seen", kind="sweep").inc(4)
        reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP jobs_total jobs seen" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{kind="sweep"} 4' in text
        # Cumulative buckets: 0.5 falls past the 0.1 bound, into 1.0.
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 2, 3]

    def test_disabled_registry_is_a_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c_total")
        assert c is _NOOP
        assert c is reg.histogram("h") is reg.gauge("g")
        c.inc()
        assert reg.snapshot() == {}
        assert reg.render_prometheus() == ""

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert _default_enabled()
        for off in ("0", "false", "off"):
            monkeypatch.setenv("REPRO_METRICS", off)
            assert not _default_enabled()
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert _default_enabled()

    def test_label_escaping(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c_total", "", path='a"b\\c').inc()
        assert 'c_total{path="a\\"b\\\\c"} 1' in reg.render_prometheus()


# -- timeline tracer ---------------------------------------------------------


class TestTimelineTracer:
    def test_lanes_allocate_metadata_once(self):
        tracer = TimelineTracer()
        pid_a = tracer.lane("flash", "channel 0")
        assert tracer.lane("flash", "channel 0") == pid_a
        pid_b = tracer.lane("flash", "channel 1")
        assert pid_b[0] == pid_a[0] and pid_b[1] != pid_a[1]
        doc = tracer.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = sorted(e["args"]["name"] for e in meta)
        assert names == ["channel 0", "channel 1", "flash"]

    def test_complete_converts_ns_to_us(self):
        tracer = TimelineTracer()
        tracer.complete("flash.read", "flash", "channel 0", 1_000, 4_500,
                        args={"channel": 0})
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1.0)
        assert event["dur"] == pytest.approx(3.5)
        assert event["args"] == {"channel": 0}

    def test_max_events_bounds_memory_and_counts_drops(self):
        tracer = TimelineTracer(max_events=2)
        for i in range(5):
            tracer.instant("tick", "engine", "events", i)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_write_emits_loadable_chrome_json(self, tmp_path):
        tracer = TimelineTracer()
        tracer.complete("device", "core 0", "requests", 0, 100)
        tracer.counter("queue_depth", "engine", 50, {"depth": 3})
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases


# -- structured logging ------------------------------------------------------


class TestJsonLinesLogger:
    def test_emits_one_json_object_per_line(self):
        buf = io.StringIO()
        log = JsonLinesLogger("worker", stream=buf)
        log.info("served", cells=12, from_cache=7)
        log.warning("slow", seconds=1.5)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0]["logger"] == "worker"
        assert lines[0]["event"] == "served"
        assert lines[0]["cells"] == 12
        assert lines[1]["level"] == "warning"
        assert all("ts" in line for line in lines)

    def test_level_threshold_resolved_at_call_time(self, monkeypatch):
        buf = io.StringIO()
        log = JsonLinesLogger("t", stream=buf)
        monkeypatch.setenv("REPRO_LOG", "error")
        log.info("dropped")
        monkeypatch.setenv("REPRO_LOG", "debug")
        log.debug("kept")
        events = [json.loads(line)["event"]
                  for line in buf.getvalue().splitlines()]
        assert events == ["kept"]

    def test_get_logger_caches_per_name(self):
        assert get_logger("same") is get_logger("same")
        buf = io.StringIO()
        assert get_logger("same", stream=buf) is not get_logger("same")

    def test_reserved_keys_cannot_be_clobbered(self):
        buf = io.StringIO()
        JsonLinesLogger("x", stream=buf).info("e", level="oops", extra=1)
        record = json.loads(buf.getvalue())
        assert record["level"] == "info"
        assert record["extra"] == 1


# -- span contexts -----------------------------------------------------------


class TestSpanContext:
    def test_wire_codec_round_trip(self):
        root = SpanContext.new_root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert SpanContext.from_wire(child.to_wire()) == child

    def test_wire_codec_rejects_malformed(self):
        assert SpanContext.from_wire(None) is None
        assert SpanContext.from_wire("nope") is None
        assert SpanContext.from_wire({"trace_id": "t"}) is None

    def test_header_codec(self):
        ctx = SpanContext(trace_id="abc", span_id="def")
        assert ctx.to_header() == "abc:def"
        parsed = SpanContext.from_header("abc:def")
        assert parsed.trace_id == "abc" and parsed.span_id == "def"
        assert SpanContext.from_header(None) is None
        assert SpanContext.from_header("no-colon") is None
        assert SpanContext.from_header(":half") is None

    def test_activation_and_nesting(self):
        assert current_context() is None
        remote = SpanContext.new_root()
        token = activate(remote)
        try:
            assert current_context() is remote
            with span("outer") as outer:
                assert outer.trace_id == remote.trace_id
                assert outer.parent_id == remote.span_id
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert current_context() is outer
        finally:
            deactivate(token)
        assert current_context() is None

    def test_span_publishes_duration_histogram(self):
        from repro.obs import REGISTRY
        if not REGISTRY.enabled:
            pytest.skip("REPRO_METRICS disabled")
        before = REGISTRY.snapshot().get("repro_span_seconds", {})
        with span("test.unit"):
            pass
        after = REGISTRY.snapshot()["repro_span_seconds"]
        key = '{span="test.unit"}_count'
        assert after[key] == before.get(key, 0) + 1


# -- TraceConfig serialisation invariance ------------------------------------


class TestTraceConfigSerialisation:
    def test_default_block_is_omitted(self):
        data = SimConfig().to_dict()
        assert "trace" not in data

    def test_non_default_round_trips(self):
        config = SimConfig().replace(trace=dict(enabled=True, max_events=1000))
        data = config.to_dict()
        assert data["trace"]["enabled"] is True
        back = SimConfig.from_dict(json.loads(json.dumps(data)))
        assert back.trace == TraceConfig(enabled=True, max_events=1000)
        assert back.to_dict() == data

    def test_replace_trace_does_not_mutate(self):
        base = SimConfig()
        traced = base.replace(trace=dict(enabled=True))
        assert base.trace == TraceConfig()
        assert traced.trace.enabled


# -- engine counters through SimStats ----------------------------------------


class TestEngineStats:
    def test_merge_and_round_trip(self):
        a, b = EngineStats(), EngineStats()
        a.events_processed, a.past_clamps = 10, 1
        b.events_processed, b.past_clamps = 5, 2
        a.merge(b)
        assert (a.events_processed, a.past_clamps) == (15, 3)
        assert EngineStats.from_dict(a.to_dict()).to_dict() == a.to_dict()

    def test_simstats_round_trip_preserves_engine_block(self):
        stats = SimStats()
        stats.engine = EngineStats()
        stats.engine.events_processed = 42
        data = stats.to_dict()
        assert data["engine"]["events_processed"] == 42
        back = SimStats.from_dict(json.loads(json.dumps(data)))
        assert back.engine.events_processed == 42
        assert "events_processed" in back.summary()

    def test_simstats_merge_adopts_engine_block(self):
        plain, traced = SimStats(), SimStats()
        traced.engine = EngineStats()
        traced.engine.events_processed = 7
        plain.merge(traced)
        assert plain.engine.events_processed == 7

    def test_untraced_stats_serialise_without_engine_key(self):
        stats = SimStats()
        assert stats.engine is None
        assert "engine" not in stats.to_dict()
        assert "events_processed" not in stats.summary()


# -- traced runs: spans from the simulator -----------------------------------


def _span_names(tracer):
    return {e["name"] for e in tracer.events() if e["ph"] == "X"}


class TestTracedRuns:
    def test_run_workload_timeline_records_request_spans(self, tmp_path):
        out = tmp_path / "trace.json"
        result = run_workload("ycsb", "Base-CSSD", records_per_thread=50,
                              timeline=str(out))
        assert result.stats.engine is not None
        assert result.stats.engine.events_processed > 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"mem.read", "cxl.down", "device", "cxl.up"} <= names

    def test_untimed_run_is_serialisation_identical(self):
        traced = run_workload("ycsb", "Base-CSSD", records_per_thread=50)
        assert traced.stats.engine is None
        assert "engine" not in traced.stats.to_dict()
        assert "trace" not in traced.config.to_dict()

    def test_deep_model_gc_campaign_is_a_span(self):
        """Acceptance: a background-GC campaign shows in the timeline."""
        from repro.sim.engine import Engine
        from repro.ssd.factory import build_flash_subsystem
        from repro.config import DeviceModelConfig, SSDConfig
        from repro.ssd.flash import FlashGeometry

        geometry = FlashGeometry(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=1, blocks_per_plane=8, pages_per_block=4,
        )
        config = SimConfig(
            ssd=SSDConfig(geometry=geometry, dram_bytes=64 * 1024,
                          write_log_bytes=8 * 1024),
            device_model=DeviceModelConfig(kind="deep"),
        )
        engine = Engine()
        stats = SimStats()
        ftl, flash, gc = build_flash_subsystem(config, engine, stats)
        flash.tracer = TimelineTracer()
        lpas = list(range(4))
        while ftl.free_blocks_in_channel(0) > gc.watermark:
            for lpa in lpas:
                ftl.write(lpa, channel=0)
        gc.maybe_collect(0, 0.0)
        engine.run()
        assert stats.device.background_campaigns >= 1
        campaigns = [e for e in flash.tracer.events()
                     if e["ph"] == "X" and e["name"] == "gc.campaign"]
        assert campaigns, _span_names(flash.tracer)
        assert campaigns[0]["args"]["blocks_freed"] >= 1
        assert campaigns[0]["args"]["mode"] == "background"

    def test_qos_paced_flash_read_is_a_span(self):
        """Acceptance: a QoS-paced read records its pacing delay and a
        per-tenant lane."""
        from repro.config import FLASH_TIMINGS, QoSConfig
        from repro.qos import FlashPacingArbiter, TenantMap
        from repro.sim.engine import Engine
        from repro.ssd.flash import FlashArray, FlashGeometry

        ULL = FLASH_TIMINGS["ULL"]

        geometry = FlashGeometry(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=1, blocks_per_plane=8, pages_per_block=4,
        )
        tmap = TenantMap(QoSConfig(
            isolation="wfq",
            partitions=((0, 16), (16, 16)),
            weights=(1.0, 1.0),
        ))
        flash = FlashArray(geometry, ULL, Engine(), SimStats())
        flash.arbiter = FlashPacingArbiter(tmap, geometry.channels, 1,
                                           ULL.read_ns)
        flash.tracer = TimelineTracer()
        # Both tenants hammer channel 0: the second tenant's reads are
        # admission-paced behind the first's in-flight work.
        for i in range(6):
            flash.read_page(0, float(i), tenant=0)
            flash.read_page(1, float(i), tenant=1)
        reads = [e for e in flash.tracer.events()
                 if e["ph"] == "X" and e["name"] == "flash.read"]
        assert reads
        paced = [e for e in reads if e["args"].get("pacing_ns", 0) > 0]
        assert paced, "no read was admission-paced"
        doc = flash.tracer.to_chrome()
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"tenant 0", "tenant 1"} <= lanes


# -- live service telemetry --------------------------------------------------


class TestServiceTelemetry:
    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service.api import ServiceAPI
        from repro.service.coordinator import SweepService

        log = io.StringIO()
        svc = SweepService(state_dir=tmp_path / "state",
                           cache_dir=tmp_path / "cache", log=log)
        svc.start()
        api = ServiceAPI(svc)
        api.start()
        try:
            yield svc, api, log
        finally:
            api.close()
            svc.close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.headers, resp.read().decode()

    def test_healthz_and_metrics_during_live_job(self, service):
        from repro.service.client import ServiceClient
        svc, api, log = service
        headers, body = self._get(api.url + "/healthz")
        assert json.loads(body) == {"ok": True}

        client = ServiceClient(api.url)
        with span("test.submit"):
            job = client.submit("sweep", {"workloads": ["ycsb"],
                                          "variants": ["Base-CSSD"],
                                          "records": 50})
        job_id = int(job["id"])
        # Scrape while the job is live (queued or running).
        headers, body = self._get(api.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert 'repro_service_jobs{state="queued"}' in body
        assert 'repro_service_jobs{state="running"}' in body
        assert "repro_service_max_active 1" in body

        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        _headers, body = self._get(api.url + "/metrics")
        assert 'repro_service_jobs{state="done"} 1' in body
        assert "repro_service_cache_entries 1" in body
        assert "repro_service_cache_puts 1" in body
        # Global counter: assert presence, not an absolute count (other
        # tests in the process may have submitted jobs too).
        assert 'repro_service_jobs_submitted_total{kind="sweep"}' in body

    def test_trace_header_is_captured_on_submit(self, tmp_path):
        """The client's X-Repro-Trace header reaches the coordinator.

        The service is deliberately NOT started, so the submitted job
        cannot be claimed and the captured context is still pending
        when we look.
        """
        from repro.service.api import ServiceAPI
        from repro.service.client import ServiceClient
        from repro.service.coordinator import SweepService

        svc = SweepService(state_dir=tmp_path / "state",
                           cache_dir=tmp_path / "cache")
        api = ServiceAPI(svc)
        api.start()
        try:
            client = ServiceClient(api.url)
            with span("test.trace") as ctx:
                job = client.submit("sweep", {"workloads": ["ycsb"]})
                want_trace = ctx.trace_id
            job_id = int(job["id"])
            captured = svc._traces[job_id]
            assert captured.trace_id == want_trace
            # Without an active client span no header is sent.
            bare = client.submit("sweep", {"workloads": ["ycsb"]})
            assert int(bare["id"]) not in svc._traces
        finally:
            api.close()
            svc.close()

    def test_submitted_trace_is_consumed_by_the_job(self, service):
        from repro.service.client import ServiceClient
        svc, api, log = service
        client = ServiceClient(api.url)
        with span("test.trace"):
            job = client.submit("sweep", {"workloads": ["ycsb"],
                                          "variants": ["Base-CSSD"],
                                          "records": 50})
        client.wait(int(job["id"]), timeout=300)
        records = [json.loads(line)
                   for line in log.getvalue().splitlines() if line.strip()]
        events = {r["event"] for r in records}
        assert {"job_queued", "job_started", "job_done"} <= events
        assert svc._traces == {}  # consumed when the job ran


# -- CLI surfaces ------------------------------------------------------------


class TestCliSurfaces:
    def test_cache_stats_json(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["cache", "stats", "--json",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0
        # Process-global counter: other tests may have recorded hits.
        assert isinstance(payload["remote_cache_hits"], int)
        assert payload["remote_cache_hits"] >= 0
        assert "metrics" in payload
        assert payload["cache_dir"] == str(tmp_path / "cache")

    def test_cache_stats_human_format_unchanged(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["cache", "stats", "--cache-dir", str(tmp_path / "c")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out  # CI's cli-smoke greps this

    def test_run_timeline_flag_writes_trace(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "tl.json"
        rc = main(["run", "ycsb", "Base-CSSD", "--records", "50",
                   "--timeline", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "wrote timeline" in text
        assert "events_processed" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


# -- trend tracking ----------------------------------------------------------


class TestTrends:
    def test_append_and_load(self, tmp_path):
        from repro.figures.trends import append_trend, load_trends
        fidelity = tmp_path / "BENCH_fidelity.json"
        fidelity.write_text(json.dumps(
            {"overall": {"score": 0.9, "complete": True,
                         "cells_run": 4, "cells_cached": 2}}))
        trends = tmp_path / "trends.ndjson"
        row = append_trend(trends, fidelity_path=fidelity, speed_path=None)
        assert row["fidelity_score"] == 0.9
        append_trend(trends, fidelity_path=fidelity, speed_path=None)
        rows = load_trends(trends)
        assert len(rows) == 2
        assert all(r["fidelity_score"] == 0.9 for r in rows)

    def test_append_without_inputs_is_a_noop(self, tmp_path):
        from repro.figures.trends import append_trend
        trends = tmp_path / "trends.ndjson"
        assert append_trend(trends, fidelity_path=tmp_path / "nope.json",
                            speed_path=None) is None
        assert not trends.exists()

    def test_load_skips_malformed_lines(self, tmp_path):
        from repro.figures.trends import load_trends
        trends = tmp_path / "trends.ndjson"
        trends.write_text('{"fidelity_score": 1.0}\nnot json\n[]\n')
        rows = load_trends(trends)
        assert rows == [{"fidelity_score": 1.0}]

    def test_sparkline_and_markdown(self):
        from repro.figures.trends import render_markdown, sparkline
        assert sparkline([]) == ""
        assert sparkline([1.0, None, 3.0]) == "▁ █"
        assert sparkline([2.0, 2.0]) == "██"
        lines = render_markdown([
            {"fidelity_score": 0.5, "speedup_geomean": 2.0},
            {"fidelity_score": 0.9, "speedup_geomean": 3.0},
        ])
        text = "\n".join(lines)
        assert "| fidelity score |" in text
        assert "0.9" in text
        assert render_markdown([]) == []

    def test_speed_rows_read_perfbench_throughput(self, tmp_path):
        """Schema-2 ``BENCH_speed.json`` rows carry per-workload
        ``accesses_per_s``; rows from the retired ratio bench still
        render next to them."""
        from repro.figures.trends import append_trend, render_markdown
        speed = tmp_path / "BENCH_speed.json"
        speed.write_text(json.dumps({"schema": 2, "workloads": {
            "cells-flat": {"result": {"metrics": {
                "accesses_per_s": {"value": 1.5e5, "unit": "1/s"}}}},
        }}))
        row = append_trend(tmp_path / "trends.ndjson", speed_path=speed)
        assert row["accesses_per_s"] == {"cells-flat": 1.5e5}
        text = "\n".join(render_markdown([
            {"fidelity_score": 0.5, "speedup_geomean": 2.0}, row]))
        assert "| cells-flat accesses/s |" in text
        assert "1.5e+05" in text
        assert "| vector/scalar speedup (geomean) |" in text
