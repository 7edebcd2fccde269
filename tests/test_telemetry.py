"""Fleet telemetry: spans, the hub, exports, and the disabled-path
invariant (telemetry on and off produce byte-identical results)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.harness.cache import ResultCache
from repro.harness.engine import EngineStats, ExperimentEngine, make_job
from repro.harness.journal import JobJournal
from repro.obs import EventRing, TraceEvent
from repro.obs.export import fleet_chrome_trace, validate_chrome_trace
from repro.obs.spans import Span, SpanRecorder, TraceContext, new_sweep_id
from repro.obs.telemetry import (
    SUMMARY_GAUGES,
    TelemetryHub,
    fleet_summary,
    format_engine_summary,
    prometheus_text,
    read_snapshot,
    read_spans,
    spans_cover_journal,
)

BUDGET = 2_000
WARMUP = 200


def _jobs(workloads=("art", "dot"), **kwargs):
    return [
        make_job(
            w, max_instructions=BUDGET, warmup_instructions=WARMUP,
            **kwargs,
        )
        for w in workloads
    ]


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext("sweep-1", "abc123", 2)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_for_job_and_retry(self):
        sweep = TraceContext("sweep-1")
        job = sweep.for_job("k", 0)
        assert job.job_key == "k" and job.sweep_id == "sweep-1"
        again = job.retry()
        assert again.attempt == 1 and again.job_key == "k"

    def test_sweep_ids_are_distinct(self):
        assert new_sweep_id() != TraceContext("x").sweep_id


class TestSpanRecorder:
    def test_buffers_without_sink_and_drains(self):
        recorder = SpanRecorder(TraceContext("s"), role="worker")
        with recorder.span("run", foo=1):
            pass
        recorder.instant("commit", ok=True)
        drained = recorder.drain()
        assert [d["name"] for d in drained] == ["run", "commit"]
        assert drained[0]["role"] == "worker"
        assert drained[0]["fields"] == {"foo": 1}
        assert recorder.drain() == []

    def test_sink_receives_spans_immediately(self):
        seen = []
        recorder = SpanRecorder(TraceContext("s"), sink=seen.append)
        recorder.instant("submit")
        assert len(seen) == 1 and seen[0]["name"] == "submit"
        assert recorder.drain() == []  # nothing buffered

    def test_broken_sink_disables_itself(self):
        def explode(_record):
            raise BrokenPipeError

        recorder = SpanRecorder(TraceContext("s"), sink=explode)
        recorder.instant("submit")  # swallowed
        assert recorder.sink is None
        recorder.instant("commit")  # now buffers
        assert [d["name"] for d in recorder.drain()] == ["commit"]

    def test_span_context_manager_marks_errors(self):
        recorder = SpanRecorder(TraceContext("s"))
        with pytest.raises(ValueError):
            with recorder.span("run"):
                raise ValueError("boom")
        [record] = recorder.drain()
        assert record["fields"]["error"] is True
        assert record["end_s"] >= record["start_s"]

    def test_sample_sink_produces_sample_records(self):
        recorder = SpanRecorder(TraceContext("s", "key1"))
        forward = recorder.sample_sink()
        forward({"ipc": 1.25, "cycle": 500})
        [record] = recorder.drain()
        assert record["type"] == "sample"
        assert record["job_key"] == "key1"
        assert record["fields"]["ipc"] == 1.25

    def test_span_round_trip(self):
        span = Span(
            "run", TraceContext("s", "k", 1), start_s=1.0, end_s=2.0,
            pid=42, role="worker", fields={"ok": True},
        )
        back = Span.from_dict(span.to_dict())
        assert back == span
        assert back.duration_s == 1.0


class TestEngineSummaryFormat:
    def test_stats_summary_matches_gauge_summary(self):
        """Satellite 1: one formatter behind both renderings."""
        stats = EngineStats(
            jobs_run=3, jobs_cached=2, jobs_resumed=1, jobs_failed=0,
            leases_reclaimed=4, jobs_retried=3, jobs_quarantined=1,
            wall_time_spent_s=1.23, wall_time_saved_s=4.56,
        )
        hub = TelemetryHub()
        pairs = {
            "run": 3, "cached": 2, "resumed": 1, "failed": 0,
            "reclaimed": 4, "retried": 3, "quarantined": 1,
        }
        for label, gauge in SUMMARY_GAUGES:
            hub.metrics.gauge(gauge).set(pairs[label])
        hub.metrics.gauge("engine.wall_time_spent_s").set(1.23)
        hub.metrics.gauge("engine.wall_time_saved_s").set(4.56)
        assert stats.summary() == fleet_summary(hub.metrics)

    def test_summary_shape_is_ci_greppable(self):
        """CI greps 'engine: run=N cached=N'; the layout is frozen."""
        line = format_engine_summary({"run": 5, "cached": 2})
        assert line.startswith("engine: run=5 cached=2 ")
        assert line.endswith("spent=0.0s saved=0.0s")


class TestPrometheusText:
    def test_counters_gauges_histograms(self):
        hub = TelemetryHub()
        hub.metrics.counter("fleet.cache_probes").inc(3)
        hub.metrics.gauge("fleet.workers").set(4)
        hist = hub.metrics.histogram("load.latency", bounds=[1, 10])
        hist.observe(0.5)
        hist.observe(20.0)
        text = prometheus_text(hub.metrics)
        assert "# TYPE repro_fleet_cache_probes counter" in text
        assert "repro_fleet_cache_probes 3" in text
        assert "# TYPE repro_fleet_workers gauge" in text
        assert 'repro_load_latency_bucket{le="+Inf"} 2' in text
        assert "repro_load_latency_count 2" in text
        assert text.endswith("\n")


class TestTelemetryHub:
    def test_lifecycle_updates_gauges(self):
        hub = TelemetryHub()
        hub.sweep_started(workers=4)
        hub.job_submitted("a")
        hub.job_submitted("b")
        assert hub.metrics.gauge("fleet.queue_depth").value == 2
        hub.cache_probe("a", hit=True, elapsed_s=0.01)
        hub.cache_probe("b", hit=False, elapsed_s=0.01)
        assert hub.metrics.gauge("fleet.cache_hit_rate").value == 0.5
        hub.job_finished("a", ok=True, cached=True, cycles=100.0)
        assert hub.metrics.gauge("fleet.queue_depth").value == 1
        assert hub.metrics.gauge("fleet.sim_cycles_per_s").value > 0
        hub.workers_busy(3, 4)
        assert hub.metrics.gauge("fleet.workers_busy").value == 3
        assert hub.metrics.gauge("fleet.workers_idle").value == 1

    def test_ingest_routes_samples_to_ring_and_spans_to_list(self):
        hub = TelemetryHub()
        hub.ingest({
            "type": "sample", "name": "sample", "job_key": "k",
            "fields": {"ipc": 1.0, "index": 3},
        })
        hub.ingest({
            "type": "span", "name": "run", "job_key": "k",
            "start_s": 1.0, "end_s": 2.0, "pid": 7,
        })
        assert len(hub.spans()) == 1
        [event] = list(hub.ring)
        assert event.kind == "fleet_sample"
        assert event.fields["job_key"] == "k"

    def test_reclaim_retry_and_quarantine_markers(self):
        hub = TelemetryHub()
        hub.job_submitted("k")
        hub.job_reclaimed("k", attempt=1, reason="Crash", retrying=True)
        hub.job_reclaimed("k", attempt=2, reason="Crash", retrying=False)
        names = [s["name"] for s in hub.spans()]
        assert names.count("reclaim") == 2
        assert "retry" in names and "quarantine" in names

    def test_flush_writes_live_feed(self, tmp_path):
        hub = TelemetryHub(out_dir=tmp_path)
        hub.job_submitted("k")
        hub.job_finished("k", ok=True, cycles=10.0)
        hub.flush()
        snapshot = read_snapshot(tmp_path)
        assert snapshot["sweep_id"] == hub.sweep_id
        assert snapshot["spans_recorded"] == len(hub.spans())
        assert (tmp_path / "telemetry.prom").read_text().startswith("#")
        assert [s["name"] for s in read_spans(tmp_path)] == [
            s["name"] for s in hub.spans()
        ]

    def test_flush_appends_late_arriving_worker_spans(self, tmp_path):
        """Regression: a worker span arriving *after* a flush but with
        an *earlier* start time must still reach spans.jsonl."""
        hub = TelemetryHub(out_dir=tmp_path)
        hub.instant("submit", "k")
        hub.flush()
        hub.ingest({
            "type": "span", "name": "run", "job_key": "k",
            "start_s": 0.0, "end_s": 1.0, "pid": 9, "role": "worker",
        })
        hub.flush()
        names = sorted(s["name"] for s in read_spans(tmp_path))
        assert names == ["run", "submit"]


class TestFleetTrace:
    def _spans(self):
        return [
            {"type": "span", "name": "submit", "job_key": "aaa",
             "attempt": 0, "start_s": 1.0, "end_s": 1.0, "pid": 1,
             "role": "engine"},
            {"type": "span", "name": "run", "job_key": "aaa",
             "attempt": 0, "start_s": 1.5, "end_s": 3.0, "pid": 2,
             "role": "worker", "fields": {"workload": "art"}},
            {"type": "sample", "name": "sample", "job_key": "aaa",
             "attempt": 0, "start_s": 2.0, "end_s": 2.0, "pid": 2,
             "role": "worker", "fields": {"ipc": 1.0}},
        ]

    def test_valid_and_stitched(self):
        payload = fleet_chrome_trace(self._spans())
        assert validate_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {1, 2}
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names == {
            "repro engine (pid 1)", "repro worker (pid 2)",
        }

    def test_run_is_duration_slice_markers_are_instants(self):
        events = fleet_chrome_trace(self._spans())["traceEvents"]
        run = next(e for e in events if e["name"] == "run")
        assert run["ph"] == "X" and run["dur"] == pytest.approx(1.5e6)
        submit = next(e for e in events if e["name"] == "submit")
        assert submit["ph"] == "i"

    def test_track_assignment_is_deterministic(self):
        one = fleet_chrome_trace(self._spans())
        two = fleet_chrome_trace(self._spans())
        assert one == two

    def test_open_span_renders_as_instant(self):
        payload = fleet_chrome_trace([
            {"type": "span", "name": "run", "job_key": "a",
             "start_s": 1.0, "end_s": None, "pid": 1, "role": "worker"},
        ])
        assert validate_chrome_trace(payload) == []
        run = next(
            e for e in payload["traceEvents"] if e["name"] == "run"
        )
        assert run["ph"] == "i"


class TestSpansCoverJournal:
    def _journal_state(self, tmp_path, events):
        journal = JobJournal(tmp_path / "j", fsync=False)
        for event, key, data in events:
            journal.append(event, key=key, **data)
        journal.close()
        return journal.recover()

    def test_full_coverage_passes(self, tmp_path):
        state = self._journal_state(tmp_path, [
            ("submit", "k1", {}), ("start", "k1", {}),
            ("done", "k1", {"elapsed_s": 0.1}),
        ])
        spans = [
            {"name": "submit", "job_key": "k1"},
            {"name": "run", "job_key": "k1"},
            {"name": "commit", "job_key": "k1"},
        ]
        assert spans_cover_journal(spans, state) == []

    def test_missing_run_and_commit_flagged(self, tmp_path):
        state = self._journal_state(tmp_path, [
            ("submit", "k1", {}), ("done", "k1", {"elapsed_s": 0.1}),
        ])
        problems = spans_cover_journal(
            [{"name": "submit", "job_key": "k1"}], state
        )
        assert any("commit" in p for p in problems)
        assert any("run" in p for p in problems)

    def test_cache_hit_counts_as_done(self, tmp_path):
        state = self._journal_state(tmp_path, [
            ("submit", "k1", {}), ("cached", "k1", {}),
        ])
        spans = [
            {"name": "submit", "job_key": "k1"},
            {"name": "cache-probe", "job_key": "k1",
             "fields": {"hit": True}},
            {"name": "commit", "job_key": "k1"},
        ]
        assert spans_cover_journal(spans, state) == []

    def test_reclaims_and_quarantine_must_have_spans(self, tmp_path):
        state = self._journal_state(tmp_path, [
            ("submit", "k1", {}),
            ("reclaimed", "k1", {"reason": "Crash", "attempts": 1}),
            ("reclaimed", "k1", {"reason": "Crash", "attempts": 2}),
            ("quarantined", "k1", {"error": {"type": "Poison"}}),
        ])
        spans = [
            {"name": "submit", "job_key": "k1"},
            {"name": "reclaim", "job_key": "k1"},
            {"name": "commit", "job_key": "k1"},
        ]
        problems = spans_cover_journal(spans, state)
        assert any("reclaim" in p for p in problems)
        assert any("quarantine" in p for p in problems)


class TestEventRingConcurrentStreaming:
    def test_wraparound_under_concurrent_appends(self):
        """Satellite 3: the hub's live ring accepts concurrent feeders
        (supervisor drain thread + engine) and keeps exactly the newest
        window once wrapped."""
        ring = EventRing(64)
        threads = [
            threading.Thread(
                target=lambda base: [
                    ring.append(TraceEvent(base + i, "fleet_sample", {}))
                    for i in range(200)
                ],
                args=(t * 1000,),
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = ring.events()
        assert len(events) == 64
        summary = ring.summary()
        assert summary["total_emitted"] == 800
        assert summary["dropped"] == 800 - 64

    def test_hub_ring_wraps_without_losing_count(self):
        hub = TelemetryHub(ring_capacity=8)
        for i in range(50):
            hub.ingest({
                "type": "sample", "name": "sample", "job_key": "k",
                "fields": {"index": i},
            })
        assert len(list(hub.ring)) == 8
        assert hub.ring.summary()["total_emitted"] == 50


class TestValidatorEdgeCases:
    def test_rejects_non_object_top_level(self):
        assert validate_chrome_trace([]) == ["top level is not an object"]

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]

    def test_flags_bad_phase_missing_ts_and_missing_dur(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "Q", "pid": 0},
            {"name": "y", "ph": "i", "pid": 0},
            {"name": "z", "ph": "X", "ts": 1, "pid": 0},
        ]})
        assert any("invalid ph" in p for p in problems)
        assert any("has no ts" in p for p in problems)
        assert any("without dur" in p for p in problems)


class TestTelemetryEndToEnd:
    def _run(self, tmp_path, tag, telemetry=False, **engine_kwargs):
        journal = None
        hub = None
        if telemetry:
            journal = JobJournal(tmp_path / f"j{tag}", fsync=False)
            hub = TelemetryHub(out_dir=tmp_path / f"j{tag}")
        engine = ExperimentEngine(
            cache=ResultCache(tmp_path / f"c{tag}"),
            journal=journal,
            telemetry=hub,
            **engine_kwargs,
        )
        jobs = _jobs(sample_interval=500, checkpoint_every=1000)
        outcomes = engine.run(jobs)
        results = [o.result.to_dict() for o in outcomes]
        return engine, hub, journal, results

    def test_pool_results_identical_and_spans_cover(self, tmp_path):
        # Multi-worker runs go through the supervisor; the name is kept
        # from the pool backend it used to cover.
        _, _, _, baseline = self._run(tmp_path, "off", workers=2)
        engine, hub, journal, results = self._run(
            tmp_path, "on", telemetry=True, workers=2
        )
        assert results == baseline
        assert spans_cover_journal(hub.spans(), journal.recover()) == []
        assert validate_chrome_trace(hub.chrome_trace()) == []
        roles = {s["role"] for s in hub.spans()}
        assert roles == {"engine", "worker"}

    def test_supervised_streams_spans_live(self, tmp_path):
        _, _, _, baseline = self._run(tmp_path, "off2", workers=2)
        engine, hub, journal, results = self._run(
            tmp_path, "sup", telemetry=True, workers=2
        )
        assert results == baseline
        assert spans_cover_journal(hub.spans(), journal.recover()) == []
        # Workers stream: every worker span was ingested over the pipe.
        assert hub.ingested > 0
        # The interval sampler's windows arrived live in the ring.
        assert hub.ring.summary()["total_emitted"] > 0

    def test_cached_replay_probes_hit(self, tmp_path):
        self._run(tmp_path, "warm")
        engine = ExperimentEngine(
            cache=ResultCache(tmp_path / "cwarm"),
            telemetry=TelemetryHub(),
        )
        outcomes = engine.run(_jobs(
            sample_interval=500, checkpoint_every=1000
        ))
        assert all(o.cached for o in outcomes)
        probes = [
            s for s in engine.telemetry.spans()
            if s["name"] == "cache-probe"
        ]
        assert probes and all(s["fields"]["hit"] for s in probes)
        assert engine.telemetry.metrics.gauge(
            "fleet.cache_hit_rate"
        ).value == 1.0

    def test_telemetry_off_pays_no_recording(self, tmp_path):
        engine, hub, _, _ = self._run(tmp_path, "plain")
        assert hub is None
        assert engine.telemetry is None


class TestObserverSnapshotInvariant:
    def test_sample_sink_excluded_from_pickle(self):
        import pickle

        from repro.obs import Observer

        observer = Observer(sample_interval=100)
        observer.sample_sink = lambda record: None  # unpicklable
        clone = pickle.loads(pickle.dumps(observer))
        assert clone.sample_sink is None

    def test_snapshot_bytes_identical_with_and_without_sink(self):
        import pickle

        from repro.obs import Observer

        plain = Observer(sample_interval=100)
        wired = Observer(sample_interval=100)
        wired.sample_sink = lambda record: None
        assert pickle.dumps(plain) == pickle.dumps(wired)
