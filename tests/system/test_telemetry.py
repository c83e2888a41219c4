"""Tests for the process-local observability layer.

The contract under test: snapshots merge associatively (worker metrics can
fold into the parent in any grouping), the off-by-default path records
nothing and allocates nothing per call, spans nest into a trace tree, and
enabling telemetry never changes estimation output bits.
"""

from __future__ import annotations

import io
import json
import logging
import pickle

import numpy as np
import pytest

from repro.core.profiler import DegradationProfiler
from repro.detection.zoo import default_suite, yolo_v4_like
from repro.query import Aggregate, AggregateQuery, QueryProcessor
from repro.system import telemetry
from repro.system.telemetry import (
    HistogramStat,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    merge_snapshots,
)
from repro.video import ua_detrac


@pytest.fixture
def collecting():
    """A fresh process-global collecting registry, restored afterwards."""
    registry = telemetry.enable()
    yield registry
    telemetry.disable()


def make_snapshot(tag: str, value: float) -> MetricsSnapshot:
    registry = MetricsRegistry()
    registry.count("shared", value)
    registry.count(f"only.{tag}", 1)
    registry.gauge("gauge", value)
    registry.observe("hist", value)
    registry.observe("hist", value * 2)
    with registry.span(f"span.{tag}"):
        pass
    return registry.snapshot()


class TestSnapshotMerge:
    def test_counters_sum_and_histograms_fold(self):
        a, b = make_snapshot("a", 1.0), make_snapshot("b", 5.0)
        merged = a.merged(b)
        assert merged.counters["shared"] == 6.0
        assert merged.counters["only.a"] == 1.0
        assert merged.counters["only.b"] == 1.0
        assert merged.histograms["hist"].count == 4
        assert merged.histograms["hist"].minimum == 1.0
        assert merged.histograms["hist"].maximum == 10.0

    def test_merge_is_associative(self):
        a, b, c = (make_snapshot(t, v) for t, v in (("a", 1), ("b", 3), ("c", 7)))
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left.counters == right.counters
        assert left.gauges == right.gauges
        assert left.histograms == right.histograms
        assert left.spans == right.spans

    def test_gauges_last_write_wins_in_merge_order(self):
        merged = make_snapshot("a", 1.0).merged(make_snapshot("b", 9.0))
        assert merged.gauges["gauge"] == 9.0

    def test_merge_snapshots_skips_none(self):
        merged = merge_snapshots(None, make_snapshot("a", 2.0), None)
        assert merged.counters["shared"] == 2.0
        assert merge_snapshots().counters == {}

    def test_snapshot_pickles_across_pool_boundary(self):
        snapshot = make_snapshot("w", 4.0)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot

    def test_registry_merge_snapshot_folds_like_ledger_counts(self):
        parent = MetricsRegistry()
        parent.count("shared", 1.0)
        parent.merge_snapshot(make_snapshot("w", 2.0))
        parent.merge_snapshot(None)  # no-op, like an empty worker
        snapshot = parent.snapshot()
        assert snapshot.counters["shared"] == 3.0
        assert snapshot.histograms["hist"].count == 2

    def test_to_dict_is_json_ready(self):
        payload = make_snapshot("a", 1.5).to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["counters"]["shared"] == 1.5


class TestHistogramStat:
    def test_empty_mean_is_nan(self):
        assert np.isnan(HistogramStat().mean)
        assert HistogramStat().to_dict()["min"] is None

    def test_merged_tracks_extremes(self):
        low = HistogramStat(count=1, total=1.0, minimum=1.0, maximum=1.0)
        high = HistogramStat(count=1, total=9.0, minimum=9.0, maximum=9.0)
        merged = low.merged(high)
        assert merged.count == 2
        assert merged.mean == 5.0
        assert (merged.minimum, merged.maximum) == (1.0, 9.0)


class TestSpans:
    def test_nesting_builds_a_trace_tree(self):
        registry = MetricsRegistry()
        with registry.span("outer", layer="profiler"):
            with registry.span("inner.a"):
                pass
            with registry.span("inner.b"):
                pass
        snapshot = registry.snapshot()
        assert [record.name for record in snapshot.spans] == ["outer"]
        outer = snapshot.spans[0]
        assert [child.name for child in outer.children] == ["inner.a", "inner.b"]
        assert dict(outer.attributes) == {"layer": "profiler"}
        assert outer.duration >= max(c.duration for c in outer.children)

    def test_span_durations_feed_histograms(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        assert registry.snapshot().histograms["span.work"].count == 1

    def test_iter_spans_walks_depth_first(self):
        registry = MetricsRegistry()
        with registry.span("a"):
            with registry.span("b"):
                pass
        with registry.span("c"):
            pass
        names = [r.name for r in telemetry.iter_spans(registry.snapshot())]
        assert names == ["a", "b", "c"]

    def test_out_of_order_exit_does_not_crash(self):
        registry = MetricsRegistry()
        outer = registry.span("outer")
        inner = registry.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # generator abandoned mid-span
        inner.__exit__(None, None, None)
        assert {r.name for r in registry.snapshot().spans} == {"outer", "inner"}


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        registry.count("a")
        registry.gauge("b", 1.0)
        registry.observe("c", 2.0)
        with registry.span("d"):
            with registry.timer("e"):
                pass
        assert registry.snapshot() is None

    def test_span_reuses_one_shared_null_object(self):
        registry = NullRegistry()
        assert registry.span("a") is registry.span("b", k=1)
        assert registry.timer("t") is registry.span("a")

    def test_module_level_delegation_is_off_by_default(self):
        assert not telemetry.enabled()
        telemetry.count("never.recorded")
        with telemetry.span("never.recorded"):
            pass
        assert telemetry.registry().snapshot() is None


class TestGlobalRegistry:
    def test_enable_collects_and_disable_restores_noop(self, collecting):
        telemetry.count("cache.hit", 3)
        with telemetry.span("profiler.sweep", resolution=304):
            telemetry.observe("lat", 0.5)
        snapshot = collecting.snapshot()
        assert snapshot.counters["cache.hit"] == 3.0
        assert snapshot.spans[0].name == "profiler.sweep"
        telemetry.disable()
        assert not telemetry.enabled()
        assert isinstance(telemetry.registry(), NullRegistry)

    def test_install_swaps_and_returns_previous(self, collecting):
        private = MetricsRegistry()
        previous = telemetry.install(private)
        assert previous is collecting
        telemetry.count("unit.metric")
        telemetry.install(previous)
        assert private.snapshot().counters == {"unit.metric": 1.0}
        assert "unit.metric" not in collecting.snapshot().counters

    def test_reset_drops_state(self, collecting):
        telemetry.count("a")
        collecting.reset()
        assert collecting.snapshot().counters == {}


class TestStructuredLogging:
    def test_get_logger_namespaces_under_repro(self):
        assert telemetry.get_logger("system.executor").name == (
            "repro.system.executor"
        )
        assert telemetry.get_logger("repro.core").name == "repro.core"

    def test_json_formatter_emits_parseable_lines(self):
        stream = io.StringIO()
        telemetry.setup_logging(level="info", fmt="json", stream=stream)
        try:
            telemetry.log_event(
                telemetry.get_logger("test.json"),
                logging.INFO,
                "cache.corrupt",
                path="/tmp/x.npz",
                bytes=12,
            )
            record = json.loads(stream.getvalue().strip())
            assert record["event"] == "cache.corrupt"
            assert record["path"] == "/tmp/x.npz"
            assert record["bytes"] == 12
            assert record["logger"] == "repro.test.json"
        finally:
            telemetry.setup_logging(level="warning", fmt="human")

    def test_human_formatter_renders_fields(self):
        formatter = telemetry.HumanFormatter()
        record = logging.LogRecord(
            "repro.x", logging.WARNING, __file__, 1, "executor.fallback",
            None, None,
        )
        record.fields = {"reason": "PicklingError"}
        assert "executor.fallback reason=PicklingError" in formatter.format(record)

    def test_setup_logging_is_idempotent(self):
        root = telemetry.setup_logging(level="warning", fmt="human")
        before = len(root.handlers)
        telemetry.setup_logging(level="warning", fmt="human")
        assert len(root.handlers) == before

    def test_setup_logging_rejects_unknown_settings(self):
        with pytest.raises(ValueError):
            telemetry.setup_logging(level="loud")
        with pytest.raises(ValueError):
            telemetry.setup_logging(fmt="xml")

    def test_log_event_skips_disabled_levels(self):
        stream = io.StringIO()
        telemetry.setup_logging(level="error", fmt="json", stream=stream)
        try:
            telemetry.log_event(
                telemetry.get_logger("test.quiet"), logging.DEBUG, "noise"
            )
            assert stream.getvalue() == ""
        finally:
            telemetry.setup_logging(level="warning", fmt="human")


class TestDeterminism:
    """Telemetry is written, never read: outputs stay bit-identical."""

    def test_sweep_outputs_identical_with_telemetry_on_and_off(self):
        corpus = ua_detrac(frame_count=600, seed=13)

        def run_profile():
            query = AggregateQuery(corpus, yolo_v4_like(), Aggregate.AVG)
            profiler = DegradationProfiler(
                QueryProcessor(default_suite()), trials=3
            )
            return profiler.profile_sampling_seeded(
                query, (0.05, 0.1, 0.2), root=29
            )

        baseline = run_profile()
        registry = telemetry.enable()
        try:
            instrumented = run_profile()
            snapshot = registry.snapshot()
        finally:
            telemetry.disable()
        assert np.array_equal(
            instrumented.error_bounds(), baseline.error_bounds()
        )
        assert [p.value for p in instrumented.points] == [
            p.value for p in baseline.points
        ]
        # The run was actually observed, not silently skipped.
        assert snapshot.counters["profiler.trials_priced"] > 0
        assert any(r.name == "profiler.sweep" for r in telemetry.iter_spans(snapshot))
