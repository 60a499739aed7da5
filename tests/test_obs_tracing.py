"""Tests for repro.obs.tracing: span semantics and report/registry agreement.

Two properties matter: (a) with the registry disabled, ``trace`` hands back a
shared stateless no-op so instrumented code paths do no extra work, and (b)
:class:`~repro.service.batching.IngestReport` phase timings are sums of the
exact span measurements the registry histograms receive — the report and the
registry can never disagree.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    NOOP_SPAN,
    current_span,
    get_registry,
    set_registry,
    timed,
    trace,
)
from repro.core.memory import MemoryBudget
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.streams.edge import Action, StreamElement


@pytest.fixture
def registry():
    previous = get_registry()
    fresh = set_registry(MetricsRegistry())
    yield fresh
    set_registry(previous)


class TestNoopSpan:
    def test_disabled_trace_returns_shared_singleton(self, registry):
        registry.disable()
        span = trace("anything")
        assert span is NOOP_SPAN
        assert trace("something.else") is span  # one shared instance

    def test_noop_span_is_inert(self, registry):
        registry.disable()
        with trace("region") as span:
            assert span is NOOP_SPAN
            assert current_span() is None  # no stack entry
        assert span.seconds == 0.0
        assert span.name == "" and span.parent is None and span.path == ""
        assert registry.snapshot()["histograms"] == {}

    def test_noop_span_propagates_exceptions(self, registry):
        registry.disable()
        with pytest.raises(RuntimeError):
            with trace("region"):
                raise RuntimeError("boom")


class TestSpan:
    def test_enabled_trace_records_histogram(self, registry):
        with trace("query.block") as span:
            pass
        assert span.seconds >= 0.0
        histogram = registry.histogram("query.block")
        assert histogram.count == 1
        assert histogram.sum == span.seconds

    def test_nesting_parent_and_path(self, registry):
        with trace("outer") as outer:
            assert current_span() is outer
            with trace("inner") as inner:
                assert current_span() is inner
                assert inner.parent is outer
                assert inner.path == "outer/inner"
            assert current_span() is outer
        assert current_span() is None
        assert registry.histogram("outer").count == 1
        assert registry.histogram("inner").count == 1

    def test_span_records_even_when_body_raises(self, registry):
        with pytest.raises(ValueError):
            with trace("failing"):
                raise ValueError("boom")
        assert current_span() is None  # stack unwound
        assert registry.histogram("failing").count == 1

    def test_explicit_registry_overrides_default(self, registry):
        private = MetricsRegistry()
        with trace("region", private):
            pass
        assert private.histogram("region").count == 1
        assert "region" not in registry.snapshot()["histograms"]


class TestTimed:
    def test_timed_measures_when_disabled(self, registry):
        registry.disable()
        with timed("phase") as span:
            sum(range(1000))
        assert span.seconds > 0.0  # measurement always happens...
        assert registry.snapshot()["histograms"] == {}  # ...publication does not

    def test_timed_publishes_when_enabled(self, registry):
        with timed("phase") as span:
            pass
        assert registry.histogram("phase").count == 1
        assert registry.histogram("phase").sum == span.seconds


class TestIngestReportParity:
    """Satellite: IngestReport timings come from the same spans as the registry."""

    def _stream(self, n=500):
        return [StreamElement(i % 10, 1000 + i, Action.INSERT) for i in range(n)]

    def _sketch(self):
        budget = MemoryBudget(baseline_registers=24, num_users=64)
        return ShardedVOS.from_budget(budget, num_shards=4, seed=7)

    def test_report_equals_registry_histograms_exactly(self, registry):
        report = ingest_stream(self._sketch(), self._stream(), batch_size=100)
        # Exact float equality: both sides sum the very same span.seconds.
        assert registry.histogram("ingest.assemble").sum == report.assemble_seconds
        assert registry.histogram("ingest.process").sum == report.process_seconds
        assert registry.histogram("ingest.run").sum == report.seconds
        assert registry.histogram("ingest.run").count == 1
        assert registry.counter("ingest.elements").value == report.elements
        assert registry.counter("ingest.batches").value == report.batches
        assert registry.gauge("ingest.elements_per_second").value == (
            report.elements_per_second
        )

    def test_report_still_timed_with_registry_disabled(self, registry):
        registry.disable()
        report = ingest_stream(self._sketch(), self._stream(), batch_size=100)
        assert report.elements == 500
        assert report.seconds > 0.0
        assert report.process_seconds > 0.0
        assert registry.snapshot()["histograms"] == {}
