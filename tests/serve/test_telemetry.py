"""Telemetry collector aggregation and snapshot validation."""

import threading
import tracemalloc

import pytest

from repro.serve import (
    RAW_LABEL,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryCollector,
    validate_telemetry,
)
from repro.serve.telemetry import LATENCY_BUCKETS_US, _percentile


class TestPercentile:
    def test_empty(self):
        assert _percentile([], 0.5) == 0.0

    def test_single(self):
        assert _percentile([7.0], 0.99) == 7.0

    def test_median_and_tail(self):
        samples = [float(v) for v in range(1, 102)]  # 1..101, median 51
        assert _percentile(samples, 0.50) == 51.0
        assert _percentile(samples, 0.99) == 100.0
        assert _percentile(samples, 1.0) == 101.0


class TestCollector:
    def test_counts_and_hits(self):
        t = TelemetryCollector()
        t.record("q1", "ps", 10.0, 5.0, 5)
        t.record("q2", "ps", 20.0, 3.0, 4)
        t.record("q3", RAW_LABEL, 30.0, 100.0, 100, fallback=True)
        snap = t.snapshot()
        assert snap["queries"] == 3
        assert snap["fallbacks"] == 1
        assert snap["hits"] == {"ps": 2, RAW_LABEL: 1}
        assert snap["cost"]["exact_matches"] == 2
        assert snap["cost"]["max_abs_error"] == 1.0
        validate_telemetry(snap)

    def test_histogram_sums_to_queries(self):
        t = TelemetryCollector()
        for latency in (5.0, 50.0, 5_000.0, 5_000_000.0):
            t.record("q", "v", latency, 1.0, 1)
        snap = t.snapshot()
        histogram = snap["latency_us"]["histogram"]
        assert len(histogram) == len(LATENCY_BUCKETS_US)
        assert sum(b["count"] for b in histogram) == 4
        assert histogram[-1]["count"] == 1  # the 5-second outlier

    def test_swap_counter(self):
        t = TelemetryCollector()
        t.note_swap()
        t.note_swap()
        assert t.snapshot()["swaps"] == 2

    def test_records_optional(self):
        t = TelemetryCollector(keep_records=False)
        t.record("q", "v", 1.0, 1.0, 1)
        snap = t.snapshot()
        assert "records" not in snap
        validate_telemetry(snap)

    def test_meta_attached(self):
        t = TelemetryCollector()
        snap = t.snapshot(meta={"selection": ["psc"]})
        assert snap["meta"]["selection"] == ["psc"]

    def test_thread_safety(self):
        t = TelemetryCollector()

        def hammer():
            for _ in range(500):
                t.record("q", "v", 1.0, 2.0, 2)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = t.snapshot()
        assert snap["queries"] == 2000
        assert snap["hits"]["v"] == 2000
        validate_telemetry(snap)


class TestLatencyStorage:
    def test_samples_retain_eight_bytes_each(self):
        collector = TelemetryCollector(keep_records=False)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i in range(100_000):
                collector.record("q", "ps", i * 0.5, 1.0, 1)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained < 1.5 * 2**20
        assert collector.latencies()[-2:] == [49_999.0, 49_999.5]
        assert collector.percentile(0.5) == 25_000.0


class TestValidate:
    def _valid(self):
        t = TelemetryCollector()
        t.record("q", "v", 1.0, 1.0, 1)
        return t.snapshot()

    def test_accepts_valid(self):
        doc = self._valid()
        assert validate_telemetry(doc) is doc

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_telemetry([])

    def test_rejects_wrong_version(self):
        doc = self._valid()
        doc["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_telemetry(doc)

    def test_rejects_hit_mismatch(self):
        doc = self._valid()
        doc["hits"]["v"] = 5
        with pytest.raises(ValueError, match="hit counts"):
            validate_telemetry(doc)

    def test_rejects_fallback_raw_disagreement(self):
        doc = self._valid()
        doc["fallbacks"] = 1
        with pytest.raises(ValueError, match="raw hits"):
            validate_telemetry(doc)

    def test_rejects_bad_histogram(self):
        doc = self._valid()
        doc["latency_us"]["histogram"] = doc["latency_us"]["histogram"][:-1]
        with pytest.raises(ValueError, match="histogram"):
            validate_telemetry(doc)

    def test_rejects_record_count_mismatch(self):
        doc = self._valid()
        doc["records"] = []
        with pytest.raises(ValueError, match="records"):
            validate_telemetry(doc)

    @pytest.mark.parametrize("field", ["pattern", "structure"])
    @pytest.mark.parametrize("value", [None, 7, ["γ(p)σ()"], "missing"])
    def test_rejects_non_string_record_labels(self, field, value):
        doc = self._valid()
        if value == "missing":
            del doc["records"][0][field]
        else:
            doc["records"][0][field] = value
        message = rf"records\[0\]\.{field} must be a string"
        with pytest.raises(ValueError, match=message):
            validate_telemetry(doc)

    def test_query_pattern_is_recorded_as_its_label(self):
        """``record_many`` takes a query where the server passes one and
        keeps its label, so the document stays valid JSON of strings."""
        from repro.core.query import SliceQuery

        t = TelemetryCollector()
        query = SliceQuery(groupby=["c"], selection=["p", "s"])
        t.record_many([(query, "psc", 1.0, 4.0, 4, False)])
        doc = validate_telemetry(t.snapshot())
        assert doc["records"][0]["pattern"] == "γ(c)σ(ps)"

    def test_survives_json_round_trip(self):
        import json

        doc = json.loads(json.dumps(self._valid()))
        validate_telemetry(doc)


class TestResilienceCounters:
    """Schema v3: the resilience block records, merges, and validates."""

    def test_counters_in_snapshot(self):
        from repro.serve import RESILIENCE_COUNTER_FIELDS

        t = TelemetryCollector()
        t.record("q", "v", 1.0, 1.0, 1)
        t.note_executor_error("ps")
        t.note_executor_error("ps")
        t.note_raw_rescue()
        t.note_raw_rescue()
        t.note_breaker_trip()
        t.note_worker_crash()
        t.note_worker_restart()
        t.note_retry()
        t.note_deadline_timeout()
        t.note_readvise_failure()
        doc = validate_telemetry(t.snapshot())
        resilience = doc["resilience"]
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert resilience["executor_errors"] == {"ps": 2}
        assert resilience["raw_rescues"] == 2
        assert resilience["breaker_trips"] == 1
        assert resilience["worker_crashes"] == 1
        assert resilience["worker_restarts"] == 1
        assert resilience["retries"] == 1
        assert resilience["deadline_timeouts"] == 1
        assert resilience["readvise_failures"] == 1
        assert set(RESILIENCE_COUNTER_FIELDS) <= set(resilience)

    def test_counters_merge_additively(self):
        a, b = TelemetryCollector(), TelemetryCollector()
        for t in (a, b):
            t.record("q", "v", 1.0, 1.0, 1)
            t.note_executor_error("ps")
            t.note_raw_rescue()
            t.note_retry()
        merged = TelemetryCollector.merge([a, b])
        resilience = merged.resilience_stats()
        assert resilience["executor_errors"] == {"ps": 2}
        assert resilience["raw_rescues"] == 2
        assert resilience["retries"] == 2

    def test_rejects_rescues_exceeding_errors(self):
        t = TelemetryCollector()
        t.record("q", "v", 1.0, 1.0, 1)
        doc = t.snapshot()
        doc["resilience"]["raw_rescues"] = 5
        with pytest.raises(ValueError, match="raw_rescues"):
            validate_telemetry(doc)

    def test_rejects_negative_counter(self):
        t = TelemetryCollector()
        t.record("q", "v", 1.0, 1.0, 1)
        doc = t.snapshot()
        doc["resilience"]["retries"] = -1
        with pytest.raises(ValueError):
            validate_telemetry(doc)
