"""Mergeable telemetry: exact counter addition, percentiles over the
union of samples, and schema-version checks."""

import pytest

from repro.serve import TelemetryCollector, validate_telemetry
from repro.serve.telemetry import _percentile


def fill(collector, latencies, structure="ps", predicted=4.0, actual=4):
    for latency in latencies:
        collector.record(
            pattern="γ(p)σ(s)",
            structure=structure,
            latency_us=latency,
            predicted_rows=predicted,
            actual_rows=actual,
        )


class TestMerge:
    def test_counters_add_exactly(self):
        a, b = TelemetryCollector(), TelemetryCollector()
        fill(a, [10.0, 20.0], structure="ps")
        fill(b, [30.0], structure="psc")
        b.record("γ()σ()", "raw", 999.0, 5.0, 7, fallback=True)
        a.note_swap()
        merged = TelemetryCollector.merge([a, b])
        assert merged.queries == 4
        assert merged.fallbacks == 1
        assert merged.merged_from == 2
        snap = validate_telemetry(merged.snapshot())
        assert snap["hits"] == {"ps": 2, "psc": 1, "raw": 1}
        assert snap["swaps"] == 1
        assert snap["cost"]["predicted_rows"] == 4.0 + 4.0 + 4.0 + 5.0
        assert snap["cost"]["actual_rows"] == 4 + 4 + 4 + 7
        assert snap["cost"]["exact_matches"] == 3
        assert snap["cost"]["max_abs_error"] == 2.0
        assert len(snap["records"]) == 4

    def test_percentiles_exact_over_union(self):
        """Merged percentiles are nearest-rank over all samples — not an
        average of per-worker percentiles."""
        workers = [TelemetryCollector() for _ in range(3)]
        samples = [[1.0, 100.0], [2.0, 3.0, 200.0], [50.0]]
        for collector, latencies in zip(workers, samples):
            fill(collector, latencies)
        merged = TelemetryCollector.merge(workers)
        union = sorted(x for chunk in samples for x in chunk)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert merged.percentile(q) == _percentile(union, q)
        snap = merged.snapshot()
        assert snap["latency_us"]["p50"] == _percentile(union, 0.5)
        assert snap["latency_us"]["max"] == 200.0
        histogram = snap["latency_us"]["histogram"]
        assert sum(bucket["count"] for bucket in histogram) == 6

    def test_absorb_accumulates_merged_from(self):
        a, b, c = (TelemetryCollector() for _ in range(3))
        fill(b, [1.0])
        b.absorb(c)
        a.absorb(b)
        assert a.merged_from == 3
        assert a.queries == 1

    def test_merge_empty_iterable_is_valid(self):
        merged = TelemetryCollector.merge([])
        assert merged.merged_from == 1
        validate_telemetry(merged.snapshot())

    def test_record_mismatch_drops_records(self):
        """Absorbing a records-free collector cannot leave a partial
        record list behind."""
        keeper = TelemetryCollector(keep_records=True)
        dropper = TelemetryCollector(keep_records=False)
        fill(keeper, [1.0])
        fill(dropper, [2.0])
        keeper.absorb(dropper)
        assert keeper.queries == 2
        assert not keeper.keep_records
        snap = keeper.snapshot()
        assert "records" not in snap
        validate_telemetry(snap)


class TestFleetBlockMerge:
    """The v4 fleet block: per-replica routed-hit/misroute counters
    merge by exact addition."""

    def test_counters_add_exactly_across_three_replicas(self):
        collectors = [TelemetryCollector() for _ in range(3)]
        for collector in collectors:
            fill(collector, [1.0, 2.0])  # 2 queries each: 6 total
        collectors[0].note_routed_hit(0)
        collectors[0].note_routed_hit(0)
        collectors[0].note_routed_hit(1)
        collectors[1].note_misroute(1)
        collectors[1].note_routed_hit(2)
        collectors[2].note_misroute(1)
        merged = TelemetryCollector.merge(collectors)
        snap = validate_telemetry(merged.snapshot())
        assert snap["fleet"]["routed_hits"] == {"0": 2, "1": 1, "2": 1}
        assert snap["fleet"]["misroutes"] == {"1": 2}

    def test_counters_exceeding_queries_rejected(self):
        collector = TelemetryCollector()
        fill(collector, [1.0])
        collector.note_routed_hit(0)
        collector.note_misroute(1)  # 2 counters, 1 query
        with pytest.raises(ValueError, match="exceed"):
            validate_telemetry(collector.snapshot())

    def test_negative_counter_rejected(self):
        collector = TelemetryCollector()
        fill(collector, [1.0])
        document = collector.snapshot()
        document["fleet"]["routed_hits"] = {"0": -1}
        with pytest.raises(ValueError, match="fleet"):
            validate_telemetry(document)


class TestSchemaCompatibility:
    def _document(self, version):
        collector = TelemetryCollector()
        fill(collector, [5.0, 15.0])
        document = collector.snapshot()
        document["schema_version"] = version
        return document

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 5, "4", "x", None])
    def test_other_versions_rejected(self, version):
        """Documents of schema v1-v3, or of unknown versions, are
        rejected, never converted or coerced."""
        with pytest.raises(ValueError, match="schema_version must be 4, got"):
            validate_telemetry(self._document(version))

    def test_v2_passes_through_unchanged(self):
        collector = TelemetryCollector()
        fill(collector, [5.0])
        document = collector.snapshot()
        assert validate_telemetry(document) is document

    def test_unknown_version_rejected(self):
        document = self._document(99)
        with pytest.raises(ValueError, match="schema_version"):
            validate_telemetry(document)

    def test_disabled_cache_with_hits_rejected(self):
        collector = TelemetryCollector()
        fill(collector, [5.0])
        document = collector.snapshot()
        document["cache"]["hits"] = 3
        with pytest.raises(ValueError, match="disabled"):
            validate_telemetry(document)

    def test_merged_from_must_be_positive(self):
        collector = TelemetryCollector()
        document = collector.snapshot()
        document["merged_from"] = 0
        with pytest.raises(ValueError, match="merged_from"):
            validate_telemetry(document)
