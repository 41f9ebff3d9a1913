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

    def test_upgrades_v1_and_v2(self):
        from repro.serve import upgrade_telemetry

        t = TelemetryCollector()
        t.record("q", "v", 1.0, 1.0, 1)
        doc = t.snapshot()
        for old_version in (1, 2):
            legacy = {
                k: v
                for k, v in doc.items()
                if k not in ("resilience", "cache", "merged_from")
            }
            legacy["schema_version"] = old_version
            upgraded = upgrade_telemetry(legacy)
            validated = validate_telemetry(upgraded)
            assert validated["schema_version"] == TELEMETRY_SCHEMA_VERSION
            assert validated["resilience"]["raw_rescues"] == 0
            assert validated["resilience"]["executor_errors"] == {}


class TestUpgradeChain:
    """Every legacy version upgrades to v4 and the chain composes."""

    #: What each historical schema version did not yet record.
    MISSING = {
        1: ("cache", "merged_from", "resilience", "fleet"),
        2: ("resilience", "fleet"),
        3: ("fleet",),
    }

    def _legacy(self, version):
        from repro.serve import upgrade_telemetry  # noqa: F401  (import check)

        t = TelemetryCollector()
        t.record("q", "ps", 10.0, 5.0, 5)
        t.record("q2", RAW_LABEL, 30.0, 100.0, 100, fallback=True)
        doc = t.snapshot()
        legacy = {
            k: v for k, v in doc.items() if k not in self.MISSING[version]
        }
        legacy["schema_version"] = version
        return legacy

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_each_version_upgrades_and_validates(self, version):
        from repro.serve import upgrade_telemetry

        upgraded = upgrade_telemetry(self._legacy(version))
        validated = validate_telemetry(upgraded)
        assert validated["schema_version"] == TELEMETRY_SCHEMA_VERSION
        # every historically-missing block is filled with its empty default
        assert validated["cache"]["enabled"] is False
        assert validated["merged_from"] == 1
        assert validated["resilience"]["raw_rescues"] == 0
        from repro.serve.telemetry import empty_fleet_stats

        assert validated["fleet"] == empty_fleet_stats()
        # and the recorded counters survive the upgrade untouched
        assert validated["queries"] == 2
        assert validated["fallbacks"] == 1

    def test_composed_chain_v1_through_v4(self):
        """v1 → v4 then re-upgrading the result is the identity: the
        whole chain composes into a single fixed point."""
        from repro.serve import upgrade_telemetry

        hop1 = upgrade_telemetry(self._legacy(1))
        hop2 = upgrade_telemetry(hop1)
        hop3 = upgrade_telemetry(hop2)
        assert hop2 is hop1  # v4 documents pass through unchanged
        assert hop3 is hop1
        validated = validate_telemetry(hop3)
        assert validated["schema_version"] == TELEMETRY_SCHEMA_VERSION

    def test_upgrade_does_not_mutate_the_legacy_document(self):
        from repro.serve import upgrade_telemetry

        legacy = self._legacy(2)
        upgrade_telemetry(legacy)
        assert legacy["schema_version"] == 2
        assert "resilience" not in legacy

    @pytest.mark.parametrize("version", [0, 5, "4", "x", None])
    def test_unknown_versions_are_rejected(self, version):
        """Unknown versions pass through the upgrader unchanged and are
        rejected by validation — never silently coerced."""
        from repro.serve import upgrade_telemetry

        legacy = self._legacy(1)
        legacy["schema_version"] = version
        passed = upgrade_telemetry(legacy)
        assert passed is legacy
        with pytest.raises(ValueError, match="schema_version must be 4"):
            validate_telemetry(passed)

    def test_non_dict_documents_pass_through(self):
        from repro.serve import upgrade_telemetry

        assert upgrade_telemetry("not a dict") == "not a dict"  # type: ignore[arg-type]
