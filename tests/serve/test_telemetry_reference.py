"""``TelemetryCollector.record_many`` against the loop it replaced.

The reference below is the collector's former batch path: one
``_record_locked`` call per observation, each updating the collector's
attributes in place.  ``record_many`` now folds a batch in one loop with
the scalar counters held in locals and written back once.  For the same
observations, split into the same batches, both must leave the same
state: both row totals by ``float.hex`` (added one observation at a
time, in input order), the per-structure hit counts and their insertion
order, latency samples, exact matches, ``max_abs_error`` and the
per-query records.  The collector counts its latency histogram from
the samples at snapshot time; the reference keeps the former
per-observation bucket loop, and the two histograms must be equal.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.telemetry import LATENCY_BUCKETS_US, RAW_LABEL, TelemetryCollector

# ---------------------------------------------------------------- reference


def reference_record_locked(
    self, pattern, structure, latency_us, predicted_rows, actual_rows, fallback=False
):
    error = abs(float(actual_rows) - float(predicted_rows))
    self._queries += 1
    self._hits[structure] = self._hits.get(structure, 0) + 1
    if fallback:
        self._fallbacks += 1
    if error == 0.0:
        self._exact += 1
    self._max_abs_error = max(self._max_abs_error, error)
    self._predicted_total += float(predicted_rows)
    self._actual_total += float(actual_rows)
    self._latencies_us.append(float(latency_us))
    for pos, bound in enumerate(LATENCY_BUCKETS_US):
        if latency_us <= bound:
            self.buckets[pos] += 1
            break
    if self.keep_records:
        self._records.append(
            {
                "pattern": pattern,
                "structure": structure,
                "predicted_rows": float(predicted_rows),
                "actual_rows": int(actual_rows),
                "fallback": bool(fallback),
            }
        )


class ReferenceCollector(TelemetryCollector):
    """A collector that also keeps the former per-observation bucket
    counts."""

    def reset(self):
        super().reset()
        self.buckets = [0] * len(LATENCY_BUCKETS_US)


def reference_record_many(collector, observations):
    with collector._lock:
        for observation in observations:
            reference_record_locked(collector, *observation)


# -------------------------------------------------------------- comparison


def exact(value):
    """A float by its bits (NaN included), anything else as it is."""
    return float.hex(value) if isinstance(value, float) else value


def state_of(collector: TelemetryCollector) -> dict:
    return {
        "queries": collector._queries,
        "fallbacks": collector._fallbacks,
        "exact": collector._exact,
        "hits": list(collector._hits.items()),
        "predicted_total": float.hex(collector._predicted_total),
        "actual_total": float.hex(collector._actual_total),
        "max_abs_error": float.hex(collector._max_abs_error),
        "latencies": [float.hex(x) for x in collector._latencies_us],
        "histogram": collector.snapshot()["latency_us"]["histogram"],
        "records": [
            [(key, exact(value)) for key, value in record.items()]
            for record in collector._records
        ],
        "keep_records": collector.keep_records,
    }


def assert_same_collector(collector, reference) -> None:
    assert state_of(collector) == state_of(reference)
    if isinstance(reference, ReferenceCollector):
        histogram = collector.snapshot()["latency_us"]["histogram"]
        assert [bucket["count"] for bucket in histogram] == reference.buckets
    assert json.dumps(collector.snapshot()) == json.dumps(reference.snapshot())


# ------------------------------------------------------------ observations

STRUCTURES = ["ps", "p", "I_s(ps)", "psc"]
PATTERNS = ["γ(p)σ()", "γ()σ(s)", "γ(ps)σ(c)"]

ROWS = st.one_of(
    st.floats(0.0, 1e17, allow_nan=False),
    st.sampled_from([0.1, 0.3, 1e16, 2.0**53, -0.0]),
    st.just(float("nan")),
)

LATENCIES = st.one_of(
    st.floats(0.0, 2e6, allow_nan=False),
    st.sampled_from(LATENCY_BUCKETS_US),
    st.integers(0, 10**7),
    st.sampled_from([float("inf"), float("nan"), -1.0]),
)


@st.composite
def observations(draw):
    actual = draw(st.one_of(st.integers(0, 1000), st.integers(0, 10**17)))
    # zero error about half of the time, as on a dense cube
    predicted = draw(st.one_of(st.just(float(actual)), ROWS))
    fallback = draw(st.booleans())
    structure = RAW_LABEL if fallback else draw(st.sampled_from(STRUCTURES))
    return (
        draw(st.sampled_from(PATTERNS)),
        structure,
        draw(LATENCIES),
        predicted,
        actual,
        fallback,
    )


@settings(max_examples=300, deadline=None)
@given(
    keep_records=st.booleans(),
    batches=st.lists(st.lists(observations(), max_size=12), max_size=6),
)
def test_record_many_equals_reference_loop(keep_records, batches):
    """Fallbacks, zero and nonzero errors, NaN and boundary latencies,
    totals whose rounding depends on the order of addition: the same
    batches leave the same collector, with records kept or not."""
    collector = TelemetryCollector(keep_records=keep_records)
    reference = ReferenceCollector(keep_records=keep_records)
    for batch in batches:
        collector.record_many(batch)
        reference_record_many(reference, batch)
        assert_same_collector(collector, reference)


class TestRecordManyCases:
    def test_row_totals_add_in_input_order(self):
        """1e16 + 1 rounds back to 1e16 in double precision, so adding
        one observation at a time gives 1e16, where an exactly rounded
        sum (``math.fsum``) would give 1e16 + 2."""
        batch = [
            ("q", "ps", 1.0, 1e16, 10**16, False),
            ("q", "ps", 1.0, 1.0, 1, False),
            ("q", "ps", 1.0, 1.0, 1, False),
        ]
        collector = TelemetryCollector()
        reference = ReferenceCollector()
        collector.record_many(batch)
        reference_record_many(reference, batch)
        assert collector._predicted_total == 1e16
        assert collector._actual_total == 1e16
        assert_same_collector(collector, reference)

    def test_hits_keep_first_seen_order(self):
        batch = [
            ("q", structure, 1.0, 1.0, 1, structure == RAW_LABEL)
            for structure in ("psc", RAW_LABEL, "p", "psc", "ps", RAW_LABEL)
        ]
        collector = TelemetryCollector()
        collector.record_many(batch)
        assert list(collector._hits) == ["psc", RAW_LABEL, "p", "ps"]
        assert collector._fallbacks == 2

    def test_record_is_a_one_item_batch(self):
        batch = [
            ("a", "ps", 12.5, 3.0, 3, False),
            ("b", RAW_LABEL, 4000.0, 7.5, 9, True),
            ("c", "p", 0.0, 0.1, 0, False),
        ]
        one_by_one = TelemetryCollector()
        for observation in batch:
            one_by_one.record(*observation)
        batched = TelemetryCollector()
        batched.record_many(batch)
        assert_same_collector(one_by_one, batched)

    def test_failed_observation_keeps_the_batch_before_it(self):
        """An observation whose rows are not numbers raises before it
        changes anything; the ones before it stay recorded, as they did
        with one locked call per observation."""
        batch = [
            ("q", "ps", 1.0, 2.0, 2, False),
            ("q", "p", 50.0, 1.0, 3, False),
            ("q", "p", 1.0, "many", 3, False),
            ("q", "ps", 1.0, 2.0, 2, False),
        ]
        collector = TelemetryCollector()
        reference = ReferenceCollector()
        with pytest.raises(ValueError):
            collector.record_many(batch)
        with pytest.raises(ValueError):
            reference_record_many(reference, batch)
        assert collector.queries == 2
        assert_same_collector(collector, reference)

    def test_empty_batch_records_nothing(self):
        collector = TelemetryCollector()
        collector.record_many([])
        assert_same_collector(collector, TelemetryCollector())
