"""Per-query serving telemetry: latency, rows scanned, routing hits.

Every served query contributes one observation: which structure answered
it (or ``raw`` on a fallback), how long it took, how many rows the
executor actually processed, and how many the linear cost model
predicted (``|C| / |E|``).  The collector aggregates those under a lock
— a fleet's client threads and its replicas' dispatchers record
concurrently — and snapshots to a stable JSON document the CI smoke validates.

Latency percentiles are exact (computed from the retained samples, not
interpolated from buckets); the histogram is log-spaced buckets for
eyeballing the distribution shape.

Collectors are **mergeable**: a replica fleet combines its own
collector with every replica's server collector through
:meth:`TelemetryCollector.merge` when reporting — counters add exactly,
histograms add bucket-wise, and percentiles are recomputed nearest-rank
over the union of the retained samples, so a merged report is
indistinguishable from one collector having seen every query.

A snapshot (schema v4, the only one :func:`validate_telemetry` accepts)
also holds the result cache's counters, ``merged_from`` (how many
collectors it combines), the ``resilience`` counters the chaos harness
reconciles exactly against the faults it injected, and the ``fleet``
block's per-replica routed hits and misroutes.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

TELEMETRY_SCHEMA_VERSION = 4

#: Scalar counters of the v3 ``resilience`` block (``executor_errors``
#: is the one non-scalar member: a per-structure error dict).
RESILIENCE_COUNTER_FIELDS = (
    "raw_rescues",
    "breaker_trips",
    "breaker_resets",
    "breaker_short_circuits",
    "worker_crashes",
    "worker_restarts",
    "readvise_failures",
    "retries",
    "deadline_timeouts",
)


def empty_resilience_stats() -> dict:
    """The all-zero ``resilience`` block (healthy run, no faults)."""
    block = {"executor_errors": {}}
    for field in RESILIENCE_COUNTER_FIELDS:
        block[field] = 0
    return block


#: Per-replica counter dicts of the v4 ``fleet`` block.  Keys inside
#: each dict are replica ids as strings (JSON object keys), values are
#: counts.
FLEET_COUNTER_FIELDS = ("routed_hits", "misroutes")


def empty_fleet_stats() -> dict:
    """The empty ``fleet`` block (no routed dispatch, or none yet)."""
    return {field: {} for field in FLEET_COUNTER_FIELDS}

#: Log-spaced latency histogram bucket upper bounds, in microseconds.
LATENCY_BUCKETS_US = (
    10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
    100_000.0, 300_000.0, 1_000_000.0, float("inf"),
)

#: Structure label recorded for fallback-to-raw-cube executions.
RAW_LABEL = "raw"


def _percentile(samples: Sequence[float], q: float) -> float:
    """Exact (nearest-rank) percentile of the samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _empty_cache_block() -> dict:
    from repro.serve.cache import empty_cache_stats

    return empty_cache_stats()


class TelemetryCollector:
    """Thread-safe aggregator of per-query serving observations."""

    def __init__(self, keep_records: bool = True):
        self._lock = threading.Lock()
        self.keep_records = keep_records
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self._hits: Dict[str, int] = {}
            self._fallbacks = 0
            self._queries = 0
            self._exact = 0
            self._predicted_total = 0.0
            self._actual_total = 0.0
            self._max_abs_error = 0.0
            # doubles, not float objects: 8 B a sample, and nothing the
            # cyclic collector walks
            self._latencies_us = array("d")
            self._buckets = [0] * len(LATENCY_BUCKETS_US)
            self._records: List[dict] = []
            self._swaps = 0
            self._merged_from = 1
            self._executor_errors: Dict[str, int] = {}
            self._resilience: Dict[str, int] = {
                field: 0 for field in RESILIENCE_COUNTER_FIELDS
            }
            self._fleet: Dict[str, Dict[str, int]] = empty_fleet_stats()

    # -------------------------------------------------------------- record

    def record(
        self,
        pattern: str,
        structure: str,
        latency_us: float,
        predicted_rows: float,
        actual_rows: int,
        fallback: bool = False,
    ) -> None:
        """One served query.  ``structure`` is the answering structure's
        label (:data:`RAW_LABEL` for a raw-cube fallback)."""
        self.record_many(
            ((pattern, structure, latency_us, predicted_rows, actual_rows, fallback),)
        )

    def record_many(self, observations: Iterable[tuple]) -> None:
        """Record a batch of ``(pattern, structure, latency_us,
        predicted_rows, actual_rows, fallback)`` tuples, in order, under
        one lock acquisition (the batched server's per-batch fast path).
        ``pattern`` is a query or its label; a kept record holds
        ``str(pattern)``, and nothing formats it when records are off.

        The scalar counters are kept in locals for the loop and written
        back once; the row totals still add one observation at a time.
        """
        with self._lock:
            hits = self._hits
            latencies = self._latencies_us
            buckets = self._buckets
            records = self._records if self.keep_records else None
            queries = self._queries
            fallbacks = self._fallbacks
            exact = self._exact
            max_abs_error = self._max_abs_error
            predicted_total = self._predicted_total
            actual_total = self._actual_total
            try:
                for (
                    pattern,
                    structure,
                    latency_us,
                    predicted_rows,
                    actual_rows,
                    fallback,
                ) in observations:
                    predicted = float(predicted_rows)
                    actual = float(actual_rows)
                    error = abs(actual - predicted)
                    queries += 1
                    hits[structure] = hits.get(structure, 0) + 1
                    if fallback:
                        fallbacks += 1
                    if error == 0.0:
                        exact += 1
                    elif error > max_abs_error:
                        max_abs_error = error
                    predicted_total += predicted
                    actual_total += actual
                    latencies.append(latency_us)
                    for pos, bound in enumerate(LATENCY_BUCKETS_US):
                        if latency_us <= bound:
                            buckets[pos] += 1
                            break
                    if records is not None:
                        records.append(
                            {
                                "pattern": str(pattern),
                                "structure": structure,
                                "predicted_rows": predicted,
                                "actual_rows": int(actual_rows),
                                "fallback": bool(fallback),
                            }
                        )
            finally:
                self._queries = queries
                self._fallbacks = fallbacks
                self._exact = exact
                self._max_abs_error = max_abs_error
                self._predicted_total = predicted_total
                self._actual_total = actual_total

    def note_swap(self) -> None:
        """Count a hot selection swap (shown in the snapshot header)."""
        with self._lock:
            self._swaps += 1

    # --------------------------------------------------------- resilience

    def _bump(self, field: str, amount: int = 1) -> None:
        with self._lock:
            self._resilience[field] += amount

    def note_executor_error(self, structure: str) -> None:
        """One executor error against a materialized structure (before
        the raw-cube rescue)."""
        with self._lock:
            self._executor_errors[structure] = (
                self._executor_errors.get(structure, 0) + 1
            )

    def note_raw_rescue(self) -> None:
        """A failed structure execution re-answered from the raw cube."""
        self._bump("raw_rescues")

    def note_breaker_trip(self) -> None:
        self._bump("breaker_trips")

    def note_breaker_reset(self) -> None:
        self._bump("breaker_resets")

    def note_breaker_short_circuit(self) -> None:
        """An execution skipped a tripped structure straight to raw."""
        self._bump("breaker_short_circuits")

    def note_worker_crash(self) -> None:
        self._bump("worker_crashes")

    def note_worker_restart(self) -> None:
        self._bump("worker_restarts")

    def note_readvise_failure(self) -> None:
        """A background re-advise (or its hot swap) crashed; the old
        generation kept serving."""
        self._bump("readvise_failures")

    def note_retry(self) -> None:
        self._bump("retries")

    def note_deadline_timeout(self) -> None:
        self._bump("deadline_timeouts")

    # -------------------------------------------------------------- fleet

    def _bump_fleet(self, field: str, replica_id) -> None:
        key = str(replica_id)
        with self._lock:
            counters = self._fleet[field]
            counters[key] = counters.get(key, 0) + 1

    def note_routed_hit(self, replica_id) -> None:
        """A query answered by the replica the routing table designated."""
        self._bump_fleet("routed_hits", replica_id)

    def note_misroute(self, replica_id) -> None:
        """A query answered correctly but *not* by its designated replica
        (failover, strike, or a busy head of the ranking)."""
        self._bump_fleet("misroutes", replica_id)

    def fleet_stats(self) -> dict:
        """A copy of the fleet block (per-replica routed-hit/misroute
        counters, replica ids as string keys)."""
        with self._lock:
            return {
                field: dict(sorted(self._fleet[field].items()))
                for field in FLEET_COUNTER_FIELDS
            }

    def resilience_stats(self) -> dict:
        """A copy of the resilience block (executor errors + counters)."""
        with self._lock:
            block = {"executor_errors": dict(sorted(self._executor_errors.items()))}
            block.update(self._resilience)
            return block

    def latencies(self) -> List[float]:
        """A copy of the retained latency samples (microseconds)."""
        with self._lock:
            return list(self._latencies_us)

    # --------------------------------------------------------------- merge

    def _state_copy(self) -> dict:
        """A consistent copy of the mutable aggregates (for merging)."""
        with self._lock:
            return {
                "hits": dict(self._hits),
                "fallbacks": self._fallbacks,
                "queries": self._queries,
                "exact": self._exact,
                "predicted_total": self._predicted_total,
                "actual_total": self._actual_total,
                "max_abs_error": self._max_abs_error,
                "latencies_us": array("d", self._latencies_us),
                "buckets": list(self._buckets),
                "records": list(self._records),
                "swaps": self._swaps,
                "merged_from": self._merged_from,
                "keep_records": self.keep_records,
                "executor_errors": dict(self._executor_errors),
                "resilience": dict(self._resilience),
                "fleet": {
                    field: dict(self._fleet[field])
                    for field in FLEET_COUNTER_FIELDS
                },
            }

    def absorb(self, other: "TelemetryCollector") -> None:
        """Fold another collector's observations into this one.

        Counters and row totals add exactly; histograms add bucket-wise;
        the retained latency samples concatenate, so percentile queries
        on the merged collector are exact nearest-rank over the union.
        Per-query records concatenate only when both sides retained them
        — otherwise the merged collector drops records (a partial record
        list would violate the one-record-per-query invariant).
        """
        state = other._state_copy()
        with self._lock:
            for structure, count in state["hits"].items():
                self._hits[structure] = self._hits.get(structure, 0) + count
            self._fallbacks += state["fallbacks"]
            self._queries += state["queries"]
            self._exact += state["exact"]
            self._predicted_total += state["predicted_total"]
            self._actual_total += state["actual_total"]
            self._max_abs_error = max(self._max_abs_error, state["max_abs_error"])
            self._latencies_us.extend(state["latencies_us"])
            for pos, count in enumerate(state["buckets"]):
                self._buckets[pos] += count
            self._swaps += state["swaps"]
            self._merged_from += state["merged_from"]
            for structure, count in state["executor_errors"].items():
                self._executor_errors[structure] = (
                    self._executor_errors.get(structure, 0) + count
                )
            for field, count in state["resilience"].items():
                self._resilience[field] += count
            for field in FLEET_COUNTER_FIELDS:
                counters = self._fleet[field]
                for replica_id, count in state["fleet"][field].items():
                    counters[replica_id] = counters.get(replica_id, 0) + count
            if self.keep_records and state["keep_records"]:
                self._records.extend(state["records"])
            else:
                self.keep_records = False
                self._records = []

    @classmethod
    def merge(
        cls, collectors: Iterable["TelemetryCollector"]
    ) -> "TelemetryCollector":
        """Combine collectors (a fleet's and its replicas') into one
        validated aggregate.

        The merged collector reports ``merged_from`` = the number of
        inputs; an empty iterable merges to a fresh (empty) collector.
        """
        collectors = list(collectors)
        merged = cls(keep_records=all(c.keep_records for c in collectors))
        merged._merged_from = 0
        for collector in collectors:
            merged.absorb(collector)
        if not collectors:
            merged._merged_from = 1
        return merged

    # ------------------------------------------------------------ snapshot

    @property
    def queries(self) -> int:
        with self._lock:
            return self._queries

    @property
    def fallbacks(self) -> int:
        with self._lock:
            return self._fallbacks

    @property
    def merged_from(self) -> int:
        with self._lock:
            return self._merged_from

    def records(self) -> List[dict]:
        """A copy of the retained per-query records."""
        with self._lock:
            return list(self._records)

    def percentile(self, q: float) -> float:
        """Exact nearest-rank latency percentile over everything recorded
        (including absorbed collectors)."""
        with self._lock:
            return _percentile(self._latencies_us, q)

    def snapshot(
        self, meta: Optional[dict] = None, cache: Optional[dict] = None
    ) -> dict:
        """The full telemetry document (see :func:`validate_telemetry`).

        ``cache`` attaches the server's result-cache counters; omitted,
        the document reports a disabled cache.
        """
        with self._lock:
            samples = list(self._latencies_us)
            doc = {
                "schema_version": TELEMETRY_SCHEMA_VERSION,
                "queries": self._queries,
                "fallbacks": self._fallbacks,
                "swaps": self._swaps,
                "merged_from": self._merged_from,
                "hits": dict(sorted(self._hits.items())),
                "cache": dict(cache) if cache is not None else _empty_cache_block(),
                "resilience": {
                    "executor_errors": dict(
                        sorted(self._executor_errors.items())
                    ),
                    **self._resilience,
                },
                "fleet": {
                    field: dict(sorted(self._fleet[field].items()))
                    for field in FLEET_COUNTER_FIELDS
                },
                "latency_us": {
                    "p50": _percentile(samples, 0.50),
                    "p99": _percentile(samples, 0.99),
                    "mean": (sum(samples) / len(samples)) if samples else 0.0,
                    "max": max(samples) if samples else 0.0,
                    "histogram": [
                        {"le": bound, "count": count}
                        for bound, count in zip(LATENCY_BUCKETS_US, self._buckets)
                    ],
                },
                "cost": {
                    "predicted_rows": self._predicted_total,
                    "actual_rows": self._actual_total,
                    "exact_matches": self._exact,
                    "max_abs_error": self._max_abs_error,
                },
            }
            if self.keep_records:
                doc["records"] = list(self._records)
        if meta is not None:
            doc["meta"] = dict(meta)
        return doc


def validate_telemetry(document: dict) -> dict:
    """Validate a telemetry snapshot; returns the validated document.

    Checks the schema version, required fields and types, histogram
    integrity (bucket counts sum to the query count), and the hit/
    fallback accounting.  Raises ``ValueError`` with a one-line message
    on the first violation — this is what the CI serving smoke runs
    against the uploaded artifact.  The document is returned unchanged.
    """
    if not isinstance(document, dict):
        raise ValueError("telemetry must be a JSON object")
    if document.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"telemetry schema_version must be {TELEMETRY_SCHEMA_VERSION}, "
            f"got {document.get('schema_version')!r}"
        )
    for field, kind in (
        ("queries", int),
        ("fallbacks", int),
        ("swaps", int),
        ("merged_from", int),
        ("hits", dict),
        ("cache", dict),
        ("resilience", dict),
        ("fleet", dict),
        ("latency_us", dict),
        ("cost", dict),
    ):
        if not isinstance(document.get(field), kind):
            raise ValueError(f"telemetry field {field!r} must be {kind.__name__}")
    queries = document["queries"]
    if queries < 0 or document["fallbacks"] < 0:
        raise ValueError("telemetry counts must be nonnegative")
    if document["fallbacks"] > queries:
        raise ValueError("telemetry fallbacks exceed the query count")
    if document["merged_from"] < 1:
        raise ValueError("telemetry merged_from must be >= 1")
    if sum(document["hits"].values()) != queries:
        raise ValueError("telemetry hit counts do not sum to the query count")
    if document["hits"].get(RAW_LABEL, 0) != document["fallbacks"]:
        raise ValueError("telemetry raw hits disagree with the fallback count")
    cache = document["cache"]
    for field in ("hits", "misses", "evictions", "rejected", "invalidations"):
        value = cache.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"cache.{field} must be a nonnegative integer")
    if not cache.get("enabled", False) and (cache["hits"] or cache["misses"]):
        raise ValueError("cache counters nonzero on a disabled cache")
    resilience = document["resilience"]
    errors = resilience.get("executor_errors")
    if not isinstance(errors, dict):
        raise ValueError("resilience.executor_errors must be a dict")
    for structure, count in errors.items():
        if not isinstance(count, int) or count < 0:
            raise ValueError(
                f"resilience.executor_errors[{structure!r}] must be a "
                "nonnegative integer"
            )
    for field in RESILIENCE_COUNTER_FIELDS:
        value = resilience.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(
                f"resilience.{field} must be a nonnegative integer"
            )
    if resilience["raw_rescues"] > sum(errors.values()):
        raise ValueError(
            "resilience.raw_rescues exceed the recorded executor errors"
        )
    fleet = document["fleet"]
    for field in FLEET_COUNTER_FIELDS:
        counters = fleet.get(field)
        if not isinstance(counters, dict):
            raise ValueError(f"fleet.{field} must be a dict")
        for replica_id, count in counters.items():
            if not isinstance(count, int) or count < 0:
                raise ValueError(
                    f"fleet.{field}[{replica_id!r}] must be a nonnegative "
                    "integer"
                )
    routed_total = sum(
        sum(fleet[field].values()) for field in FLEET_COUNTER_FIELDS
    )
    if routed_total > queries:
        raise ValueError(
            "fleet routed-hit/misroute counters exceed the query count"
        )
    latency = document["latency_us"]
    for field in ("p50", "p99", "mean", "max"):
        value = latency.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"latency_us.{field} must be a nonnegative number")
    histogram = latency.get("histogram")
    if not isinstance(histogram, list) or len(histogram) != len(LATENCY_BUCKETS_US):
        raise ValueError(
            f"latency_us.histogram must have {len(LATENCY_BUCKETS_US)} buckets"
        )
    if sum(bucket.get("count", 0) for bucket in histogram) != queries:
        raise ValueError("latency histogram counts do not sum to the query count")
    cost = document["cost"]
    for field in ("predicted_rows", "actual_rows", "exact_matches", "max_abs_error"):
        value = cost.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"cost.{field} must be a nonnegative number")
    if cost["exact_matches"] > queries:
        raise ValueError("cost.exact_matches exceeds the query count")
    records = document.get("records")
    if records is not None:
        if not isinstance(records, list) or len(records) != queries:
            raise ValueError("records must list one entry per served query")
        for pos, record in enumerate(records):
            if not isinstance(record, dict) or "actual_rows" not in record:
                raise ValueError(f"records[{pos}] is not a per-query record")
            for field in ("pattern", "structure"):
                if not isinstance(record.get(field), str):
                    raise ValueError(f"records[{pos}].{field} must be a string")
    return document
