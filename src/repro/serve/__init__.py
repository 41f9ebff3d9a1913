"""repro.serve — online query serving over a materialized selection.

The serving subsystem closes the loop the paper leaves open: the advisor
picks views and indexes from *assumed* workload frequencies; this package
serves concrete slice queries from that selection, measures the workload
actually arriving, and re-runs the advisor when the two drift apart.

The high-throughput layer on top: :meth:`QueryServer.serve_batch`
answers query batches in vectorized per-plan passes, a
:class:`ResultCache` memoizes repeated queries (generation-tagged, so
hot swaps and maintenance deltas can never serve stale rows), and the
:class:`ServingFrontend` puts one bounded admission queue in front of
one dispatcher thread, which takes batches in submission order.

The fault-tolerance layer on top of *that*: a :class:`ReplicaFleet`
routes queries over N supervised replicas with deadlines, jittered
retry/failover, and health probes that run through each replica's
executor (never its result cache or serving telemetry); per-structure :class:`CircuitBreaker`\\ s
short-circuit repeatedly-failing structures onto the (slower but always
correct) raw-cube path; a crashed front-end dispatcher restarts and fails
its in-flight queries with typed errors instead of hanging; and
``python -m repro.serve.chaos`` injects all four fault classes into live
runs, asserting zero wrong answers and exact telemetry accounting.

The fleet also accepts *divergent* per-replica selections plus a
:class:`repro.distributed.RoutingTable`, switching dispatch from
round-robin to cost-routed (each query to its predicted-cheapest
replica, failover down the ranking) — see :mod:`repro.distributed`.
"""

from repro.serve.adaptive import (
    READVISE_MARGIN,
    AdaptiveReselector,
    ReadviseOutcome,
    observed_cost,
)
from repro.serve.batch import DEFAULT_BATCH_SIZE
from repro.serve.cache import CachedResult, ResultCache, result_key
from repro.serve.drift import DRIFT_MIN_QUERIES, DRIFT_THRESHOLD, DriftMonitor
from repro.serve.fleet import (
    DEFAULT_QUERY_DEADLINE,
    DEFAULT_STRIKE_LIMIT,
    HealthChecker,
    Replica,
    ReplicaFleet,
)
from repro.serve.frontend import (
    DEFAULT_MAX_WORKER_RESTARTS,
    DEFAULT_QUEUE_DEPTH,
    AdmissionQueueFull,
    ServingFrontend,
)
from repro.serve.recorder import WorkloadRecorder
from repro.serve.resilience import (
    BREAKER_COOLDOWN_SECONDS,
    BREAKER_FAILURE_THRESHOLD,
    CircuitBreaker,
    FrontendClosed,
    NoHealthyReplica,
    QueryTimeout,
    RetriesExhausted,
    RetryPolicy,
    ServingError,
    WorkerCrashed,
)
from repro.serve.server import (
    QueryServer,
    ReplayReport,
    ServeOutcome,
    ServingState,
)
from repro.serve.structures import parse_structure, resolve_selection
from repro.serve.telemetry import (
    FLEET_COUNTER_FIELDS,
    RAW_LABEL,
    RESILIENCE_COUNTER_FIELDS,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryCollector,
    empty_fleet_stats,
    empty_resilience_stats,
    validate_telemetry,
)

__all__ = [
    "AdaptiveReselector",
    "AdmissionQueueFull",
    "BREAKER_COOLDOWN_SECONDS",
    "BREAKER_FAILURE_THRESHOLD",
    "CachedResult",
    "CircuitBreaker",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_WORKER_RESTARTS",
    "DEFAULT_QUERY_DEADLINE",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_STRIKE_LIMIT",
    "FLEET_COUNTER_FIELDS",
    "FrontendClosed",
    "HealthChecker",
    "NoHealthyReplica",
    "QueryTimeout",
    "Replica",
    "ReplicaFleet",
    "RESILIENCE_COUNTER_FIELDS",
    "RetriesExhausted",
    "RetryPolicy",
    "ServingError",
    "WorkerCrashed",
    "DriftMonitor",
    "DRIFT_MIN_QUERIES",
    "DRIFT_THRESHOLD",
    "QueryServer",
    "RAW_LABEL",
    "READVISE_MARGIN",
    "ReadviseOutcome",
    "ReplayReport",
    "ResultCache",
    "ServeOutcome",
    "ServingFrontend",
    "ServingState",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryCollector",
    "WorkloadRecorder",
    "empty_fleet_stats",
    "empty_resilience_stats",
    "observed_cost",
    "parse_structure",
    "resolve_selection",
    "result_key",
    "validate_telemetry",
]
