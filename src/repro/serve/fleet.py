"""Supervised replica fleet: health-checked routing with retry/failover.

A :class:`ReplicaFleet` runs N independent ``QueryServer`` +
``ServingFrontend`` pairs — each with its own catalog, result cache,
per-structure circuit breaker and dispatcher thread — behind a router.
The router bounds every attempt with a per-query deadline, and on a
timeout or typed serving failure retries with jittered exponential
backoff on a replica it has not tried yet.  A query fails only with a typed
:class:`~repro.serve.resilience.ServingError` (retries exhausted, no
healthy replica) — never by hanging, and never with a wrong answer.

Dispatch has two modes.  Without a ``router`` the fleet round-robins
over the healthy replicas — the right default when every replica holds
the same selection.  With a :class:`repro.distributed.RoutingTable`
(divergent per-replica selections from
:func:`repro.distributed.plan_divergent`) each query goes to the
replica predicted cheapest for it under the paper's ``|C| / |E|``
model; when that replica is struck out or already tried, the next
cheapest takes over, so failover preserves the cost ordering instead
of reverting to blind rotation.  Routed mode also keeps score:
telemetry counts a *routed hit* when the serving replica was the
predicted-cheapest one and a *misroute* when failover or health caused
a detour (the answer is still correct — any replica's raw cube answers
anything; only the predicted latency is forfeited).

Health has two inputs: **passive strikes** (submit failures, deadline
timeouts observed by the router) and **active probes** (a
:class:`HealthChecker` that runs a probe query through each replica's
executor, bounds its latency, and checks the dispatcher).  Either can
mark a replica unhealthy; only a passing probe brings it back.
Fleet-level *unavailability* — wall-clock spans during which zero
replicas were healthy — is accounted exactly and reported in
:meth:`ReplicaFleet.stats`.
"""

from __future__ import annotations

import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.costmodel import LinearCostModel
from repro.core.query import SliceQuery
from repro.cube.query_log import LogEntry
from repro.serve.batch import DEFAULT_BATCH_SIZE, execute_unique
from repro.serve.cache import ResultCache, result_key
from repro.serve.frontend import ServingFrontend
from repro.serve.resilience import (
    BREAKER_COOLDOWN_SECONDS,
    CircuitBreaker,
    NoHealthyReplica,
    QueryTimeout,
    RetriesExhausted,
    RetryPolicy,
    ServingError,
)
from repro.serve.server import QueryServer, ServeOutcome
from repro.serve.telemetry import TelemetryCollector

#: Per-attempt answer deadline (seconds) before the router re-routes.
DEFAULT_QUERY_DEADLINE = 2.0

#: Probe latency above this (microseconds) fails a health check.
DEFAULT_PROBE_LATENCY_US = 50_000.0

#: Consecutive strikes (failed probes or routing failures) that mark a
#: replica unhealthy.
DEFAULT_STRIKE_LIMIT = 3

#: Bounded per-replica probe history retained by the health checker.
PROBE_HISTORY_LIMIT = 256

#: The health probe's query: the grand total (no group-by, no selection).
PROBE_ENTRY = LogEntry(query=SliceQuery((), ()), values=())

#: Client threads :meth:`ReplicaFleet.serve_many` serves from.
CLIENT_THREADS = 4


def _positive_seconds(name: str, value: float) -> float:
    """``value`` as float seconds; a one-line ``ValueError`` unless it is
    finite and > 0 (a NaN deadline times out every attempt, an infinite
    one overflows the wait, and a zero interval spins the prober)."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0 seconds, got {value}")
    return value


class Replica:
    """One fleet member: a server, its front-end, and its health state."""

    def __init__(
        self,
        replica_id: int,
        server: QueryServer,
        frontend: ServingFrontend,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.replica_id = replica_id
        self.server = server
        self.frontend = frontend
        self.clock = clock
        #: fleet availability hook, fired (outside the lock) when a kill
        #: takes the replica out of rotation
        self.on_transition: Optional[Callable[[], None]] = None
        self._lock = threading.Lock()
        self.healthy = True
        self.dead = False
        self.strikes = 0
        self.transitions = 0
        self.last_reason = ""
        self._down_since: Optional[float] = None
        self._downtime = 0.0

    # ------------------------------------------------------------- health

    def _mark_unhealthy_locked(self, reason: str) -> bool:
        self.last_reason = reason
        if not self.healthy:
            return False
        self.healthy = False
        self._down_since = self.clock()
        self.transitions += 1
        return True

    def record_strike(self, reason: str, limit: int) -> bool:
        """One routing/probe failure; returns ``True`` when this strike
        transitioned the replica from healthy to unhealthy."""
        with self._lock:
            if self.dead:
                return False
            self.strikes += 1
            if self.strikes >= limit and self.healthy:
                return self._mark_unhealthy_locked(reason)
            return False

    def record_probe_ok(self) -> bool:
        """A passing probe clears strikes; returns ``True`` when it
        brought an unhealthy replica back."""
        with self._lock:
            if self.dead:
                return False
            self.strikes = 0
            if self.healthy:
                return False
            self.healthy = True
            if self._down_since is not None:
                self._downtime += self.clock() - self._down_since
                self._down_since = None
            self.transitions += 1
            self.last_reason = ""
            return True

    def kill(self, close_timeout: float = 5.0) -> bool:
        """Take the replica down for good (the chaos/bench fault).

        The front-end is closed without draining: its current batches
        finish, everything still queued fails typed, and the replica
        never routes again.  Returns ``False`` if already dead."""
        with self._lock:
            if self.dead:
                return False
            was_available = self.healthy
            self.dead = True
            self._mark_unhealthy_locked("killed")
        if was_available and self.on_transition is not None:
            self.on_transition()
        self.frontend.close(timeout=close_timeout, drain=False)
        return True

    @property
    def available(self) -> bool:
        with self._lock:
            return self.healthy and not self.dead

    @property
    def downtime_seconds(self) -> float:
        with self._lock:
            total = self._downtime
            if self._down_since is not None:
                total += self.clock() - self._down_since
            return total

    def health_snapshot(self) -> dict:
        """Light diagnostic state (what :class:`NoHealthyReplica` carries)."""
        with self._lock:
            return {
                "strikes": self.strikes,
                "dead": self.dead,
                "healthy": self.healthy,
                "last_reason": self.last_reason,
            }

    def stats(self) -> dict:
        with self._lock:
            return {
                "replica": self.replica_id,
                "healthy": self.healthy,
                "dead": self.dead,
                "strikes": self.strikes,
                "transitions": self.transitions,
                "last_reason": self.last_reason,
                "downtime_seconds": (
                    self._downtime
                    + (
                        self.clock() - self._down_since
                        if self._down_since is not None
                        else 0.0
                    )
                ),
                "selection": list(self.server.selection),
                "frontend": self.frontend.stats(),
            }


class HealthChecker:
    """Active health probes over a fleet's replicas.

    :meth:`check_now` runs one deterministic sweep (what tests and the
    chaos harness call); :meth:`start` runs sweeps on a background
    thread every ``interval`` seconds.  A probe runs :data:`PROBE_ENTRY`
    through the replica's executor (``execute_unique`` with the server's
    breaker and fault hook), bypassing the admission queue and
    ``serve_batch``: the result cache cannot answer it, and nothing is
    recorded in the server's telemetry, cache, recorder or drift
    monitor.  It fails on a dead replica, a front-end dispatcher down
    for good, a raised probe, or probe latency over the threshold.
    """

    def __init__(
        self,
        fleet: "ReplicaFleet",
        latency_threshold_us: float = DEFAULT_PROBE_LATENCY_US,
    ):
        self.fleet = fleet
        self.latency_threshold_us = float(latency_threshold_us)
        self.history: Dict[int, List[dict]] = {
            replica.replica_id: [] for replica in fleet.replicas
        }
        self.checks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def _probe(self, replica: Replica) -> tuple:
        if replica.dead:
            return False, float("inf"), "dead"
        if replica.frontend.stats()["live_workers"] <= 0:
            return False, float("inf"), "dispatcher down"
        server = replica.server
        start = time.perf_counter()
        try:
            execute_unique(
                server.state,
                server.fact,
                server.cost_model,
                [(result_key(PROBE_ENTRY), PROBE_ENTRY)],
                breaker=server.breaker,
                fault_hook=server.fault_hook,
            )
        except Exception as exc:
            latency_us = (time.perf_counter() - start) * 1e6
            return False, latency_us, f"probe raised: {exc!r}"
        latency_us = (time.perf_counter() - start) * 1e6
        if latency_us > self.latency_threshold_us:
            return False, latency_us, "slow probe"
        return True, latency_us, ""

    def check_now(self) -> Dict[int, bool]:
        """One probe sweep; applies strikes/recoveries to the fleet."""
        results: Dict[int, bool] = {}
        for replica in self.fleet.replicas:
            ok, latency_us, reason = self._probe(replica)
            with self._lock:
                history = self.history[replica.replica_id]
                history.append(
                    {"ok": ok, "latency_us": latency_us, "reason": reason}
                )
                del history[:-PROBE_HISTORY_LIMIT]
            if ok:
                if replica.record_probe_ok():
                    self.fleet._health_event()
            else:
                if replica.record_strike(
                    f"probe: {reason}", self.fleet.strike_limit
                ):
                    self.fleet._health_event()
            results[replica.replica_id] = ok
        with self._lock:
            self.checks += 1
        return results

    def probe_history(self, replica_id: int) -> List[dict]:
        with self._lock:
            return list(self.history[replica_id])

    def start(self, interval: float) -> None:
        """Sweep every ``interval`` seconds (finite, > 0) until :meth:`stop`."""
        interval = _positive_seconds("probe_interval", interval)
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                self.check_now()

        self._thread = threading.Thread(
            target=loop, name="fleet-health-checker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None


class ReplicaFleet:
    """N replicas behind a health-checked, retrying router.

    Parameters
    ----------
    fact:
        The shared fact table (each replica materializes its own
        catalog from it).
    selections:
        Either one selection (a sequence of structure labels, applied
        to every replica — ``replicas`` gives the count) or one
        selection *per replica* (a sequence of sequences; its length is
        the replica count).
    replicas:
        Replica count when ``selections`` is a single selection
        (default 2; ignored and checked for consistency otherwise).
    batch_size / cache_bytes:
        Per-replica front-end batch size and result-cache budget
        (``cache_bytes=0`` disables the result cache).  A front-end's
        ``queue_depth`` and ``max_worker_restarts`` are its own
        defaults; set them on ``replica.frontend``.
    breaker_cooldown:
        Seconds a replica's open circuit waits before a half-open probe.
    retry:
        The router's :class:`RetryPolicy` (attempts + backoff).
    query_deadline:
        Per-attempt seconds (finite, > 0) a routed query may take
        (submit + answer, one monotonic deadline) before the router
        strikes the replica and re-routes.
    strike_limit:
        Consecutive failures that mark a replica unhealthy.
    probe_interval:
        Seconds (finite, > 0) between background health sweeps
        (``None`` = active probing only via ``checker.check_now()``).
    probe_latency_threshold_us:
        Probe latency above which a health check fails.
    clock:
        Time source for the availability accounting (a test's fake).
    router:
        Optional :class:`repro.distributed.RoutingTable` built over the
        same per-replica selections.  When set, dispatch is cost-routed:
        each query goes to its predicted-cheapest available replica
        (failover walks the ranking), and telemetry gains per-replica
        routed-hit / misroute counters.  ``None`` keeps round-robin.
    """

    def __init__(
        self,
        fact,
        selections: Union[Sequence[str], Sequence[Sequence[str]]],
        replicas: Optional[int] = None,
        cost_model: Optional[LinearCostModel] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache_bytes: int = 0,
        breaker_cooldown: float = BREAKER_COOLDOWN_SECONDS,
        retry: Optional[RetryPolicy] = None,
        query_deadline: float = DEFAULT_QUERY_DEADLINE,
        strike_limit: int = DEFAULT_STRIKE_LIMIT,
        probe_interval: Optional[float] = None,
        probe_latency_threshold_us: float = DEFAULT_PROBE_LATENCY_US,
        clock: Callable[[], float] = time.monotonic,
        router=None,
    ):
        selection_list = self._normalize_selections(selections, replicas)
        if router is not None and router.n_replicas != len(selection_list):
            raise ValueError(
                f"router covers {router.n_replicas} replicas but the fleet "
                f"has {len(selection_list)}"
            )
        self.router = router
        self.query_deadline = _positive_seconds("query_deadline", query_deadline)
        if probe_interval is not None:  # checked before any thread starts
            _positive_seconds("probe_interval", probe_interval)
        if strike_limit < 1:
            raise ValueError(f"strike_limit must be >= 1, got {strike_limit}")
        self.retry = retry if retry is not None else RetryPolicy()
        self.strike_limit = int(strike_limit)
        self.clock = clock
        self._rng = random.Random(0)
        self.telemetry = TelemetryCollector(keep_records=False)
        model = (
            cost_model
            if cost_model is not None
            else LinearCostModel.from_fact(fact)
        )
        self.cost_model = model
        self.replicas: List[Replica] = []
        for replica_id, selection in enumerate(selection_list):
            breaker = CircuitBreaker(cooldown_seconds=breaker_cooldown)
            server = QueryServer(
                fact,
                selection,
                cost_model=model,
                cache=(
                    ResultCache(capacity_bytes=cache_bytes)
                    if cache_bytes
                    else None
                ),
                keep_records=False,
                breaker=breaker,
            )
            frontend = ServingFrontend(server, batch_size=batch_size)
            replica = Replica(replica_id, server, frontend, clock)
            replica.on_transition = self._health_event
            self.replicas.append(replica)
        self._lock = threading.Lock()
        self._rr = 0
        self._routed = 0
        self._exhausted = 0
        self._no_healthy = 0
        self._no_healthy_since: Optional[float] = None
        self._unavailable_seconds = 0.0
        self._closed = False
        self.checker = HealthChecker(
            self, latency_threshold_us=probe_latency_threshold_us
        )
        if probe_interval is not None:
            self.checker.start(probe_interval)

    @staticmethod
    def _normalize_selections(selections, replicas) -> List[tuple]:
        items = list(selections)
        if not items:
            raise ValueError("selections must not be empty")
        if all(isinstance(item, str) for item in items):
            count = 2 if replicas is None else int(replicas)
            if count < 1:
                raise ValueError(f"replicas must be >= 1, got {replicas}")
            return [tuple(items)] * count
        per_replica = [tuple(item) for item in items]
        if replicas is not None and int(replicas) != len(per_replica):
            raise ValueError(
                f"replicas={replicas} disagrees with {len(per_replica)} "
                "per-replica selections"
            )
        return per_replica

    # ------------------------------------------------------------ routing

    def healthy_replicas(self) -> List[Replica]:
        return [replica for replica in self.replicas if replica.available]

    def _route(
        self, exclude: set, query: Optional[SliceQuery] = None
    ) -> Optional[Replica]:
        """Next healthy replica for this query, preferring untried ones.

        With a router: the cheapest available replica by predicted cost
        (failover walks the ranking, so a struck replica hands over to
        the *next*-cheapest, not to a random rotation slot).  Without:
        round-robin.
        """
        with self._lock:
            healthy = [r for r in self.replicas if r.available]
            if not healthy:
                return None
            if self.router is not None and query is not None:
                by_id = {r.replica_id: r for r in healthy}
                ranked = [
                    by_id[decision.replica_id]
                    for decision in self.router.ranking(query)
                    if decision.replica_id in by_id
                ]
                pool = [r for r in ranked if r.replica_id not in exclude] or ranked
                if pool:
                    return pool[0]
                # router covers none of the healthy replicas: fall back
            fresh = [r for r in healthy if r.replica_id not in exclude]
            pool = fresh or healthy
            self._rr += 1
            return pool[self._rr % len(pool)]

    def _health_event(self) -> None:
        """Re-derive fleet availability after any replica transition —
        the exact accounting of zero-healthy wall-clock spans."""
        with self._lock:
            healthy = sum(1 for r in self.replicas if r.available)
            now = self.clock()
            if healthy == 0 and self._no_healthy_since is None:
                self._no_healthy_since = now
            elif healthy > 0 and self._no_healthy_since is not None:
                self._unavailable_seconds += now - self._no_healthy_since
                self._no_healthy_since = None

    def _strike(self, replica: Replica, reason: str) -> None:
        if replica.record_strike(reason, self.strike_limit):
            self._health_event()

    # -------------------------------------------------------------- serve

    def serve(self, entry: LogEntry) -> ServeOutcome:
        """Answer one query through the fleet.

        Each attempt routes to a healthy replica and waits at most
        ``query_deadline`` for admission and answer together (measured
        on the monotonic clock, not the injectable ``clock``, which
        only accounts availability); a timeout or typed serving
        failure strikes the replica, backs off (jittered exponential),
        and retries elsewhere.  A timed-out attempt cancels its future,
        so a replica that has not started the query never executes
        it.  Raises :class:`NoHealthyReplica` when
        nothing is routable and :class:`RetriesExhausted` after the
        last allowed attempt — never a wrong answer, never a hang.
        """
        tried: set = set()
        last_error: Optional[BaseException] = None
        attempts = 0
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.telemetry.note_retry()
                time.sleep(self.retry.delay(attempt - 1, self._rng))
            replica = self._route(tried, entry.query)
            if replica is None:
                with self._lock:
                    self._no_healthy += 1
                raise NoHealthyReplica(
                    f"no healthy replica (fleet of {len(self.replicas)}, "
                    f"attempt {attempt + 1})",
                    strikes={
                        r.replica_id: r.health_snapshot()
                        for r in self.replicas
                    },
                ) from last_error
            attempts += 1
            deadline = time.monotonic() + self.query_deadline
            try:
                future = replica.frontend.submit(entry, timeout=self.query_deadline)
            except ServingError as exc:
                last_error = exc
                tried.add(replica.replica_id)
                self._strike(replica, f"submit: {type(exc).__name__}")
                continue
            try:
                outcome = future.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except FuturesTimeout:
                future.cancel()  # a still-queued entry is dropped unserved
                self.telemetry.note_deadline_timeout()
                last_error = QueryTimeout(
                    f"no answer within {self.query_deadline}s from "
                    f"replica {replica.replica_id}"
                )
                tried.add(replica.replica_id)
                self._strike(replica, "deadline timeout")
                continue
            except ServingError as exc:
                last_error = exc
                tried.add(replica.replica_id)
                self._strike(replica, type(exc).__name__)
                continue
            # anything not a ServingError propagates: that is a bug, not
            # an accounted fault
            with self._lock:
                self._routed += 1
            if self.router is not None:
                cheapest = self.router.route(entry.query).replica_id
                if replica.replica_id == cheapest:
                    self.telemetry.note_routed_hit(replica.replica_id)
                else:
                    self.telemetry.note_misroute(replica.replica_id)
            return outcome
        with self._lock:
            self._exhausted += 1
        raise RetriesExhausted(
            f"query failed after {attempts} attempts: {last_error!r}",
            attempts=attempts,
            last_error=last_error,
        )

    def serve_many(
        self, entries: Sequence[LogEntry]
    ) -> List[Union[ServeOutcome, ServingError]]:
        """Serve entries from :data:`CLIENT_THREADS` client threads.

        Returns, in input order, each entry's outcome — or the typed
        :class:`ServingError` it definitively failed with.  Untyped
        exceptions propagate (they indicate bugs)."""

        def attempt(entry: LogEntry):
            try:
                return self.serve(entry)
            except ServingError as exc:
                return exc

        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            return list(pool.map(attempt, entries))

    # ----------------------------------------------------------- lifecycle

    @property
    def unavailable_seconds(self) -> float:
        with self._lock:
            total = self._unavailable_seconds
            if self._no_healthy_since is not None:
                total += self.clock() - self._no_healthy_since
            return total

    def close(self, timeout: float = 30.0, drain: bool = True) -> None:
        """Stop probing, close every live front-end, close the servers."""
        if self._closed:
            return
        self._closed = True
        self.checker.stop()
        for replica in self.replicas:
            if not replica.dead:
                replica.frontend.close(timeout=timeout, drain=drain)
            replica.server.close()

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ reporting

    def merged_telemetry(self) -> TelemetryCollector:
        """Fleet counters + every replica's collector, merged."""
        return TelemetryCollector.merge(
            [self.telemetry]
            + [replica.server.telemetry for replica in self.replicas]
        )

    def telemetry_snapshot(self) -> dict:
        """The fleet's telemetry document, shaped like
        :meth:`QueryServer.telemetry_snapshot`: the merged collectors,
        the replicas' result-cache counters summed (enabled when any
        replica has a cache), and the router's counters in ``fleet``."""
        blocks = [
            replica.server.cache.stats()
            for replica in self.replicas
            if replica.server.cache is not None
        ]
        cache = None
        if blocks:
            cache = {
                field: sum(block[field] for block in blocks)
                for field in blocks[0]
            }
            cache["enabled"] = True
        stats = self.stats()
        snapshot = self.merged_telemetry().snapshot(cache=cache)
        snapshot["fleet"].update(
            replicas=len(self.replicas),
            healthy=stats["healthy"],
            routed=stats["routed"],
            exhausted=stats["exhausted"],
            unavailable_seconds=stats["unavailable_seconds"],
            routed_dispatch=stats["routed_dispatch"],
        )
        return snapshot

    def stats(self) -> dict:
        resilience = self.telemetry.resilience_stats()
        with self._lock:
            counters = {
                "routed": self._routed,
                "exhausted": self._exhausted,
                "no_healthy": self._no_healthy,
            }
        return {
            "replicas": [replica.stats() for replica in self.replicas],
            "healthy": len(self.healthy_replicas()),
            "routed_dispatch": self.router is not None,
            "fleet": self.telemetry.fleet_stats(),
            "query_deadline": self.query_deadline,
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
            },
            "retries": resilience["retries"],
            "deadline_timeouts": resilience["deadline_timeouts"],
            "unavailable_seconds": self.unavailable_seconds,
            "health_checks": self.checker.checks,
            **counters,
        }
