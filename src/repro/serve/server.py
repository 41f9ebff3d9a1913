"""The in-process query server: route, execute, observe, adapt.

:class:`QueryServer` holds one immutable :class:`ServingState` — catalog,
executor, and the selection it materializes — behind an atomic reference.
Every query reads the reference once, so a background re-selection can
build a whole new state and swap it in while the old one keeps serving.

Queries are served in **batches** (:meth:`QueryServer.serve_batch`):
entries are grouped by their routed ``(view, index)`` plan and each group
is answered in one vectorized pass over the target structure
(:mod:`repro.serve.batch`), with identical concrete queries collapsing
to one execution.  Single-query :meth:`serve` is a batch of one — there
is exactly one execution path, so a replayed log and a live serving
session report the same routing and cost accounting.

With a :class:`~repro.serve.cache.ResultCache` attached, finished
results are memoized on the canonical concrete-query form.  Cached
entries are tagged with ``(serving generation, catalog version)``: a hot
swap bumps the generation and a fact-table delta applied through
:mod:`repro.engine.maintenance` bumps the catalog version, so neither
can ever serve stale rows — the first batch after either change drops
the cache wholesale.

Per batch, the server

1. routes each miss through :func:`repro.serve.batch.plan_for`: the
   executor's planner picks the cheapest answering ``(view, index)``
   under the paper's ``|C| / |E|`` cost model (first minimum in catalog
   order on a tie) and its :class:`~repro.engine.executor.Plan` is
   memoized per pattern, with a raw fact-table plan when nothing
   materialized answers,
2. executes each plan group in one pass, counting rows actually
   processed,
3. records telemetry (latency, predicted vs. actual rows, per-structure
   hits, fallbacks) into its own collector, appends to the workload
   recorder, and feeds the drift monitor,
4. when the observed workload has drifted and a reselector is
   configured, triggers one background re-advise; if its selection beats
   the current one by the margin, the server materializes it and swaps.

The :meth:`replay` driver pushes a recorded log through the same
batched path in ``batch_size`` chunks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.costmodel import LinearCostModel
from repro.core.query import SliceQuery
from repro.cube.query_log import LogEntry
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, Plan
from repro.engine.pipeline import materialize_selection
from repro.engine.table import Answer, FactTable
from repro.serve.adaptive import AdaptiveReselector, ReadviseOutcome
from repro.serve.batch import DEFAULT_BATCH_SIZE, execute_unique
from repro.serve.cache import CachedResult, ResultCache, result_key
from repro.serve.drift import DriftMonitor
from repro.serve.recorder import WorkloadRecorder
from repro.serve.resilience import CircuitBreaker
from repro.serve.structures import resolve_selection
from repro.serve.telemetry import RAW_LABEL, TelemetryCollector, _percentile


@dataclass(frozen=True)
class ServingState:
    """One materialized selection, ready to answer queries (immutable —
    swapped atomically, never mutated).

    ``plan_cache`` memoizes per-pattern routing decisions for this
    state; it is the only mutable member, written idempotently (the same
    pattern always routes to the same plan), so concurrent readers need
    no lock.
    """

    catalog: Catalog
    executor: Executor
    selection: Tuple[str, ...]
    generation: int = 0
    plan_cache: Dict[SliceQuery, Plan] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass(slots=True)
class ServeOutcome:
    """What serving one query observed (slotted: no ad-hoc attributes)."""

    entry: LogEntry
    structure: str
    predicted_rows: float
    actual_rows: int
    latency_us: float
    fallback: bool
    groups: Answer = field(default_factory=Answer)
    cached: bool = False
    rescued: bool = False


@dataclass
class ReplayReport:
    """Aggregate of one :meth:`QueryServer.replay` run."""

    queries: int
    fallbacks: int
    seconds: float
    latencies_us: List[float] = field(default_factory=list)
    batch_size: int = 1
    cache_hits: int = 0

    @property
    def qps(self) -> float:
        return self.queries / self.seconds if self.seconds > 0 else 0.0

    @property
    def p50_us(self) -> float:
        return _percentile(self.latencies_us, 0.50)

    @property
    def p99_us(self) -> float:
        return _percentile(self.latencies_us, 0.99)

    def summary(self) -> dict:
        return {
            "queries": self.queries,
            "fallbacks": self.fallbacks,
            "seconds": self.seconds,
            "qps": self.qps,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "batch_size": self.batch_size,
            "cache_hits": self.cache_hits,
        }


class QueryServer:
    """Serves concrete slice queries from a materialized selection.

    Parameters
    ----------
    fact:
        The raw fact table (also the fallback execution path).
    selection:
        Structure labels to materialize (paper notation, e.g. ``psc``,
        ``I_sp(ps)``) — typically ``SelectionResult.selected``.
    cost_model:
        Router cost model.  Defaults to the *exact* model measured from
        the fact table (:meth:`LinearCostModel.from_fact`), under which
        predicted rows equal actual rows on dense cubes.
    advised:
        The workload frequencies the selection was advised under; enables
        the drift monitor.
    recorder:
        Optional :class:`WorkloadRecorder` that every served entry is
        appended to (closed by :meth:`close`).
    reselector:
        Optional :class:`AdaptiveReselector`; with it (and ``advised``),
        drift past the monitor's threshold triggers one background
        re-advise and — when the new selection wins by the reselector's
        margin — an atomic hot swap.
    cache:
        Optional :class:`~repro.serve.cache.ResultCache`; hits skip
        execution entirely while replaying the stored cost accounting,
        so telemetry invariants (exact predicted-vs-actual matches on
        dense fixtures) hold with the cache on.
    drift_threshold / drift_min_queries:
        Forwarded to the :class:`DriftMonitor` (ignored without
        ``advised``).
    breaker:
        Optional :class:`~repro.serve.resilience.CircuitBreaker`.
        Executor errors against a materialized structure are counted
        per structure; past the breaker's threshold the structure is
        short-circuited onto the raw-cube fallback until its cooldown
        half-opens the circuit.  Trips and resets land in telemetry.
    fault_hook:
        Optional ``hook(structure, entry)`` called before every
        structure execution — the chaos harness's injection point for
        executor errors and latency.
    backend:
        Optional :class:`~repro.backends.sqlite.SqliteBackend`; with it,
        every execution (prefix, scan, and raw) runs on the mirrored
        SQLite database instead of the row engine, with identical
        routing, answers, and cost accounting.  The mirror is synced at
        the top of each batch keyed on ``(generation, catalog
        version)``, so hot swaps and fact deltas rebuild it before any
        query can read stale rows.
    background:
        ``False`` runs re-advises synchronously inside :meth:`serve`
        (deterministic for tests); ``True`` (default) runs them on a
        daemon thread while the old selection keeps serving.
    """

    def __init__(
        self,
        fact: FactTable,
        selection: Sequence[str],
        cost_model: Optional[LinearCostModel] = None,
        advised: Optional[Mapping[SliceQuery, float]] = None,
        recorder: Optional[WorkloadRecorder] = None,
        reselector: Optional[AdaptiveReselector] = None,
        cache: Optional[ResultCache] = None,
        drift_threshold: Optional[float] = None,
        drift_min_queries: Optional[int] = None,
        keep_records: bool = True,
        background: bool = True,
        breaker: Optional[CircuitBreaker] = None,
        fault_hook=None,
        backend=None,
    ):
        self.fact = fact
        self.backend = backend
        self.cost_model = (
            cost_model if cost_model is not None else LinearCostModel.from_fact(fact)
        )
        self.telemetry = TelemetryCollector(keep_records=keep_records)
        self.recorder = recorder
        self.reselector = reselector
        self.cache = cache
        self.background = background
        self.breaker = breaker
        self.fault_hook = fault_hook
        if breaker is not None:
            # trips/resets land on the server's own collector, also when
            # a fleet health probe's execution trips the breaker
            if breaker.on_trip is None:
                breaker.on_trip = lambda structure: self.telemetry.note_breaker_trip()
            if breaker.on_reset is None:
                breaker.on_reset = (
                    lambda structure: self.telemetry.note_breaker_reset()
                )
        self.drift: Optional[DriftMonitor] = None
        if advised is not None:
            kwargs = {}
            if drift_threshold is not None:
                kwargs["threshold"] = drift_threshold
            if drift_min_queries is not None:
                kwargs["min_queries"] = drift_min_queries
            self.drift = DriftMonitor(advised, **kwargs)

        self._swap_lock = threading.Lock()
        self._readvise_lock = threading.Lock()
        self._readvise_thread: Optional[threading.Thread] = None
        self._readvise_inflight = False
        self._cooldown_until = 0
        self.readvise_count = 0
        self.readvise_failures = 0
        self.swap_count = 0
        self.outcomes: List[ReadviseOutcome] = []
        self._closed = False
        self._state = self._materialize(tuple(selection), generation=0)

    # -------------------------------------------------------------- state

    @property
    def state(self) -> ServingState:
        """The current serving state (read once per batch — immutable)."""
        return self._state

    @property
    def selection(self) -> Tuple[str, ...]:
        return self._state.selection

    def _materialize(self, names: Tuple[str, ...], generation: int) -> ServingState:
        views, indexes = resolve_selection(names, self.fact.schema.names)
        catalog = Catalog(self.fact)
        materialize_selection(catalog, views, indexes)
        executor = Executor(catalog, self.cost_model)
        return ServingState(
            catalog=catalog,
            executor=executor,
            selection=names,
            generation=generation,
        )

    # -------------------------------------------------------------- serve

    def serve(self, entry: LogEntry) -> ServeOutcome:
        """Answer one concrete query; record telemetry and workload.

        A batch of one — same routing, execution, and caching as
        :meth:`serve_batch`.
        """
        return self.serve_batch([entry])[0]

    def serve_batch(self, entries: Sequence[LogEntry]) -> List[ServeOutcome]:
        """Answer a batch of concrete queries in grouped passes.

        The batch reads the serving state once (stable across the call),
        consults the result cache, collapses duplicate concrete queries,
        groups the misses by routed plan, and answers each group in one
        pass over its target structure.  Outcomes come back in input
        order.

        Latency accounting: executed entries report their plan group's
        elapsed time split evenly across the group's unique queries
        (duplicates share their execution's latency); cache hits report
        the batch's one cache-lookup pass split evenly across the
        batch's entries.
        """
        if not entries:
            return []
        state = self._state  # single atomic read: stable across the batch
        tag = (state.generation, state.catalog.version)
        if self.backend is not None:
            # same (generation, version) key as the result cache: a hot
            # swap or applied delta rebuilds the mirror, a steady batch
            # is a no-op
            self.backend.sync(state.catalog, state.generation)
        cache = self.cache
        outcomes: List[Optional[ServeOutcome]] = [None] * len(entries)
        pending: Dict[tuple, List[int]] = {}
        if cache is not None:
            cache.ensure_tag(tag)
            start = time.perf_counter()
            keys = list(map(result_key, entries))
            found = cache.get_many(keys, tag)
            latency_us = (time.perf_counter() - start) * 1e6 / len(entries)
            for pos, hit in enumerate(found):
                if hit is None:
                    pending.setdefault(keys[pos], []).append(pos)
                    continue
                outcomes[pos] = ServeOutcome(
                    entries[pos],
                    hit.structure,
                    hit.predicted_rows,
                    hit.actual_rows,
                    latency_us,
                    hit.structure == RAW_LABEL,
                    hit.groups,
                    True,  # cached
                )
        else:
            for pos, entry in enumerate(entries):
                pending.setdefault(result_key(entry), []).append(pos)

        if pending:
            items = [
                (key, entries[positions[0]]) for key, positions in pending.items()
            ]
            results = execute_unique(
                state,
                self.fact,
                self.cost_model,
                items,
                breaker=self.breaker,
                fault_hook=self.fault_hook,
                backend=self.backend,
            )
            for key, positions in pending.items():
                result = results[key]
                if result.error_structure:
                    # one executor error + one raw rescue per *unique*
                    # execution — reconciles 1:1 with injected faults
                    self.telemetry.note_executor_error(result.error_structure)
                    self.telemetry.note_raw_rescue()
                elif result.short_circuited:
                    self.telemetry.note_breaker_short_circuit()
                if cache is not None and not (
                    result.rescued or result.short_circuited
                ):
                    # degraded answers are correct but not worth pinning:
                    # once the circuit closes, the structure path should
                    # serve (and re-cache) these queries again
                    cache.put(
                        key,
                        CachedResult(
                            structure=result.structure,
                            predicted_rows=result.predicted_rows,
                            actual_rows=result.actual_rows,
                            groups=result.groups,
                        ),
                        tag,
                    )
                for pos in positions:
                    outcomes[pos] = ServeOutcome(
                        entry=entries[pos],
                        structure=result.structure,
                        predicted_rows=result.predicted_rows,
                        actual_rows=result.actual_rows,
                        latency_us=result.latency_us,
                        fallback=result.fallback,
                        groups=result.groups,
                        rescued=result.rescued,
                    )
        self._observe_batch(outcomes)
        return outcomes

    def _observe_batch(self, outcomes: Sequence[ServeOutcome]) -> None:
        self.telemetry.record_many(
            [
                (
                    outcome.entry.query,
                    outcome.structure,
                    outcome.latency_us,
                    outcome.predicted_rows,
                    outcome.actual_rows,
                    outcome.fallback,
                )
                for outcome in outcomes
            ]
        )
        if self.recorder is not None:
            for outcome in outcomes:
                self.recorder.record(outcome.entry)
        if self.drift is not None:
            for outcome in outcomes:
                self.drift.observe(outcome.entry.query)
                if self.reselector is not None:
                    self._maybe_readvise()

    # -------------------------------------------------------- maintenance

    def apply_delta(
        self,
        delta_columns,
        delta_measures,
        delta_extra_measures=None,
    ):
        """Apply a fact-table delta to the serving catalog.

        Delegates to :func:`repro.engine.maintenance.apply_delta` (which
        refreshes every materialized view and index and bumps the
        catalog version), repoints the server's raw-fallback fact table
        at the merged facts, and drops the result cache — a cached
        answer computed before the delta must never be served after it.
        Returns the :class:`~repro.engine.maintenance.RefreshReport`.
        """
        from repro.engine.maintenance import apply_delta as engine_apply_delta

        with self._swap_lock:
            state = self._state
            report = engine_apply_delta(
                state.catalog, delta_columns, delta_measures, delta_extra_measures
            )
            self.fact = state.catalog.fact
        if self.cache is not None:
            self.cache.invalidate()
        return report

    # ----------------------------------------------------------- re-advise

    def _maybe_readvise(self) -> None:
        with self._readvise_lock:
            if self._readvise_inflight or not self.drift.drifted:
                return
            if self.drift.observed_total < self._cooldown_until:
                return
            self._readvise_inflight = True
            observed = self.drift.observed_counts()
        if self.background:
            thread = threading.Thread(
                target=self._run_readvise, args=(observed,), daemon=True
            )
            self._readvise_thread = thread
            thread.start()
        else:
            self._run_readvise(observed)

    def _run_readvise(self, observed: Mapping[SliceQuery, float]) -> None:
        try:
            current = self._state.selection
            try:
                outcome = self.reselector.readvise(observed, current)
            except Exception as exc:
                # a crashed re-advise must never take serving down: the
                # old generation keeps serving, the failure is counted
                self._note_readvise_failure(f"re-advise crashed: {exc!r}")
                return
            self.outcomes.append(outcome)
            self.readvise_count += 1
            if outcome.accepted:
                try:
                    self._swap(tuple(outcome.result.selected), observed)
                except Exception as exc:
                    # materialization died mid-swap; the state reference
                    # was never repointed, so generation N keeps serving
                    self._note_readvise_failure(
                        f"hot swap crashed: {exc!r} (still serving "
                        f"generation {self._state.generation})"
                    )
            else:
                # rejected: wait for the workload to move on before
                # re-running the advisor against near-identical counts
                with self._readvise_lock:
                    self._cooldown_until = (
                        self.drift.observed_total + self.drift.min_queries
                    )
        finally:
            with self._readvise_lock:
                self._readvise_inflight = False

    def _note_readvise_failure(self, detail: str) -> None:
        """Record a crashed re-advise/swap: telemetry counter, a failed
        outcome in the log, and a cooldown so the very next query does
        not immediately re-trigger the same crash."""
        self.readvise_failures += 1
        self.telemetry.note_readvise_failure()
        self.outcomes.append(
            ReadviseOutcome(
                result=None,
                tau_current=0.0,
                tau_new=float("inf"),
                accepted=False,
                detail=detail,
            )
        )
        with self._readvise_lock:
            if self.drift is not None:
                self._cooldown_until = (
                    self.drift.observed_total + self.drift.min_queries
                )

    def _swap(
        self, names: Tuple[str, ...], observed: Mapping[SliceQuery, float]
    ) -> None:
        """Materialize the winning selection and publish it atomically.

        The old state serves every query that started before the swap;
        queries issued after see the new catalog.  The result cache is
        dropped — and any batch still serving the old state carries the
        old generation tag, so its late inserts are discarded rather
        than poisoning the new generation."""
        with self._swap_lock:
            state = self._materialize(names, generation=self._state.generation + 1)
            self._state = state
            self.swap_count += 1
        if self.cache is not None:
            self.cache.invalidate()
        self.telemetry.note_swap()
        if self.drift is not None:
            self.drift.rebase(observed)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background re-advise (if any)."""
        thread = self._readvise_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def close(self, timeout: Optional[float] = 60.0) -> None:
        """Shut the server down: drain re-advises, flush and close the
        workload recorder.  Idempotent; also runs on context-manager
        exit, so an exception mid-serving still leaves a loadable log."""
        if self._closed:
            return
        self._closed = True
        self.drain(timeout=timeout)
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- replay

    def replay(
        self,
        entries: Sequence[LogEntry],
        batch_size: Optional[int] = None,
    ) -> ReplayReport:
        """Serve a recorded log through the batched execution path, in
        ``batch_size`` chunks (default :data:`DEFAULT_BATCH_SIZE`)."""
        size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        cache_hits_before = self.cache.hits if self.cache is not None else 0
        start = time.perf_counter()
        outcomes: List[ServeOutcome] = []
        for lo in range(0, len(entries), size):
            outcomes.extend(self.serve_batch(entries[lo : lo + size]))
        seconds = time.perf_counter() - start
        cache_hits = (
            self.cache.hits - cache_hits_before if self.cache is not None else 0
        )
        return ReplayReport(
            queries=len(outcomes),
            fallbacks=sum(1 for o in outcomes if o.fallback),
            seconds=seconds,
            latencies_us=[o.latency_us for o in outcomes],
            batch_size=size,
            cache_hits=cache_hits,
        )

    # ------------------------------------------------------------ snapshot

    def telemetry_snapshot(self) -> dict:
        """The telemetry document plus serving meta (catalog stats,
        selection, drift status) and result-cache counters."""
        meta = {
            "selection": list(self._state.selection),
            "generation": self._state.generation,
            "catalog": self._state.catalog.stats(),
            "readvises": self.readvise_count,
            "readvise_failures": self.readvise_failures,
        }
        if self.breaker is not None:
            meta["breaker"] = self.breaker.stats()
        if self.drift is not None:
            meta["drift"] = self.drift.status()
        cache_stats = self.cache.stats() if self.cache is not None else None
        return self.telemetry.snapshot(meta=meta, cache=cache_stats)
