"""Batch execution: answer a batch of queries grouped by routed plan.

Per-query serving pays two Python taxes on every call: routing (a scan
over all materialized structures) and duplicate work (OLAP logs repeat
queries).  The batch executor removes both:

* **routing is memoized** per serving state — two queries with the same
  generic pattern route identically, so :func:`plan_for` asks the
  executor's planner once per pattern per generation and keeps its
  :class:`~repro.engine.executor.Plan` (kind, structure label, usable
  prefix, predicted cost) in :attr:`ServingState.plan_cache`, or the
  :func:`raw_plan` fallback when no materialized view answers;
* **execution is grouped by routed plan** — queries that read the same
  view table or index run back to back and share one timed pass;
* **duplicates collapse** — identical concrete queries inside a batch
  execute once and share the result.

Result fidelity is exact, not approximate: prefix and scan plans are
answered by :func:`repro.engine.executor.aggregate_rows`, the kernel
:meth:`~repro.engine.executor.Executor.execute` uses, so batched answers
are byte-identical to per-query execution — the serving test suite
asserts this per query on the dense fixtures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.query import SliceQuery
from repro.cube.query_log import LogEntry
from repro.engine.executor import Plan, _grouped_sums, aggregate_rows
from repro.engine.table import Answer
from repro.serve.telemetry import RAW_LABEL

#: Default queries per batch for the chunked replay/serving drivers.
DEFAULT_BATCH_SIZE = 64


@dataclass
class ExecResult:
    """One unique concrete query's batched execution.

    ``rescued`` marks a structure execution that raised and was
    re-answered from the raw cube (``error_structure`` names the
    structure that failed); ``short_circuited`` marks an execution the
    circuit breaker skipped straight to raw without touching the
    tripped structure.
    """

    structure: str
    predicted_rows: float
    actual_rows: int
    groups: Answer
    latency_us: float
    fallback: bool
    rescued: bool = False
    error_structure: str = ""
    short_circuited: bool = False


def plan_for(state, cost_model, query: SliceQuery) -> Plan:
    """The memoized plan for a generic query pattern.

    :meth:`Executor.choose_plan` on the state's executor, or
    :func:`raw_plan` when no materialized view answers.  The memo lives
    on the serving state, so a hot swap naturally starts from an empty
    plan cache.
    """
    plan = state.plan_cache.get(query)
    if plan is None:
        try:
            plan = state.executor.choose_plan(query)
        except LookupError:
            plan = raw_plan(cost_model, query)
        state.plan_cache[query] = plan
    return plan


def raw_plan(cost_model, query: SliceQuery) -> Plan:
    """A raw-cube plan for one query (the fallback/rescue target).

    Predicted rows come from :meth:`LinearCostModel.default_cost`, so
    rescued answers keep the predicted-vs-actual accounting exact on
    dense fixtures.  The only raw :class:`Plan` constructor: serving,
    routing and the SQL harnesses all fall back through it."""
    return Plan("raw", None, None, (), RAW_LABEL, cost_model.default_cost(query))


def execute_scan(table, entry: LogEntry, plan: Plan) -> ExecResult:
    """Answer one query by a pass over a whole view table: every row
    counts as processed."""
    return ExecResult(
        structure=plan.structure,
        predicted_rows=plan.predicted,
        actual_rows=table.n_rows,
        groups=aggregate_rows(table, entry.query, entry.bound_values),
        latency_us=0.0,
        fallback=False,
    )


def execute_prefix(catalog, table, entry: LogEntry, plan: Plan) -> ExecResult:
    """Answer one query from the index range matching its prefix values:
    only that range's rows count as processed."""
    bound = entry.bound_values
    rows = catalog.sorted_index(plan.index).prefix_rows(
        [int(bound[a]) for a in plan.prefix]
    )
    return ExecResult(
        structure=plan.structure,
        predicted_rows=plan.predicted,
        actual_rows=len(rows),
        groups=aggregate_rows(table, entry.query, bound, rows, plan.prefix),
        latency_us=0.0,
        fallback=False,
    )


def execute_raw(fact, entry: LogEntry, plan: Plan) -> ExecResult:
    """Fallback: answer from the raw fact table (full scan).

    Matches :meth:`QueryServer` raw-serving semantics — the whole fact
    table counts as rows processed, the ungrouped total uses the same
    ``ndarray.sum`` the serial fallback used.
    """
    mask = np.ones(fact.n_rows, dtype=bool)
    for attr, value in entry.values:
        mask &= fact.columns[attr] == value
    groupby = fact.schema.sort_attrs(entry.query.groupby)
    measures = fact.measures[mask]
    if groupby or not len(measures):
        groups = _grouped_sums(
            fact, groupby, [fact.columns[a][mask] for a in groupby], measures
        )
    else:
        groups = Answer((), measures.sum(keepdims=True))
    return ExecResult(
        structure=RAW_LABEL,
        predicted_rows=plan.predicted,
        actual_rows=fact.n_rows,
        groups=groups,
        latency_us=0.0,
        fallback=True,
    )


def execute_backend(backend, entry: LogEntry, plan: Plan) -> ExecResult:
    """Answer one query through an execution backend (e.g. SQLite).

    The backend mirrors the serving catalog, so the routed plan carries
    over verbatim: prefix and scan plans execute against the mirrored
    view table with the plan's ``(view, index)`` pair, raw plans against
    the mirrored fact table.  The backend's rows-processed accounting
    matches the engine's, so telemetry invariants (exact
    predicted-vs-actual on dense fixtures) hold unchanged.
    """
    query = entry.query
    bound = entry.bound_values
    if plan.kind == "raw":
        answer = backend.execute_raw(query, bound)
    else:
        answer = backend.execute(query, bound, plan=(plan.view, plan.index))
    return ExecResult(
        structure=plan.structure,
        predicted_rows=plan.predicted,
        actual_rows=answer.rows_processed,
        groups=answer.groups,
        latency_us=0.0,
        fallback=plan.kind == "raw",
    )


def _execute_member(
    catalog,
    table,
    fact,
    cost_model,
    entry: LogEntry,
    plan: Plan,
    breaker,
    fault_hook,
    backend=None,
) -> ExecResult:
    """One unique query's execution with the resilience layer applied.

    A tripped circuit short-circuits the structure straight to raw; an
    executor error against a structure records a breaker failure and is
    rescued from the raw cube (degraded-but-correct — the raw path
    answers every slice query).  Raw-path errors propagate: there is no
    cheaper-but-still-correct plan left to fall back to.

    With a ``backend``, every path executes there instead of on the row
    engine; the rescue path stays on the engine's raw scan, which keeps
    degraded-but-correct answers available even when the backend itself
    is the failing component.
    """
    kind = plan.kind
    if kind != "raw" and breaker is not None and not breaker.allow(plan.structure):
        result = execute_raw(fact, entry, raw_plan(cost_model, entry.query))
        result.short_circuited = True
        return result
    try:
        if fault_hook is not None:
            fault_hook(plan.structure, entry)
        if backend is not None:
            result = execute_backend(backend, entry, plan)
        elif kind == "prefix":
            result = execute_prefix(catalog, table, entry, plan)
        elif kind == "scan":
            result = execute_scan(table, entry, plan)
        else:
            result = execute_raw(fact, entry, plan)
    except Exception:
        if kind == "raw":
            raise
        if breaker is not None:
            breaker.record_failure(plan.structure)
        rescue = execute_raw(fact, entry, raw_plan(cost_model, entry.query))
        rescue.rescued = True
        rescue.error_structure = plan.structure
        return rescue
    if kind != "raw" and breaker is not None:
        breaker.record_success(plan.structure)
    return result


def execute_unique(
    state,
    fact,
    cost_model,
    items: Sequence[Tuple[tuple, LogEntry]],
    breaker=None,
    fault_hook=None,
    backend=None,
) -> Dict[tuple, ExecResult]:
    """Execute each unique concrete query once, grouped by routed plan.

    ``items`` pairs a cache key with one representative entry.  Queries
    sharing a plan target are answered together (one timed pass per
    group); each result's ``latency_us`` is the group's elapsed time
    split evenly across its members.

    ``breaker`` (a :class:`~repro.serve.resilience.CircuitBreaker`) and
    ``fault_hook`` (``hook(structure, entry)``, called before each
    structure execution — the chaos harness's injection point) are
    consulted *per execution*, not per plan: the plan cache stays pure
    routing, so a circuit opening or closing takes effect on the very
    next batch without invalidating memoized plans.

    ``backend`` (a :class:`~repro.backends.sqlite.SqliteBackend`)
    redirects every execution to the mirrored database — the caller is
    responsible for having synced it to this serving state first.
    """
    plan_groups: Dict[tuple, List[Tuple[tuple, LogEntry, Plan]]] = {}
    for key, entry in items:
        plan = plan_for(state, cost_model, entry.query)
        group_key = (plan.kind, plan.view, plan.index)
        plan_groups.setdefault(group_key, []).append((key, entry, plan))

    results: Dict[tuple, ExecResult] = {}
    catalog = state.catalog
    for (__kind, view, __index), members in plan_groups.items():
        table = catalog.view_table(view) if view is not None else None
        start = time.perf_counter()
        for key, entry, plan in members:
            results[key] = _execute_member(
                catalog, table, fact, cost_model, entry, plan,
                breaker, fault_hook, backend,
            )
        shared_us = (time.perf_counter() - start) * 1e6 / len(members)
        for key, __entry, __plan in members:
            results[key].latency_us = shared_us
    return results
