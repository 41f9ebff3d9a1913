"""Executing slice queries against materialized views and indexes.

The executor answers a concrete slice query (attribute values supplied for
every selection attribute) from the catalog, counting the **rows
processed** — the paper's cost measure.  A plan is a ``(view, index)``
pair; with an index whose key has a usable prefix, only the index range
matching the prefix values is read; otherwise the whole view table is
scanned.

This makes the linear cost model falsifiable: the expected number of rows
an index plan touches is ``|V| / |E|`` where ``|E|`` is the number of
distinct prefix combinations, which is exactly ``c(Q, V, J)``.

Every plan, here and in :mod:`repro.serve.batch`, is answered by one
kernel, :func:`aggregate_rows`: it filters the rows a plan reads and sums
them per group in the order read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.engine.catalog import Catalog
from repro.engine.table import ViewTable

#: Arithmetic-coded grouping is used while the key space stays below
#: this; degenerate (huge-domain) keys fall back to ``np.unique``.
MAX_CODED_KEY_SPACE = 1 << 20


def _grouped_sums(
    key_columns: Sequence[np.ndarray], values: np.ndarray
) -> Dict[tuple, float]:
    """Group-and-sum, adding each group's values in row order.

    ``np.bincount`` adds weights sequentially (index order), the order a
    per-row ``groups[key] += value`` loop uses — so the floats match it
    bit-for-bit regardless of how the group *labels* are derived.  Labels
    come from an arithmetic encoding of the key tuple (one mixed-radix
    integer per row; no sort, unlike ``np.unique(axis=0)``), decoded back
    for the populated codes only.
    """
    if not len(values):
        return {}
    if not key_columns:
        sums = np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)
        return {(): float(sums[0])}
    dims = tuple(int(column.max()) + 1 for column in key_columns)
    space = 1
    for dim in dims:
        space *= dim
    if space > MAX_CODED_KEY_SPACE:
        stacked = np.stack(key_columns, axis=1)
        unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=values, minlength=len(unique))
        return {
            tuple(row): float(total)
            for row, total in zip(unique.tolist(), sums.tolist())
        }
    if len(key_columns) == 1:
        codes = key_columns[0]
    else:
        codes = np.ravel_multi_index(tuple(key_columns), dims)
    sums = np.bincount(codes, weights=values, minlength=space)
    populated = np.nonzero(np.bincount(codes, minlength=space))[0]
    keys = np.stack(np.unravel_index(populated, dims), axis=1)
    return {
        tuple(row): total
        for row, total in zip(keys.tolist(), sums[populated].tolist())
    }


def aggregate_rows(
    table: ViewTable,
    query: SliceQuery,
    bound: Mapping[str, int],
    rows: Optional[np.ndarray] = None,
    matched: tuple = (),
    measure: Optional[str] = None,
) -> Dict[tuple, float]:
    """The query's groups over ``rows`` of ``table``, summed in that order.

    ``rows`` defaults to every row (a view scan); an index plan passes
    its prefix range and, as ``matched``, the prefix attributes those
    rows already equal.  Rows whose other selection attributes differ
    from ``bound`` are dropped; the rest are keyed by the group-by
    attributes and their ``measure`` column (default: the primary one)
    summed.
    """
    mask = None
    for attr in table.attrs:
        if attr in query.selection and attr not in matched:
            column = table.key_columns[attr]
            hit = (column if rows is None else column[rows]) == int(bound[attr])
            mask = hit if mask is None else mask & hit
    if mask is not None:
        rows = np.flatnonzero(mask) if rows is None else rows[mask]
    elif rows is None:
        rows = slice(None)
    return _grouped_sums(
        [table.key_columns[a][rows] for a in table.attrs if a in query.groupby],
        table.values_for(measure)[rows],
    )


@dataclass(frozen=True)
class PlanChoice:
    """One candidate plan considered by the planner."""

    view: View
    index: Optional[Index]
    usable_prefix: tuple
    estimated_cost: float

    def __str__(self) -> str:
        via = str(self.index) if self.index is not None else f"scan {self.view}"
        return f"{via}: ~{self.estimated_cost:g} rows"


@dataclass
class QueryResult:
    """Result of executing one slice query."""

    query: SliceQuery
    view: View
    index: Optional[Index]
    rows_processed: int
    groups: Dict[tuple, float] = field(default_factory=dict)

    @property
    def n_groups(self) -> int:
        return len(self.groups)


class Executor:
    """Answers slice queries from a :class:`Catalog`.

    Parameters
    ----------
    catalog:
        The materialized views and indexes.
    cost_model:
        Optional :class:`LinearCostModel` used by :meth:`choose_plan`.
        Without it, plans are chosen from the *actual* table statistics
        (view row counts and distinct prefix counts), which the catalog
        can always supply.
    """

    def __init__(self, catalog: Catalog, cost_model: Optional[LinearCostModel] = None):
        self.catalog = catalog
        self.cost_model = cost_model
        self._distinct_cache: Dict[Tuple[int, View, tuple], int] = {}

    # ------------------------------------------------------------ planning

    def _estimated_cost(self, query: SliceQuery, view: View,
                        index: Optional[Index]) -> float:
        if self.cost_model is not None:
            return self.cost_model.cost(query, view, index)
        table = self.catalog.view_table(view)
        if index is None:
            return float(table.n_rows)
        prefix = index.usable_prefix(query)
        if not prefix:
            return float(table.n_rows)
        # a maintenance delta replaces the facts and bumps the version
        cache_key = (self.catalog.version, view, prefix)
        if cache_key not in self._distinct_cache:
            self._distinct_cache[cache_key] = self.catalog.fact.distinct_count(prefix)
        distinct = self._distinct_cache[cache_key]
        return max(1.0, table.n_rows / max(1, distinct))

    def explain(self, query: SliceQuery) -> list:
        """All candidate plans for the query with their estimated costs.

        Returns ``PlanChoice`` records sorted cheapest-first; the head is
        what :meth:`choose_plan` would pick (the sort is stable, so cost
        ties keep scan order, as :meth:`plan_with_cost` does).  Useful
        for understanding why a plan won (and for asserting planner
        behaviour in tests).
        """
        choices = []
        for view in self.catalog.views():
            if not query.answerable_by(view):
                continue
            for index in [None] + self.catalog.indexes_on(view):
                prefix = index.usable_prefix(query) if index is not None else ()
                choices.append(
                    PlanChoice(
                        view=view,
                        index=index,
                        usable_prefix=prefix,
                        estimated_cost=self._estimated_cost(query, view, index),
                    )
                )
        choices.sort(key=lambda c: c.estimated_cost)
        return choices

    def choose_plan(self, query: SliceQuery) -> Tuple[View, Optional[Index]]:
        """Cheapest ``(view, index)`` plan among materialized structures.

        Raises ``LookupError`` if no materialized view can answer the
        query (the caller falls back to raw data).
        """
        view, index, _cost = self.plan_with_cost(query)
        return view, index

    def plan_with_cost(
        self, query: SliceQuery
    ) -> Tuple[View, Optional[Index], float]:
        """Like :meth:`choose_plan`, plus the winning plan's estimated
        cost — the prediction the serving telemetry compares against the
        rows actually processed, from the same model the router used.

        Raises ``LookupError`` if no materialized view can answer the
        query (the caller falls back to raw data).
        """
        best: Optional[Tuple[View, Optional[Index]]] = None
        best_cost = float("inf")
        for view in self.catalog.views():
            if not query.answerable_by(view):
                continue
            candidates = [None] + self.catalog.indexes_on(view)
            for index in candidates:
                cost = self._estimated_cost(query, view, index)
                if cost < best_cost:
                    best_cost = cost
                    best = (view, index)
        if best is None:
            raise LookupError(f"no materialized view answers {query}")
        return best[0], best[1], best_cost

    # ----------------------------------------------------------- execution

    def execute(
        self,
        query: SliceQuery,
        selection_values: Mapping[str, int],
        plan: Optional[Tuple[View, Optional[Index]]] = None,
        measure: Optional[str] = None,
    ) -> QueryResult:
        """Run the query with the given concrete selection values.

        ``selection_values`` must provide a value for every selection
        attribute of the query.  ``plan`` overrides plan choice (useful
        for measuring a specific view/index combination).  ``measure``
        picks which measure column to aggregate (default: the view's
        primary measure).
        """
        missing = query.selection - set(selection_values)
        if missing:
            raise ValueError(f"missing selection values for {sorted(missing)}")
        if plan is None:
            plan = self.choose_plan(query)
        view, index = plan
        if not query.answerable_by(view):
            raise ValueError(f"plan view {view} cannot answer {query}")
        if index is not None and index.view != view:
            raise ValueError(f"plan index {index} is not on view {view}")

        table = self.catalog.view_table(view)
        prefix = index.usable_prefix(query) if index is not None else ()
        if prefix:
            rows = self.catalog.sorted_index(index).prefix_rows(
                [int(selection_values[a]) for a in prefix]
            )
            rows_processed = len(rows)
        else:
            rows = None
            rows_processed = table.n_rows
        return QueryResult(
            query=query,
            view=view,
            index=index,
            rows_processed=rows_processed,
            groups=aggregate_rows(
                table, query, selection_values, rows, prefix, measure
            ),
        )
