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

It is also the one planner: :func:`plan_candidates` prices every
answering ``(view, index)`` of a structure set in scan order,
:func:`rank_plans` sorts them stably and :func:`cheapest_plan` takes the
first minimum, so a cost tie goes to the structure scanned first.  The
executor, serving's plan memo, replica routing and the SQL harnesses all
plan through them and read the same :class:`Plan` records.

Every plan, here and in :mod:`repro.serve.batch`, is answered by one
kernel, :func:`aggregate_rows`: it filters the rows a plan reads and sums
them per group in the order read, into an immutable
:class:`~repro.engine.table.Answer` (the groups' key columns and sums,
read as a mapping from key tuple to sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.lattice import index_label, view_label
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.engine.catalog import Catalog
from repro.engine.table import Answer, FactTable, ViewTable, group_rows


def _grouped_sums(
    table: Union[FactTable, ViewTable],
    attrs: Tuple[str, ...],
    key_columns: Sequence[np.ndarray],
    values: np.ndarray,
) -> Answer:
    """Group-and-sum by :func:`~repro.engine.table.group_rows`, adding
    each group's values in row order, the order a per-row
    ``groups[key] += value`` loop uses, so the floats match it bit for
    bit.  ``key_columns`` are the table's columns of ``attrs`` over the
    rows read, coded in the table's radices; groups come in key order.
    """
    if not len(values):
        return Answer()
    groups = group_rows(key_columns, [table.radix[a] for a in attrs])
    return Answer(groups.keys, groups.fold(values))


def aggregate_rows(
    table: ViewTable,
    query: SliceQuery,
    bound: Mapping[str, int],
    rows: Optional[np.ndarray] = None,
    matched: tuple = (),
    measure: Optional[str] = None,
) -> Answer:
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
    groupby = tuple(a for a in table.attrs if a in query.groupby)
    return _grouped_sums(
        table,
        groupby,
        [table.key_columns[a][rows] for a in groupby],
        table.values_for(measure)[rows],
    )


@dataclass(frozen=True)
class Plan:
    """One way to answer a query pattern, as the planner returns it.

    ``kind`` is ``"prefix"`` (an index range: ``prefix`` is the usable
    key prefix), ``"scan"`` (a whole view table, with or without an
    index whose key has no usable prefix) or ``"raw"`` (the fact table;
    see :func:`repro.serve.batch.raw_plan`).  ``structure`` is the label
    telemetry records and ``predicted`` the rows the cost callable
    charges.
    """

    kind: str
    view: Optional[View]
    index: Optional[Index]
    prefix: tuple
    structure: str
    predicted: float

    def __str__(self) -> str:
        return f"{self.kind} {self.structure}: ~{self.predicted:g} rows"


def plan_candidates(
    query: SliceQuery,
    views: Iterable[View],
    indexes_on: Callable[[View], Iterable[Index]],
    cost: Callable[[SliceQuery, View, Optional[Index]], float],
) -> Iterator[Tuple[float, View, Optional[Index]]]:
    """Every ``(cost, view, index)`` that answers ``query``, in scan
    order: ``views`` in the order given, and for each view its scan
    (``index=None``), then ``indexes_on(view)`` in the order given.
    ``indexes_on`` is only called for views that answer."""
    needed = query.attrs  # answerable_by, hoisted out of the view loop
    for view in views:
        if needed <= view.attrs:
            yield cost(query, view, None), view, None
            for index in indexes_on(view):
                yield cost(query, view, index), view, index


_PRICE = itemgetter(0)


def _plan(schema, query, predicted, view, index) -> Plan:
    """One candidate's :class:`Plan` record; ``schema`` orders its label."""
    if index is None:
        return Plan("scan", view, None, (), view_label(schema, view), predicted)
    prefix = index.usable_prefix(query)
    return Plan(
        "prefix" if prefix else "scan", view, index, prefix,
        index_label(schema, index), predicted,
    )


def rank_plans(query, views, indexes_on, cost, schema) -> List[Plan]:
    """Every plan :func:`plan_candidates` yields, cheapest first.

    The sort is stable, so cost ties keep scan order and the head is
    :func:`cheapest_plan`'s pick.  ``schema`` orders the labels.
    """
    ranked = sorted(plan_candidates(query, views, indexes_on, cost), key=_PRICE)
    return [_plan(schema, query, *candidate) for candidate in ranked]


def cheapest_plan(query, views, indexes_on, cost, schema) -> Optional[Plan]:
    """The first cheapest plan in scan order (``min`` keeps the first
    minimum), or ``None`` when no view answers."""
    candidates = plan_candidates(query, views, indexes_on, cost)
    head = min(candidates, key=_PRICE, default=None)
    return None if head is None else _plan(schema, query, *head)


@dataclass
class QueryResult:
    """Result of executing one slice query."""

    query: SliceQuery
    view: View
    index: Optional[Index]
    rows_processed: int
    groups: Answer = field(default_factory=Answer)

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
        self._cost = (
            cost_model.cost if cost_model is not None else self._statistics_cost
        )
        #: ``(catalog version, prefix -> distinct count)``: a maintenance
        #: delta bumps the version and the memo starts over
        self._distinct: Tuple[int, Dict[tuple, int]] = (catalog.version, {})

    # ------------------------------------------------------------ planning

    def _statistics_cost(self, query: SliceQuery, view: View,
                         index: Optional[Index]) -> float:
        """``|C| / |E|`` from the catalog's actual row and distinct counts."""
        rows = self.catalog.view_table(view).n_rows
        prefix = index.usable_prefix(query) if index is not None else ()
        if not prefix:
            return float(rows)
        version, memo = self._distinct
        if version != self.catalog.version:
            version, memo = self._distinct = (self.catalog.version, {})
        distinct = memo.get(prefix)
        if distinct is None:
            distinct = memo[prefix] = self.catalog.fact.distinct_count(prefix)
        return max(1.0, rows / max(1, distinct))

    def explain(self, query: SliceQuery) -> List[Plan]:
        """Every plan answering the query, cheapest first (ties keep scan
        order); the head is :meth:`choose_plan`'s pick.  Empty when no
        materialized view answers."""
        catalog = self.catalog
        return rank_plans(
            query, catalog.views(), catalog.indexes_on, self._cost, catalog.fact.schema
        )

    def choose_plan(self, query: SliceQuery) -> Plan:
        """The cheapest plan among materialized structures.

        Raises ``LookupError`` if no materialized view can answer the
        query (the caller falls back to raw data).
        """
        catalog = self.catalog
        plan = cheapest_plan(
            query, catalog.views(), catalog.indexes_on, self._cost, catalog.fact.schema
        )
        if plan is None:
            raise LookupError(f"no materialized view answers {query}")
        return plan

    def resolve_plan(
        self,
        query: SliceQuery,
        selection_values: Mapping[str, int],
        plan: Optional[Tuple[View, Optional[Index]]] = None,
    ) -> Tuple[View, Optional[Index]]:
        """The ``(view, index)`` to execute: the forced ``plan``, or
        :meth:`choose_plan`'s pick.

        Raises ``ValueError`` when ``selection_values`` miss a selection
        attribute, or when the forced plan's view is not materialized or
        cannot answer, or its index is on another view or not built.
        """
        missing = query.selection - set(selection_values)
        if missing:
            raise ValueError(f"missing selection values for {sorted(missing)}")
        if plan is None:
            chosen = self.choose_plan(query)
            return chosen.view, chosen.index
        view, index = plan
        if not self.catalog.has_view(view):
            raise ValueError(f"plan view {view} is not materialized")
        if not query.answerable_by(view):
            raise ValueError(f"plan view {view} cannot answer {query}")
        if index is not None and index.view != view:
            raise ValueError(f"plan index {index} is not on view {view}")
        if index is not None and not self.catalog.has_index(index):
            raise ValueError(f"plan index {index} is not built")
        return view, index

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
        attribute of the query.  ``plan`` overrides plan choice with a
        ``(view, index)`` pair (useful for measuring a specific
        combination; :meth:`resolve_plan` checks it).  ``measure`` picks
        which measure column to aggregate (default: the view's primary
        measure).
        """
        view, index = self.resolve_plan(query, selection_values, plan)
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
