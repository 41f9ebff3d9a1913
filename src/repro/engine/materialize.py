"""Materializing subcubes: the GROUP BY aggregation of Section 3.1.

``materialize_view`` computes, for a view ``G1,...,Gk``, the SQL

    SELECT G1, ..., Gk, SUM(measure) FROM fact GROUP BY G1, ..., Gk;

result as a :class:`~repro.engine.table.ViewTable`.  Views can also be
derived from an ancestor view instead of the raw data (the dependence
relation ``⪯``), which is how real ROLAP loaders exploit the lattice.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.view import View
from repro.engine.table import FactTable, ViewTable

_AGGREGATES = ("sum", "count", "min", "max")


def _group_keys(key_cols: Tuple[np.ndarray, ...]):
    """Group rows on the key columns.

    Returns ``(unique_cols, inverse, n_groups)`` — the distinct keys in
    lexicographic order and each row's group, as
    ``np.unique(np.stack(key_cols, axis=1), axis=0, return_inverse=True)``
    gives them, from one ``lexsort`` of the columns instead of a sort of
    rows as structured records.  For the empty key: the single
    grand-total group with ``inverse=None``.
    """
    if not key_cols:
        return (), None, 1
    order = np.lexsort(key_cols[::-1])
    sorted_cols = [column[order] for column in key_cols]
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in sorted_cols:
        starts[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    unique_cols = tuple(column[starts] for column in sorted_cols)
    return unique_cols, inverse, int(np.count_nonzero(starts))


def _aggregate(inverse, n_groups: int, values: np.ndarray, agg: str) -> np.ndarray:
    """Per-group aggregate of ``values`` for a grouping from ``_group_keys``."""
    if agg not in _AGGREGATES:
        raise ValueError(f"agg must be one of {_AGGREGATES}, got {agg!r}")
    if inverse is None:  # grand total
        if agg == "sum":
            total = values.sum()
        elif agg == "count":
            total = float(len(values))
        elif agg == "min":
            total = values.min() if len(values) else 0.0
        else:
            total = values.max() if len(values) else 0.0
        return np.array([total], dtype=np.float64)
    if agg == "sum":
        return np.bincount(inverse, weights=values, minlength=n_groups)
    if agg == "count":
        return np.bincount(inverse, minlength=n_groups).astype(np.float64)
    if agg == "min":
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, inverse, values)
        return out
    out = np.full(n_groups, -np.inf)
    np.maximum.at(out, inverse, values)
    return out


def materialize_view(
    fact: FactTable,
    view: View,
    agg: str = "sum",
) -> ViewTable:
    """Aggregate the raw fact table into the given view.

    Every measure of the fact table (primary and extras) is aggregated
    in the same grouping pass.  The result is sorted lexicographically
    by key (a by-product of the grouping), with key columns in schema
    order.
    """
    attrs = fact.schema.sort_attrs(view.attrs)
    key_cols = tuple(fact.column(a) for a in attrs)
    unique_cols, inverse, n_groups = _group_keys(key_cols)
    values = _aggregate(inverse, n_groups, fact.measures, agg)
    extra_values = {
        name: _aggregate(inverse, n_groups, column, agg)
        for name, column in fact.extra_measures.items()
    }
    key_columns = {a: col for a, col in zip(attrs, unique_cols)}
    table = ViewTable(
        view,
        attrs,
        key_columns,
        values,
        agg=agg,
        extra_values=extra_values,
        measure=fact.schema.measure,
    )
    table.key_tuples = fact.key_tuples
    return table


def rollup_view(
    parent: ViewTable,
    view: View,
    agg: str = "sum",
    schema=None,
) -> ViewTable:
    """Compute a view from an ancestor view (the lattice shortcut).

    Only additive aggregates roll up correctly (``sum``/``count``/``min``/
    ``max`` of sums behaves like the raw computation for ``sum``; ``count``
    here means "sum of child counts" and is handled as a sum).

    Raises ``ValueError`` unless ``view ⊆ parent.view``.
    """
    if not view.attrs <= parent.view.attrs:
        raise ValueError(f"{view} is not computable from {parent.view}")
    if agg == "count":
        agg = "sum"  # counts roll up additively
    order = schema.sort_attrs(view.attrs) if schema is not None else tuple(
        a for a in parent.attrs if a in view.attrs
    )
    key_cols = tuple(parent.key_columns[a] for a in order)
    unique_cols, inverse, n_groups = _group_keys(key_cols)
    values = _aggregate(inverse, n_groups, parent.values, agg)
    extra_values = {
        name: _aggregate(inverse, n_groups, column, agg)
        for name, column in parent.extra_values.items()
    }
    key_columns = {a: col for a, col in zip(order, unique_cols)}
    table = ViewTable(
        view,
        order,
        key_columns,
        values,
        agg=parent.agg,
        extra_values=extra_values,
        measure=parent.measure,
    )
    table.key_tuples = parent.key_tuples
    return table
