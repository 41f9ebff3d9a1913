"""Materializing subcubes: the GROUP BY aggregation of Section 3.1.

``materialize_view`` computes, for a view ``G1,...,Gk``, the SQL

    SELECT G1, ..., Gk, SUM(measure) FROM fact GROUP BY G1, ..., Gk;

result as a :class:`~repro.engine.table.ViewTable`.  Views can also be
derived from an ancestor view instead of the raw data (the dependence
relation ``⪯``), which is how real ROLAP loaders exploit the lattice.
"""

from __future__ import annotations

import numpy as np

from repro.core.view import View
from repro.engine.table import FactTable, Groups, ViewTable, group_rows


def _fold(groups: Groups, values: np.ndarray, agg: str) -> np.ndarray:
    """Each group's ``agg`` of ``values`` (:meth:`Groups.fold`), except
    the empty key's grand total, whose ``sum``, ``min`` and ``max`` stay
    ``ndarray`` reductions (0.0 over no rows), as tables have held it."""
    if groups.dims or agg not in ("sum", "min", "max"):
        return groups.fold(values, agg)
    return np.array([getattr(values, agg)() if len(values) else 0.0])


def _grouped_table(view, attrs, groups, values, extras, fold, **table) -> ViewTable:
    """The view ``attrs`` keyed by ``groups``' keys, with ``values`` and
    each column of ``extras`` folded by :func:`_fold` with ``fold``
    (``table`` holds the other :class:`ViewTable` arguments)."""
    return ViewTable(
        view,
        attrs,
        dict(zip(attrs, groups.keys)),
        _fold(groups, values, fold),
        extra_values={name: _fold(groups, col, fold) for name, col in extras.items()},
        **table,
    )


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
    groups = group_rows([fact.column(a) for a in attrs], [fact.radix[a] for a in attrs])
    return _grouped_table(
        view, attrs, groups, fact.measures, fact.extra_measures, agg,
        agg=agg, measure=fact.schema.measure,
    )


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
    groups = group_rows(
        [parent.key_columns[a] for a in order], [parent.radix[a] for a in order]
    )
    return _grouped_table(
        view, order, groups, parent.values, parent.extra_values, agg,
        agg=parent.agg, measure=parent.measure,
    )
