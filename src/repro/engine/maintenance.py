"""Incremental maintenance of materialized views and indexes (extension).

The paper selects structures for query performance; a deployed ROLAP
system must also keep them fresh as fact rows arrive ("load time" is the
space budget's twin in Example 2.1).  This module implements delta-based
refresh for the engine:

* :func:`apply_delta` — append a batch of fact rows and propagate it to
  every materialized view (aggregate the delta by key code and merge its
  groups into the sorted view table) and index (kept when its view
  gained no group, so its row ids and keys are unchanged; rebuilt
  otherwise).  The refresh is staged and published at once.  Returns a
  :class:`RefreshReport` of rows touched, so the maintenance cost is
  measurable in the same unit as query cost.
* :func:`estimate_refresh_cost` — the analytical counterpart: the rows a
  refresh of a selection touches, usable as a maintenance-cost model when
  weighing selections (cf. the view-selection-with-maintenance framework
  of [G97], which the paper cites).

Only ``sum``/``count`` aggregates are self-maintainable under inserts;
``min``/``max`` tables raise (they may need recomputation on deletes and
we keep the honest restriction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.materialize import _fold, _grouped_table, materialize_view
from repro.engine.table import FactTable, ViewTable, group_rows, key_codes

_MERGEABLE = ("sum", "count")


@dataclass
class RefreshReport:
    """Rows touched while refreshing a catalog after a delta batch.

    ``view_rows_scanned`` counts, per view, its rows before the delta
    plus the delta's groups in it.  ``indexes_rebuilt`` and
    ``index_entries_rebuilt`` count only the indexes whose view gained a
    group; the others are kept as they are.
    """

    delta_rows: int
    view_rows_scanned: int = 0
    index_entries_rebuilt: int = 0
    views_refreshed: Tuple[str, ...] = ()
    indexes_rebuilt: Tuple[str, ...] = ()

    @property
    def total_rows_touched(self) -> int:
        """Aggregate maintenance cost, in the paper's unit (rows)."""
        return (
            self.delta_rows * max(1, len(self.views_refreshed))
            + self.view_rows_scanned
            + self.index_entries_rebuilt
        )


def _merge_rows(
    base: ViewTable,
    keys: Mapping[str, np.ndarray],
    radix: Mapping[str, int],
    columns: Sequence[np.ndarray],
    agg: str,
) -> Optional[Tuple[ViewTable, int]]:
    """Merge delta rows into the sorted ``base`` by key code.

    ``keys`` holds the delta's key columns (with radices ``radix``) and
    ``columns`` one measure column per measure of ``base``, primary
    first.  Rows group on their codes and ``agg`` (``"sum"`` or
    ``"count"``) folds each group with the aggregation
    :func:`materialize_view` uses.  A group already in ``base`` adds to
    its row and a new one is inserted in key order, so every merged value
    is ``0.0 + base + delta``, the order in which re-grouping the
    concatenated rows sums them.  With no new group the merged table
    keeps ``base``'s row numbering and shares its key columns.

    Returns the merged table and the delta's group count, or ``None``
    for keys whose codes overflow ``intp``.
    """
    dims = tuple(max(base.radix[a], radix[a]) for a in base.attrs)
    groups = group_rows([keys[a] for a in base.attrs], dims)
    if groups.codes is None:
        return None
    if base.attrs:
        base_codes = key_codes([base.key_columns[a] for a in base.attrs], dims)
    else:  # the empty key's one code
        base_codes = np.zeros(base.n_rows, dtype=np.intp)
    sums = [_fold(groups, column, agg) for column in columns]

    pos = np.searchsorted(base_codes, groups.codes)
    found = pos < len(base_codes)
    found[found] = base_codes[pos[found]] == groups.codes[found]
    merged = [column + 0.0 for column in (base.values, *base.extra_values.values())]
    for column, added in zip(merged, sums):
        column[pos[found]] += added[found]
    key_columns = {
        a: base.key_columns[a].astype(
            np.result_type(base.key_columns[a], keys[a]), copy=False
        )
        for a in base.attrs
    }
    new = ~found
    if new.any():
        # each new group goes before the base row at its search position
        at = pos[new]
        key_columns = {
            a: np.insert(column, at, key[new])
            for (a, column), key in zip(key_columns.items(), groups.keys)
        }
        merged = [
            np.insert(column, at, added[new]) for column, added in zip(merged, sums)
        ]
    table = ViewTable(
        base.view,
        base.attrs,
        key_columns,
        merged[0],
        agg=base.agg,
        extra_values=dict(zip(base.extra_values, merged[1:])),
        measure=base.measure,
    )
    return table, groups.n_groups


def _regroup(base: ViewTable, delta: ViewTable) -> ViewTable:
    """Merge by re-grouping the concatenated rows of both tables: the
    path for keys whose codes overflow ``intp``."""
    key_cols = [
        np.concatenate([base.key_columns[a], delta.key_columns[a]])
        for a in base.attrs
    ]
    dims = [max(base.radix[a], delta.radix[a]) for a in base.attrs]
    groups = group_rows(key_cols, dims)
    # groups from both sides combine by summation for both sum- and
    # count-aggregated tables (counts of a union add up)
    return _grouped_table(
        base.view,
        base.attrs,
        groups,
        np.concatenate([base.values, delta.values]),
        {
            name: np.concatenate([column, delta.extra_values[name]])
            for name, column in base.extra_values.items()
        },
        "sum",
        agg=base.agg,
        measure=base.measure,
    )


def merge_view_tables(base: ViewTable, delta: ViewTable) -> ViewTable:
    """Merge two view tables over the same view by summing measures.

    Both tables must be keyed on the same attributes and aggregate the
    same measure with the same ``sum`` or ``count``; the result is
    sorted and answers with ``base``'s key tuples.
    """
    if base.view != delta.view or base.attrs != delta.attrs:
        raise ValueError(
            f"cannot merge {delta.view} ({delta.attrs}) into "
            f"{base.view} ({base.attrs})"
        )
    if base.agg != delta.agg or base.agg not in _MERGEABLE:
        raise ValueError(
            f"cannot merge a {delta.agg!r} table into a {base.agg!r} table: "
            f"both must use the same aggregate, one of {_MERGEABLE}"
        )
    if base.measure != delta.measure:
        raise ValueError(
            f"cannot merge measure {delta.measure!r} into {base.measure!r}"
        )
    if set(base.extra_values) != set(delta.extra_values):
        raise ValueError(
            f"measure sets differ: {sorted(base.extra_values)} vs "
            f"{sorted(delta.extra_values)}"
        )
    columns = [delta.values, *(delta.extra_values[name] for name in base.extra_values)]
    merged = _merge_rows(base, delta.key_columns, delta.radix, columns, "sum")
    return merged[0] if merged is not None else _regroup(base, delta)


def apply_delta(
    catalog: Catalog,
    delta_columns: Mapping[str, np.ndarray],
    delta_measures: np.ndarray,
    delta_extra_measures: Mapping[str, np.ndarray] = None,
) -> RefreshReport:
    """Append fact rows and refresh every materialized view and index.

    The delta is validated against the catalog's schema (same checks as
    :class:`FactTable`) and must carry the same measure set as the
    existing facts.  Each view merges the delta's groups in by key code;
    an index whose view gained no group keeps its sorted index, and the
    others are rebuilt from the merged tables.  The extended fact table,
    the views and the indexes are staged and published together with the
    version bump, so a refresh that fails part-way changes nothing.
    """
    schema = catalog.fact.schema
    delta = FactTable(
        schema, delta_columns, delta_measures, extra_measures=delta_extra_measures
    )
    if set(delta.extra_measures) != set(catalog.fact.extra_measures):
        raise ValueError(
            f"delta measures {sorted(delta.measure_names)} do not match the "
            f"catalog's {sorted(catalog.fact.measure_names)}"
        )
    bases = {view: catalog.view_table(view) for view in catalog.views()}
    for view, base in bases.items():
        if base.agg not in _MERGEABLE:
            raise ValueError(
                f"view {view} uses aggregate {base.agg!r}, which is not "
                "self-maintainable under inserts"
            )
        if set(base.extra_values) != set(delta.extra_measures):
            raise ValueError(
                f"view {view} measures {sorted(base.extra_values)} do not "
                f"match the delta's {sorted(delta.extra_measures)}"
            )

    # 1. stage the extended fact table
    merged_columns = {
        name: np.concatenate([catalog.fact.column(name), delta.column(name)])
        for name in schema.names
    }
    merged_measures = np.concatenate([catalog.fact.measures, delta.measures])
    merged_extras = {
        name: np.concatenate([catalog.fact.extra_measures[name], column])
        for name, column in delta.extra_measures.items()
    }
    fact = FactTable(
        schema, merged_columns, merged_measures, extra_measures=merged_extras
    )
    staged = Catalog(fact)
    report = RefreshReport(
        delta_rows=delta.n_rows, views_refreshed=tuple(str(view) for view in bases)
    )

    # 2. merge the delta into each view
    views = {}
    for view, base in bases.items():
        columns = [
            delta.measures,
            *(delta.extra_measures[name] for name in base.extra_values),
        ]
        merged = _merge_rows(base, delta.columns, delta.radix, columns, base.agg)
        if merged is None:
            delta_table = materialize_view(delta, view, base.agg)
            merged = _regroup(base, delta_table), delta_table.n_rows
        table, groups = merged
        views[view] = table
        staged.add_view(table)
        report.view_rows_scanned += base.n_rows + groups

    # 3. an index whose view gained no group keeps its row ids and keys;
    # the others are rebuilt.  Catalog order is kept: the planner breaks
    # cost ties by it.
    indexes = {}
    rebuilt = []
    for index in catalog.indexes():
        if views[index.view].n_rows == bases[index.view].n_rows:
            indexes[index] = catalog.sorted_index(index)
        else:
            indexes[index] = staged.build_index(index)
            report.index_entries_rebuilt += len(indexes[index])
            rebuilt.append(str(index))
    report.indexes_rebuilt = tuple(rebuilt)

    # 4. publish the refresh and bump the version: consumers holding
    # cached answers (the serving result cache tags entries with it)
    # must observe that the catalog's contents changed
    catalog._publish(fact, views, indexes)
    return report


def estimate_refresh_cost(
    view_rows: Mapping[str, float],
    selection: Mapping[str, bool],
    delta_rows: float,
) -> float:
    """Analytical refresh cost of a selection, in rows.

    ``view_rows`` maps structure name → rows of the owning view;
    ``selection`` maps structure name → is_index.  Each view refresh
    scans the delta plus the view; each index rebuild touches the view's
    rows once.  This is an upper bound on what :func:`apply_delta` does:
    an index whose view gained no group is kept.
    """
    if delta_rows < 0:
        raise ValueError("delta_rows must be >= 0")
    cost = 0.0
    for name, is_index in selection.items():
        rows = view_rows[name]
        if is_index:
            cost += rows
        else:
            cost += delta_rows + rows
    return cost
