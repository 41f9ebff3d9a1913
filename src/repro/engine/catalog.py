"""The engine catalog: which views and indexes are materialized.

A :class:`Catalog` owns the physical structures — :class:`ViewTable`\\ s
and their :class:`SortedIndex`\\ es — and reports their sizes in rows,
matching the space accounting the selection algorithms use (index size =
view size, Section 4.2.2; an index holds one entry per view row, which
makes that literal here).

An index is the view's row ids sorted by (key attributes…, row id): the
leaf-entry order of a B-tree on the search key.  The rows matching a
key prefix are one contiguous range of that order, found by binary
search, so an index plan processes exactly the range's rows — the
paper's ``|C|/|E|`` charge (Section 4.1).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence

import numpy as np

from repro.core.index import Index
from repro.core.view import View
from repro.engine.table import FactTable, ViewTable
from repro.engine.materialize import materialize_view


class SortedIndex:
    """A view's row ids in (key attributes…, row id) order.

    ``rows`` is the permutation; ``keys`` holds the key columns gathered
    in that order, one per search-key attribute.

    >>> index = SortedIndex([np.array([2, 0, 2, 1]), np.array([1, 5, 0, 5])])
    >>> index.rows.tolist()
    [1, 3, 2, 0]
    >>> index.prefix_rows((2,)).tolist()
    [2, 0]
    >>> index.prefix_rows((2, 1)).tolist(), index.prefix_rows((4,)).tolist()
    ([0], [])
    """

    __slots__ = ("rows", "keys")

    def __init__(self, key_columns: Sequence[np.ndarray]):
        # lexsort's last key is its primary one, and it is stable: rows
        # with equal keys keep ascending row ids
        self.rows = np.lexsort(tuple(key_columns)[::-1])
        self.keys = tuple(column[self.rows] for column in key_columns)

    def __len__(self) -> int:
        return len(self.rows)

    def prefix_rows(self, values: Sequence[int]) -> np.ndarray:
        """Row ids whose leading key values equal ``values``, in index order.

        The range narrows one key attribute at a time, with two binary
        searches in that attribute's column over the range so far.
        """
        lo, hi = 0, len(self.rows)
        for column, value in zip(self.keys, values):
            segment = column[lo:hi]
            lo, hi = (
                lo + int(segment.searchsorted(value, "left")),
                lo + int(segment.searchsorted(value, "right")),
            )
        return self.rows[lo:hi]


class Catalog:
    """Materialized views and indexes, with row-count space accounting."""

    def __init__(self, fact: FactTable):
        self.fact = fact
        self._views: Dict[View, ViewTable] = {}
        self._indexes: Dict[Index, SortedIndex] = {}
        #: Bumped by every maintenance delta (see
        #: :func:`repro.engine.maintenance.apply_delta`); the serving
        #: result cache tags entries with it so refreshed data is never
        #: served from a stale cached answer.
        self.version = 0

    # ----------------------------------------------------------------- add

    def materialize(self, view: View, agg: str = "sum") -> ViewTable:
        """Materialize a view from the raw data (idempotent)."""
        if view in self._views:
            return self._views[view]
        table = materialize_view(self.fact, view, agg)
        self._views[view] = table
        return table

    def add_view(self, table: ViewTable) -> None:
        """Register an externally computed view table."""
        self._views[table.view] = table

    def build_index(self, index: Index) -> SortedIndex:
        """Sort the index's view by its search key (the view must be
        materialized)."""
        if index in self._indexes:
            return self._indexes[index]
        table = self._views.get(index.view)
        if table is None:
            raise ValueError(
                f"cannot index {index}: view {index.view} is not materialized"
            )
        built = SortedIndex([table.key_columns[a] for a in index.key])
        self._indexes[index] = built
        return built

    # -------------------------------------------------------------- lookup

    def has_view(self, view: View) -> bool:
        return view in self._views

    def has_index(self, index: Index) -> bool:
        return index in self._indexes

    def view_table(self, view: View) -> ViewTable:
        return self._views[view]

    def drop_index(self, index: Index) -> None:
        """Forget a built index (e.g. before a rebuild)."""
        self._indexes.pop(index, None)

    def sorted_index(self, index: Index) -> SortedIndex:
        return self._indexes[index]

    def _publish(
        self,
        fact: FactTable,
        views: Mapping[View, ViewTable],
        indexes: Mapping[Index, SortedIndex],
    ) -> None:
        """Swap in a refreshed fact table, view tables and sorted indexes
        and bump the version: the commit point of
        :func:`repro.engine.maintenance.apply_delta`, which stages them.
        ``views`` and ``indexes`` replace the structures of the same keys,
        which keep their order."""
        self.fact = fact
        self._views.update(views)
        self._indexes.update(indexes)
        self.version += 1

    def views(self) -> Iterator[View]:
        return iter(self._views)

    def indexes(self) -> Iterator[Index]:
        return iter(self._indexes)

    def indexes_on(self, view: View) -> list:
        return [idx for idx in self._indexes if idx.view == view]

    # ---------------------------------------------------------------- size

    def view_rows(self, view: View) -> int:
        return self._views[view].n_rows

    def index_rows(self, index: Index) -> int:
        """Entries of the index — equals the view's rows, the paper's
        index-size model made physical."""
        return len(self._indexes[index])

    def total_rows(self) -> int:
        """Total space used, in rows (views + index entries)."""
        views = sum(t.n_rows for t in self._views.values())
        indexes = sum(len(t) for t in self._indexes.values())
        return views + indexes

    def stats(self) -> Dict[str, int]:
        """Structure and row counts, for serving telemetry headers."""
        return {
            "views": len(self._views),
            "indexes": len(self._indexes),
            "rows": self.total_rows(),
            "fact_rows": self.fact.n_rows,
        }

    def __repr__(self) -> str:
        return (
            f"Catalog(views={len(self._views)}, indexes={len(self._indexes)}, "
            f"rows={self.total_rows()})"
        )
