"""The view lattice of a data cube (Section 3.4 of the paper).

The ``2^n`` subcubes of an ``n``-dimensional cube form a lattice under the
dependence relation: view ``A`` can be computed from view ``B`` iff
``attrs(A) ⊆ attrs(B)``.  A :class:`CubeLattice` bundles the schema, the
set of all views, and the number of rows (the *size*) of every view.

Sizes may be supplied exactly (as in the paper's Figure 1 TPC-D example),
or estimated with the analytical/sampling machinery in
:mod:`repro.estimation.sizes`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Mapping

from repro.core.view import View, join_attrs
from repro.cube.schema import CubeSchema


def view_label(schema: CubeSchema, view: View) -> str:
    """A view's label, attributes in schema order (``psc``, ``none``)."""
    return join_attrs(schema.sort_attrs(view.attrs)) if view.attrs else "none"


def index_label(schema: CubeSchema, index) -> str:
    """An index's label, e.g. ``I_sp(ps)``: key order, then its view."""
    return f"I_{join_attrs(index.key)}({view_label(schema, index.view)})"


class CubeLattice:
    """All ``2^n`` views of a cube, with a size (row count) for each.

    Parameters
    ----------
    schema:
        The cube schema (dimension names and cardinalities).
    sizes:
        Mapping from :class:`View` to its number of rows.  Must contain an
        entry for *every* view of the lattice.  The empty view always has
        size 1 (the grand-total row); if absent it is filled in.

    >>> from repro.cube.schema import CubeSchema, Dimension
    >>> schema = CubeSchema([Dimension("a", 10), Dimension("b", 20)])
    >>> sizes = {View.of("a", "b"): 150, View.of("a"): 10,
    ...          View.of("b"): 20, View.none(): 1}
    >>> lattice = CubeLattice(schema, sizes)
    >>> lattice.size(View.of("a"))
    10
    >>> len(list(lattice.views()))
    4
    """

    def __init__(self, schema: CubeSchema, sizes: Mapping[View, float]):
        self.schema = schema
        self._views = tuple(
            View(combo)
            for r in range(schema.n_dims + 1)
            for combo in combinations(schema.names, r)
        )
        sizes = dict(sizes)
        sizes.setdefault(View.none(), 1)
        missing = [v for v in self._views if v not in sizes]
        if missing:
            raise ValueError(
                f"sizes missing for {len(missing)} views, e.g. {missing[0]}"
            )
        for view, size in sizes.items():
            if size < 1:
                raise ValueError(f"view {view} has size {size} < 1")
        self._sizes = {v: sizes[v] for v in self._views}

    @classmethod
    def from_estimator(
        cls,
        schema: CubeSchema,
        estimator: Callable[[View], float],
    ) -> "CubeLattice":
        """Build a lattice, obtaining each view's size from ``estimator``."""
        views = (
            View(combo)
            for r in range(schema.n_dims + 1)
            for combo in combinations(schema.names, r)
        )
        return cls(schema, {v: estimator(v) for v in views})

    # ----------------------------------------------------------------- views

    @property
    def n_dims(self) -> int:
        return self.schema.n_dims

    @property
    def top(self) -> View:
        """The raw-data view, grouping by all dimensions."""
        return self._views[-1]

    @property
    def bottom(self) -> View:
        """The empty view ``none`` (one grand-total row)."""
        return self._views[0]

    def views(self) -> Iterator[View]:
        """All ``2^n`` views, in nondecreasing order of dimensionality."""
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, view: View) -> bool:
        return view in self._sizes

    def __iter__(self) -> Iterator[View]:
        return iter(self._views)

    # ----------------------------------------------------------------- sizes

    def size(self, view: View) -> float:
        """Number of rows in the materialized table for ``view``."""
        try:
            return self._sizes[view]
        except KeyError:
            raise KeyError(f"{view} is not a view of this lattice") from None

    def sizes(self) -> dict:
        """A copy of the full ``{view: rows}`` mapping."""
        return dict(self._sizes)

    def total_size(self) -> float:
        """Total rows if every view were materialized (no indexes)."""
        return sum(self._sizes.values())

    # ------------------------------------------------------------- structure

    def ancestors(self, view: View, strict: bool = False) -> list:
        """Views from which ``view`` can be computed (attrs ⊇ view.attrs).

        With ``strict=True``, ``view`` itself is excluded.
        """
        result = [v for v in self._views if v.attrs >= view.attrs]
        if strict:
            result = [v for v in result if v != view]
        return result

    def descendants(self, view: View, strict: bool = False) -> list:
        """Views computable from ``view`` (attrs ⊆ view.attrs)."""
        result = [v for v in self._views if v.attrs <= view.attrs]
        if strict:
            result = [v for v in result if v != view]
        return result

    def parents(self, view: View) -> list:
        """Immediate ancestors: views with exactly one extra attribute."""
        extra = set(self.schema.names) - view.attrs
        return [View(view.attrs | {a}) for a in sorted(extra)]

    def children(self, view: View) -> list:
        """Immediate descendants: views with exactly one attribute removed."""
        return [View(view.attrs - {a}) for a in sorted(view.attrs)]

    def level(self, r: int) -> list:
        """All views with exactly ``r`` group-by attributes."""
        if not 0 <= r <= self.n_dims:
            raise ValueError(f"level must be in [0, {self.n_dims}], got {r}")
        return [v for v in self._views if len(v) == r]

    def label(self, view: View) -> str:
        """Paper-style label with attributes in schema order (``psc``,
        ``part,customer``, ``none``)."""
        if view not in self._sizes:
            raise KeyError(f"{view} is not a view of this lattice")
        return view_label(self.schema, view)

    def index_label(self, index) -> str:
        """Paper-style index label, e.g. ``I_sp(ps)``."""
        return index_label(self.schema, index)

    def to_networkx(self):
        """Export the Hasse diagram as a ``networkx.DiGraph``.

        Edges point from each view to its children (the views it can
        compute with one fewer attribute).  Node attribute ``rows`` holds
        the view size.  Requires :mod:`networkx` (optional dependency).
        """
        import networkx as nx

        graph = nx.DiGraph()
        for view in self._views:
            graph.add_node(view, rows=self._sizes[view])
        for view in self._views:
            for child in self.children(view):
                graph.add_edge(view, child)
        return graph

    def __repr__(self) -> str:
        return (
            f"CubeLattice(n_dims={self.n_dims}, views={len(self._views)}, "
            f"top={self.top} [{self._sizes[self.top]:g} rows])"
        )
