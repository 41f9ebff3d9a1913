"""Slice queries over a data cube (Section 3.2 of the paper).

A *slice query* ``γ_A σ_B`` asks for the measure grouped by the attributes
in ``A`` after selecting (fixing a constant for) each attribute in ``B``.
``A`` and ``B`` are disjoint.  A query with ``B = ∅`` asks for a whole
subcube and is a special case of a slice query.

Every slice query is *associated* with the smallest view able to answer it:
the view whose attribute set is exactly ``A ∪ B``.  An ``n``-dimensional
cube has ``3^n`` slice queries: each dimension is either a group-by
attribute, a selection attribute, or absent.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, Sequence

from repro.core.view import View, join_attrs


#: The one object of each ``(class, groupby, selection)``: equal queries
#: of one class are the same object, so every dict keyed by a query
#: finds it by identity and never calls ``__eq__``.  It holds at most
#: ``3^n`` queries per ``n``-dimension schema.
_INTERNED: Dict[tuple, "SliceQuery"] = {}


class SliceQuery:
    """A slice query ``γ_A σ_B`` with group-by set ``A``, selection set ``B``.

    Queries are interned: building an equal query of the same class again
    returns the first object (also from ``pickle``, ``copy`` and
    ``deepcopy``).  A subclass keeps its own instances.

    >>> q = SliceQuery(groupby=["c"], selection=["p", "s"])
    >>> str(q)
    'γ(c)σ(ps)'
    >>> q.view == View.of("c", "p", "s")
    True
    >>> q is SliceQuery(groupby=["c"], selection=["s", "p"])
    True
    """

    __slots__ = ("_groupby", "_selection", "_view", "_hash", "_label")

    def __new__(cls, groupby: Iterable[str] = (), selection: Iterable[str] = ()):
        groupby = frozenset(groupby)
        selection = frozenset(selection)
        key = (cls, groupby, selection)
        query = _INTERNED.get(key)
        if query is not None:
            return query
        overlap = groupby & selection
        if overlap:
            raise ValueError(
                f"group-by and selection attributes must be disjoint; "
                f"both contain {sorted(overlap)}"
            )
        query = super().__new__(cls)
        query._groupby = groupby
        query._selection = selection
        query._view = View(groupby | selection)
        query._hash = hash((groupby, selection))
        query._label = None
        # a thread that lost the race to publish gets the winner's object
        return _INTERNED.setdefault(key, query)

    def __reduce__(self):
        return (type(self), (self._groupby, self._selection))

    @property
    def groupby(self) -> frozenset:
        """The output (group-by) attributes ``A``."""
        return self._groupby

    @property
    def selection(self) -> frozenset:
        """The selection (where-clause) attributes ``B``."""
        return self._selection

    @property
    def attrs(self) -> frozenset:
        """All attributes mentioned by the query, ``A ∪ B``."""
        return self._view.attrs

    @property
    def view(self) -> View:
        """The smallest view that can answer this query (attrs = A ∪ B)."""
        return self._view

    @property
    def is_subcube_query(self) -> bool:
        """True when the query asks for an entire subcube (``B = ∅``)."""
        return not self._selection

    def answerable_by(self, view: View) -> bool:
        """The computability relation ``Q ≪ V``: true iff ``A ∪ B ⊆ attrs(V)``."""
        return self.attrs <= view.attrs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SliceQuery):
            return NotImplemented
        return (
            self._groupby == other._groupby and self._selection == other._selection
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        label = self._label
        if label is None:  # formatted on first use, so an unprinted query holds none
            groupby = join_attrs(sorted(self._groupby))
            label = f"γ({groupby})σ({join_attrs(sorted(self._selection))})"
            self._label = label
        return label

    def __repr__(self) -> str:
        return f"SliceQuery({str(self)})"


def enumerate_slice_queries(dimensions: Sequence[str]) -> Iterator[SliceQuery]:
    """Yield all ``3^n`` slice queries over the given dimensions.

    Each dimension independently is a group-by attribute, a selection
    attribute, or absent.  Queries are yielded grouped by their associated
    view (smallest first), with a deterministic order.

    >>> qs = list(enumerate_slice_queries(["p", "s"]))
    >>> len(qs)
    9
    """
    dims = tuple(dimensions)
    if len(set(dims)) != len(dims):
        raise ValueError(f"duplicate dimensions: {dims}")
    for r in range(len(dims) + 1):
        for attrs in combinations(dims, r):
            attr_set = frozenset(attrs)
            # every subset of attrs may be the selection part
            for k in range(len(attrs) + 1):
                for sel in combinations(attrs, k):
                    yield SliceQuery(groupby=attr_set - set(sel), selection=sel)


def count_slice_queries(n_dims: int) -> int:
    """Number of slice queries of an ``n``-dimensional cube: ``3^n``."""
    if n_dims < 0:
        raise ValueError("n_dims must be nonnegative")
    return 3**n_dims


def queries_for_view(view: View) -> Iterator[SliceQuery]:
    """Yield the ``2^r`` slice queries associated with an ``r``-dim view.

    These are the queries whose attribute set is exactly the view's
    attributes — any subset of which may appear in the selection part.
    """
    attrs = tuple(sorted(view.attrs))
    for k in range(len(attrs) + 1):
        for sel in combinations(attrs, k):
            yield SliceQuery(groupby=view.attrs - set(sel), selection=sel)
