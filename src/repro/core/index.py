"""B-tree indexes on materialized views (Section 3.3 of the paper).

An index ``I_D(V)`` on view ``V`` has a search key ``D`` — an *ordered*
sequence of distinct attributes of ``V``.  The order matters: the index can
help answer a slice query exactly when some prefix of ``D`` consists of the
query's selection attributes.

Under the paper's size model (Section 4.2.2) every index on ``V`` occupies
the same space as ``V`` itself, so an index whose key is a proper prefix of
another index's key is *dominated* (never better, same cost in space) and
can be pruned.  The survivors are the **fat indexes**: the ``m!``
permutations of all ``m`` attributes of the view.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Collection, Iterable, Iterator, Sequence, Union

from repro.core.query import SliceQuery
from repro.core.view import View, join_attrs, label_attrs, parse_view


class Index:
    """An index ``I_D(V)``: search key ``key`` over view ``view``.

    >>> ps = View.of("p", "s")
    >>> idx = Index(ps, ("s", "p"))
    >>> str(idx)
    'I_sp(ps)'
    >>> idx.is_fat
    True
    """

    __slots__ = ("_view", "_key", "_hash")

    def __init__(self, view: View, key: Sequence[str]):
        key = tuple(key)
        if not key:
            raise ValueError("index key must be non-empty")
        if len(set(key)) != len(key):
            raise ValueError(f"index key has duplicate attributes: {key}")
        extraneous = set(key) - view.attrs
        if extraneous:
            raise ValueError(
                f"index key attributes {sorted(extraneous)} are not in view {view}"
            )
        self._view = view
        self._key = key
        self._hash = hash((view, key))

    @property
    def view(self) -> View:
        """The view the index is built on."""
        return self._view

    @property
    def key(self) -> tuple:
        """The ordered search-key attributes ``D``."""
        return self._key

    @property
    def is_fat(self) -> bool:
        """True when the key uses *all* attributes of the view."""
        return len(self._key) == len(self._view)

    def usable_prefix(self, query: SliceQuery) -> tuple:
        """Longest prefix of the key made only of the query's selection attrs.

        This is the set ``E`` of the paper's cost formula (Section 4.1.1):
        the index lets us touch only the rows matching the fixed values of
        these attributes.  Returns the empty tuple when the index is
        useless for the query.
        """
        prefix = []
        for attr in self._key:
            if attr in query.selection:
                prefix.append(attr)
            else:
                break
        return tuple(prefix)

    def helps(self, query: SliceQuery) -> bool:
        """True iff the index reduces the rows processed for ``query``.

        Requires the query to be answerable by the underlying view and at
        least one key attribute to be a usable prefix.
        """
        return query.answerable_by(self._view) and bool(self.usable_prefix(query))

    def is_prefix_of(self, other: "Index") -> bool:
        """True iff this index's key is a (non-strict) prefix of ``other``'s
        key, on the same view."""
        if self._view != other._view or len(self._key) > len(other._key):
            return False
        return other._key[: len(self._key)] == self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return self._view == other._view and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"I_{join_attrs(self._key)}({self._view})"

    def __repr__(self) -> str:
        return f"Index({str(self)})"


def parse_structure(label: str, schema_names: Collection[str]) -> Union[View, Index]:
    """Parse a structure label against the cube's attribute names: the
    inverse of :meth:`~repro.core.lattice.CubeLattice.label` and
    :meth:`~repro.core.lattice.CubeLattice.index_label`.

    ``I_<key>(<view>)`` is an index and anything else a view, the key
    and the view each read by :func:`~repro.core.view.label_attrs`:
    ``"ps"``, ``"part,customer"`` and ``"none"`` are views,
    ``"I_sp(ps)"`` and ``"I_week(store,week)"`` indexes.  Raises
    ``ValueError`` on a malformed label or an attribute outside
    ``schema_names``.

    >>> idx = parse_structure("I_sp(ps)", "psc")
    >>> (str(idx.view), idx.key)
    ('ps', ('s', 'p'))
    """
    text = label.strip()
    if not text.startswith("I_"):
        return parse_view(text, schema_names)
    key_text, paren, view_text = text[2:].partition("(")
    if not (paren and view_text.endswith(")") and key_text.strip()):
        raise ValueError(f"malformed index label {label!r}")
    view = parse_view(view_text[:-1], schema_names)
    try:
        return Index(view, label_attrs(key_text, schema_names))
    except ValueError as exc:
        raise ValueError(f"malformed index label {label!r}: {exc}") from exc


def enumerate_fat_indexes(view: View) -> Iterator[Index]:
    """Yield the ``m!`` fat indexes of an ``m``-attribute view.

    The empty view has no indexes.  Permutations are yielded in
    lexicographic order of the sorted attribute tuple, so the output is
    deterministic.
    """
    attrs = tuple(sorted(view.attrs))
    if not attrs:
        return
    for perm in permutations(attrs):
        yield Index(view, perm)


def enumerate_all_indexes(view: View) -> Iterator[Index]:
    """Yield every index on ``view``: all orderings of all non-empty subsets.

    An ``m``-attribute view has ``sum_{r=1..m} C(m, r) * r!`` such indexes
    (→ ``(e−1)·m!`` for large ``m``).  Provided for the pruning ablation;
    algorithms normally use only :func:`enumerate_fat_indexes`.
    """
    attrs = tuple(sorted(view.attrs))
    for r in range(1, len(attrs) + 1):
        for perm in permutations(attrs, r):
            yield Index(view, perm)


def prune_prefix_dominated(indexes: Iterable[Index]) -> list:
    """Drop every index whose key is a proper prefix of another's key.

    Under the paper's size model (all indexes on a view cost the same
    space) a prefix-dominated index is never preferable — the longer index
    answers every query at most as expensively.  Applied to the full index
    universe of a view this leaves exactly the fat indexes; applied to an
    arbitrary candidate list it leaves the maximal-key representatives.
    """
    indexes = list(indexes)
    kept = []
    for idx in indexes:
        dominated = any(
            idx is not other and idx.is_prefix_of(other) and idx != other
            for other in indexes
        )
        if not dominated and idx not in kept:
            kept.append(idx)
    return kept


def count_fat_indexes(n_dims: int) -> int:
    """Total fat indexes of an ``n``-dimensional cube.

    Each ``r``-attribute view contributes ``r!`` fat indexes, so the total
    is ``sum_{r=1..n} C(n, r) * r! = n! * sum_{j=0..n-1} 1/j!`` which
    approaches ``e·n!`` — the paper's "about 2·n!" (Section 3.5).
    """
    if n_dims < 0:
        raise ValueError("n_dims must be nonnegative")
    return sum(math.comb(n_dims, r) * math.factorial(r) for r in range(1, n_dims + 1))


def count_all_indexes(n_dims: int) -> int:
    """Total indexes (all orderings of all subsets of all views).

    ``sum over views V of sum_{r=1..|V|} C(|V|, r) * r!`` — the paper's
    "about 3·n!" (Section 3.5).
    """
    if n_dims < 0:
        raise ValueError("n_dims must be nonnegative")
    total = 0
    for m in range(0, n_dims + 1):
        per_view = sum(math.comb(m, r) * math.factorial(r) for r in range(1, m + 1))
        total += math.comb(n_dims, m) * per_view
    return total
