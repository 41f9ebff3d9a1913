"""Column-oriented tables for the mini-ROLAP engine.

Two table kinds:

* :class:`FactTable` — the raw data: one integer column per dimension plus
  a float measure column.
* :class:`ViewTable` — a materialized subcube: distinct attribute
  combinations with the aggregated measure, sorted by key.

Both are numpy-backed and deliberately simple; the engine exists to count
rows processed, not to win benchmarks.  Every GROUP BY of the engine goes
through one kernel, :func:`group_rows`, and every query is answered with
an :class:`Answer`: the groups' key columns and sums as arrays, read as
a mapping from key tuple to sum.
"""

from __future__ import annotations

import math
from collections import abc
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.view import View
from repro.cube.schema import CubeSchema


def _radix(columns: Mapping[str, np.ndarray]) -> Dict[str, int]:
    """Each key column's max + 1 (0 when empty): the radix that codes
    its attribute in this table."""
    return {
        name: int(column.max()) + 1 if len(column) else 0
        for name, column in columns.items()
    }


def key_codes(
    columns: Sequence[np.ndarray], dims: Sequence[int]
) -> Optional[np.ndarray]:
    """Each row's mixed-radix code of the key ``columns`` in radices
    ``dims`` (one per column, above its max), so ascending codes are
    lexicographic key order.  ``None`` when the codes would overflow
    ``intp`` or a key is negative: such keys are grouped by sorting rows.
    """
    try:
        return np.ravel_multi_index(tuple(columns), tuple(dims))
    except ValueError:
        return None


#: :func:`group_rows` counts codes (``np.bincount``, one slot per code of
#: the key space) while the space is at most ``COUNTED_SPACE`` or
#: ``COUNTED_SPACE_PER_ROW`` times the rows grouped, and sorts them
#: (``np.unique``) above.  On a 2-vCPU Xeon VM counting won up to 4,096
#: slots at 100-1,000 rows and 4.4 per row at 3,000-30,000, sorting from
#: 8,192 slots and 6.6 per row; at 1-10 rows the two tie at 4,096.
COUNTED_SPACE = 4096
COUNTED_SPACE_PER_ROW = 4

#: The aggregates :meth:`Groups.fold` computes: the ones a view may store.
AGGREGATES = ("sum", "count", "min", "max")


class Groups:
    """Rows grouped on their key (:func:`group_rows`), in key order:
    ``dims`` are the key's radices, ``codes`` the groups' ascending codes
    (``None`` for keys that could not be coded) and ``n_groups`` their
    number; :attr:`keys` and :meth:`fold` give their keys and values.
    """

    __slots__ = ("dims", "codes", "n_groups", "_labels", "_size", "_pick",
                 "_columns", "_keys")

    def __init__(self, dims, codes, labels, size, pick=None, columns=(), keys=None):
        self.dims = dims
        self.codes = codes
        # each row's slot in a fold (None: every row in slot 0), the
        # fold's slot count and the slots that hold groups (None: all)
        self._labels, self._size, self._pick = labels, size, pick
        self.n_groups = size if pick is None else len(pick)
        self._columns, self._keys = columns, keys

    @property
    def keys(self) -> Tuple[np.ndarray, ...]:
        """The groups' key columns, C-contiguous and of the grouped
        columns' dtypes; decoded from the codes on first use."""
        if self._keys is None:
            decoded = (
                (self.codes,) if len(self.dims) == 1
                else np.unravel_index(self.codes, self.dims)
            )
            # astype copies: unravel_index's columns are strided views
            self._keys = tuple(
                key.astype(column.dtype) for key, column in zip(decoded, self._columns)
            )
        return self._keys

    def fold(self, values: np.ndarray, agg: str = "sum") -> np.ndarray:
        """Each group's ``agg`` (one of :data:`AGGREGATES`) of
        ``values``, one per row, folded in row order."""
        labels = self._labels
        if labels is None:
            labels = np.zeros(len(values), dtype=np.intp)
        if agg == "sum":
            out = np.bincount(labels, weights=values, minlength=self._size)
        elif agg == "count":
            out = np.bincount(labels, minlength=self._size).astype(np.float64)
        elif agg in ("min", "max"):
            out = np.full(self._size, np.inf if agg == "min" else -np.inf)
            (np.minimum if agg == "min" else np.maximum).at(out, labels, values)
        else:
            raise ValueError(f"agg must be one of {AGGREGATES}, got {agg!r}")
        return out if self._pick is None else out[self._pick]


def group_rows(columns: Sequence[np.ndarray], dims: Sequence[int]) -> Groups:
    """Group rows on the key ``columns`` (none: the empty key, whose one
    group, code 0, holds every row) with radices ``dims``.

    Rows group on their mixed-radix codes, counted or sorted as
    ``COUNTED_SPACE`` says; a lone column is its own code.  Keys whose
    codes overflow ``intp``, or negative keys, are grouped by a
    ``lexsort`` of the columns.
    """
    dims = tuple(dims)
    if not columns:
        return Groups(dims, np.zeros(1, dtype=np.intp), None, 1, keys=())
    lone, space = len(columns) == 1, math.prod(dims)
    try:
        codes = columns[0] if lone else np.ravel_multi_index(tuple(columns), dims)
        if space <= COUNTED_SPACE or space <= COUNTED_SPACE_PER_ROW * len(codes):
            # raises on a lone column's negative keys
            found = np.bincount(codes, minlength=space).nonzero()[0]
            return Groups(dims, found, codes, space, found, columns)
    except ValueError:  # the codes overflow intp, or a key is negative
        return _lexsorted(dims, columns)
    found, inverse = np.unique(codes, return_inverse=True)
    return Groups(dims, found, inverse, len(found), columns=columns)


def _lexsorted(dims, columns) -> Groups:
    """:func:`group_rows` of keys that cannot be coded: one ``lexsort``
    of the columns."""
    order = np.lexsort(columns[::-1])
    sorted_cols = [column[order] for column in columns]
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in sorted_cols:
        starts[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    keys = tuple(column[starts] for column in sorted_cols)
    return Groups(dims, None, inverse, int(np.count_nonzero(starts)), keys=keys)


def distinct_keys(columns: Sequence[np.ndarray], dims: Sequence[int]) -> int:
    """Number of distinct rows of the key ``columns`` with radices
    ``dims``, counted by :func:`group_rows`."""
    return group_rows(columns, dims).n_groups


def _key_column(name: str, values, card: int) -> np.ndarray:
    """A dimension column as int64, refusing keys that the cast would
    change (a non-1-D column, or non-integral or non-finite values) and
    keys outside ``[0, card)``."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError(f"column {name!r} must be 1-D, got shape {column.shape}")
    if column.dtype.kind not in "biu":
        as_float = column.astype(np.float64)
        if not (np.isfinite(as_float).all() and (as_float == np.trunc(as_float)).all()):
            raise ValueError(f"column {name!r} holds non-integral or non-finite keys")
    column = column.astype(np.int64, copy=False)
    if column.size and (column.min() < 0 or column.max() >= card):
        raise ValueError(f"column {name!r} has values outside [0, {card})")
    return column


class Answer(abc.Mapping):
    """A query's answer: one integer key column per group-by attribute
    (``columns``, in the table's attribute order) and float64 ``sums``,
    one row per group, rows in ascending key order.

    It reads as the ``Mapping[tuple, float]`` a per-row
    ``groups[key] += value`` loop builds, item for item and in order
    (the ungrouped answer's one key is ``()``); a lookup is a binary
    search of the columns.  Answers are immutable and reading one stores
    nothing in it.  Answers compare by their arrays, and with any other
    mapping as dicts.
    """

    __slots__ = ("columns", "sums")

    def __init__(self, columns: Sequence[np.ndarray] = (), sums=()):
        columns = tuple(map(np.asarray, columns))
        sums = np.asarray(sums, dtype=np.float64)
        for array in (*columns, sums):
            array.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "sums", sums)

    def __setattr__(self, name, value):
        raise AttributeError("an Answer is read-only")

    def __len__(self) -> int:
        return len(self.sums)

    def __iter__(self) -> Iterator[tuple]:
        if not self.columns:
            return iter([()] * len(self.sums))
        return zip(*(column.tolist() for column in self.columns))

    def __getitem__(self, key) -> float:
        if not isinstance(key, tuple) or len(key) != len(self.columns):
            raise KeyError(key)
        lo, hi = 0, len(self.sums)
        try:
            for column, value in zip(self.columns, key):
                part = column[lo:hi]
                hi = lo + part.searchsorted(value, "right")
                lo += part.searchsorted(value)
        except TypeError:  # a value that does not compare with ints
            raise KeyError(key) from None
        if lo == hi:
            raise KeyError(key)
        return float(self.sums[lo])

    def items(self) -> List[Tuple[tuple, float]]:  # one pass, no lookups
        return list(zip(self, self.sums.tolist()))

    def values(self) -> List[float]:
        return self.sums.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Answer):
            return super().__eq__(other)
        return len(self) == len(other) and (
            not len(self)
            or len(self.columns) == len(other.columns)
            and all(map(np.array_equal, (*self.columns, self.sums),
                        (*other.columns, other.sums)))
        )

    def __repr__(self) -> str:
        return f"Answer({dict(self.items())!r})"


class FactTable:
    """The raw fact table: dimension columns plus measure column(s).

    ``measures`` is the schema's primary measure; ``extra_measures``
    optionally adds further named measure columns (e.g. ``quantity``
    next to ``sales``) that materialized views aggregate alongside the
    primary one.
    """

    def __init__(
        self,
        schema: CubeSchema,
        columns: Mapping[str, np.ndarray],
        measures: np.ndarray,
        extra_measures: Optional[Mapping[str, np.ndarray]] = None,
    ):
        self.schema = schema
        missing = set(schema.names) - set(columns)
        if missing:
            raise ValueError(f"missing dimension columns: {sorted(missing)}")
        extra_measures = dict(extra_measures or {})
        collisions = set(extra_measures) & (set(schema.names) | {schema.measure})
        if collisions:
            raise ValueError(
                f"extra measures collide with schema names: {sorted(collisions)}"
            )
        self.columns: Dict[str, np.ndarray] = {
            name: _key_column(name, columns[name], schema.cardinality(name))
            for name in schema.names
        }
        lengths = {name: len(column) for name, column in self.columns.items()}
        lengths[schema.measure] = len(measures)
        for name, values in extra_measures.items():
            lengths[name] = len(values)
        if len(set(lengths.values())) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self.measures = np.asarray(measures, dtype=np.float64)
        self.extra_measures: Dict[str, np.ndarray] = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in extra_measures.items()
        }
        self.radix = _radix(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.measures)

    @property
    def measure_names(self) -> Tuple[str, ...]:
        """The primary measure followed by any extra measures."""
        return (self.schema.measure, *self.extra_measures)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def measure_column(self, name: Optional[str] = None) -> np.ndarray:
        """The named measure column (default: the schema's measure)."""
        if name is None or name == self.schema.measure:
            return self.measures
        try:
            return self.extra_measures[name]
        except KeyError:
            raise KeyError(
                f"unknown measure {name!r}; have {self.measure_names}"
            ) from None

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct combinations of the given attributes —
        exactly the size of the view grouping by them."""
        return distinct_keys(
            [self.columns[a] for a in attrs], [self.radix[a] for a in attrs]
        )

    def __repr__(self) -> str:
        return f"FactTable({self.schema.names}, rows={self.n_rows})"


class ViewTable:
    """A materialized view: sorted distinct keys with aggregated measures.

    ``attrs`` fixes the column order of the keys (schema order).  The table
    is sorted lexicographically by key, which lets the executor and the
    index builder work with plain arrays.
    """

    def __init__(
        self,
        view: View,
        attrs: Tuple[str, ...],
        key_columns: Mapping[str, np.ndarray],
        values: np.ndarray,
        agg: str = "sum",
        extra_values: Optional[Mapping[str, np.ndarray]] = None,
        measure: str = "sales",
    ):
        if set(attrs) != set(view.attrs):
            raise ValueError(f"attrs {attrs} do not match view {view}")
        self.view = view
        self.attrs = tuple(attrs)
        self.agg = agg
        self.measure = measure
        self.key_columns = {a: np.asarray(key_columns[a]) for a in attrs}
        self.values = np.asarray(values, dtype=np.float64)
        self.extra_values: Dict[str, np.ndarray] = {
            name: np.asarray(col, dtype=np.float64)
            for name, col in (extra_values or {}).items()
        }
        lengths = {len(col) for col in self.key_columns.values()}
        lengths.add(len(self.values))
        lengths.update(len(col) for col in self.extra_values.values())
        if len(lengths) != 1:
            raise ValueError("key/value column lengths differ")
        self.radix = _radix(self.key_columns)

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def values_for(self, measure: Optional[str] = None) -> np.ndarray:
        """The aggregated column for the named measure.

        ``None`` means the primary measure the table was built with.
        """
        if measure is None or measure == self.measure:
            return self.values
        try:
            return self.extra_values[measure]
        except KeyError:
            raise KeyError(
                f"view {self.view} has no measure {measure!r}; "
                f"available: {(self.measure, *self.extra_values)}"
            ) from None

    def row_key(self, row: int, attrs: Sequence[str]) -> tuple:
        """The values of the given attributes in the given row."""
        return tuple(int(self.key_columns[a][row]) for a in attrs)

    def iter_rows(self) -> Iterator[Tuple[tuple, float]]:
        """Yield ``(key, value)`` with keys in ``self.attrs`` order."""
        cols = [self.key_columns[a] for a in self.attrs]
        for row in range(self.n_rows):
            yield tuple(int(c[row]) for c in cols), float(self.values[row])

    def __repr__(self) -> str:
        return f"ViewTable({self.view}, rows={self.n_rows})"
