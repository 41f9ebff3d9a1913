"""Column-oriented tables for the mini-ROLAP engine.

Two table kinds:

* :class:`FactTable` — the raw data: one integer column per dimension plus
  a float measure column.
* :class:`ViewTable` — a materialized subcube: distinct attribute
  combinations with the aggregated measure, sorted by key.

Both are numpy-backed and deliberately simple; the engine exists to count
rows processed, not to win benchmarks.  Each carries a :class:`KeyTuples`
(``key_tuples``): the one key tuple per group its answers hand out, so an
answer allocates tuples only for groups no earlier answer returned.
Tables derived from a fact table share its ``KeyTuples``.
"""

from __future__ import annotations

import math
import threading
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


def distinct_keys(columns: Sequence[np.ndarray], dims: Sequence[int]) -> int:
    """Number of distinct rows of the key ``columns``, counted on their
    :func:`key_codes` in radices ``dims``."""
    codes = key_codes(columns, dims)
    if codes is None:
        return int(np.unique(np.stack(columns, axis=1), axis=0).shape[0])
    return int(np.unique(codes).size)


def _key_column(name: str, values) -> np.ndarray:
    """A dimension column as int64, refusing keys that the cast would
    change: a non-1-D column, or non-integral or non-finite values."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError(f"column {name!r} must be 1-D, got shape {column.shape}")
    if column.dtype.kind not in "biu":
        as_float = column.astype(np.float64)
        if not (np.isfinite(as_float).all() and (as_float == np.trunc(as_float)).all()):
            raise ValueError(f"column {name!r} holds non-integral or non-finite keys")
    return column.astype(np.int64, copy=False)


class KeyTuples:
    """Canonical key tuples, shared by the answers of a table and of the
    tables derived from it.

    A group-by set's keys are coded mixed-radix with one radix per
    attribute, the table's ``radix`` (that key column's max + 1 over the
    whole table), so ascending codes are lexicographic key order.  One
    slot per code holds the group's tuple, made the first time an answer
    returns that group; every later answer hands out the same object.

    A table derived from another takes over its ``KeyTuples``: views
    materialized from a fact table or rolled up from a view, a view
    merged with a delta, the fact table a delta extends and the views
    loaded with a fact table.  Derivation keeps each column's maximum,
    so these tables code a group-by set alike and share its slots; a
    table coding it with other radices (a delta grew a column's maximum)
    starts that set over, replacing the slots of the other coding.

    Reads take no lock: a slot's tuple is stored before its ``filled``
    flag, and a reader that finds a flag unset, or the set coded with
    other radices, fills under the lock.
    """

    def __init__(self):
        #: group-by attributes -> (radices, tuple per code, filled per code)
        self._slots: Dict[Tuple[str, ...], Tuple[tuple, np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def tuples(
        self, attrs: Tuple[str, ...], dims: Tuple[int, ...], codes: np.ndarray
    ) -> List[tuple]:
        """The key tuples of ``codes`` (ascending), which code ``attrs``
        with radices ``dims``; tuples are made only for new codes."""
        slot = self._slots.get(attrs)
        if slot is None or slot[0] != dims or not slot[2][codes].all():
            slot = self._fill(attrs, dims, codes)
        return slot[1][codes].tolist()

    def _fill(self, attrs, dims, codes):
        with self._lock:
            slot = self._slots.get(attrs)
            if slot is None or slot[0] != dims:
                space = math.prod(dims)
                slot = (
                    dims,
                    np.full(space, None, dtype=object),
                    np.zeros(space, dtype=bool),
                )
                self._slots[attrs] = slot
            __, keys, filled = slot
            missing = codes[~filled[codes]]
            rows = np.stack(np.unravel_index(missing, dims), axis=1)
            for code, row in zip(missing.tolist(), rows.tolist()):
                keys[code] = tuple(row)
            filled[missing] = True
        return slot


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
            name: _key_column(name, columns[name]) for name in schema.names
        }
        lengths = {name: len(column) for name, column in self.columns.items()}
        lengths[schema.measure] = len(measures)
        for name, values in extra_measures.items():
            lengths[name] = len(values)
        if len(set(lengths.values())) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        for name, col in self.columns.items():
            card = schema.cardinality(name)
            if col.size and (col.min() < 0 or col.max() >= card):
                raise ValueError(
                    f"column {name!r} has values outside [0, {card})"
                )
        self.measures = np.asarray(measures, dtype=np.float64)
        self.extra_measures: Dict[str, np.ndarray] = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in extra_measures.items()
        }
        self.radix = _radix(self.columns)
        self.key_tuples = KeyTuples()

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
        if not attrs:
            return 1
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
        self.key_tuples = KeyTuples()

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
