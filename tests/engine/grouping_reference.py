"""The engine's grouping before :func:`repro.engine.table.group_rows`.

``materialize_view``, ``rollup_view`` and the re-grouping delta merge
used to group rows with :func:`_group_keys` (one ``lexsort`` of the key
columns) and fold each measure with :func:`_aggregate`.  Both are kept
here verbatim as the reference the kernel must match bit for bit.
"""

from typing import Tuple

import numpy as np

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
