"""Analytical view-size estimation (Section 4.2.1 of the paper).

The size of a view is the number of distinct combinations of its group-by
attributes appearing in the raw data.  When the attributes are assumed
statistically independent and the raw data holds ``r`` rows drawn
uniformly from the ``n``-cell dense cross product, the expected number of
distinct combinations is the classic balls-in-bins quantity

    D(n, r) = n · (1 − (1 − 1/n)^r)

which the paper inherits from the analytical model of [HRU96].  A cruder
but common approximation is ``min(n, r)``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.core.lattice import CubeLattice
from repro.core.view import View
from repro.cube.schema import CubeSchema


def expected_distinct(cells: float, rows: float) -> float:
    """Expected distinct cells hit by ``rows`` uniform draws over ``cells``.

    Computed with ``expm1``/``log1p`` so that it stays accurate both when
    ``rows << cells`` (result ≈ rows) and when ``rows >> cells``
    (result ≈ cells).

    >>> expected_distinct(10, 0)
    0.0
    >>> round(expected_distinct(2, 1000), 6)
    2.0
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    if rows == 0:
        return 0.0
    if cells == 1:
        return min(rows, 1.0)
    # n * (1 - (1 - 1/n)^r) = -n * expm1(r * log1p(-1/n)); clamped to the
    # trivial bound D <= rows, which the continuous formula can breach for
    # fractional row counts below 1.
    value = -cells * math.expm1(rows * math.log1p(-1.0 / cells))
    return min(rows, value)


def min_model(cells: float, rows: float) -> float:
    """The crude ``min(cells, rows)`` size approximation."""
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    return min(cells, rows)


def analytical_view_size(
    schema: CubeSchema,
    view: View,
    raw_rows: float,
    model: str = "expected",
) -> float:
    """Estimated rows of ``view`` given ``raw_rows`` raw fact rows.

    ``model`` is ``"expected"`` (the balls-in-bins formula) or ``"min"``.
    The empty view always has exactly one row.
    """
    if not view.attrs:
        return 1.0
    cells = schema.cells_of(view)
    if model == "expected":
        return max(1.0, expected_distinct(cells, raw_rows))
    if model == "min":
        return max(1.0, min_model(cells, raw_rows))
    raise ValueError(f"model must be 'expected' or 'min', got {model!r}")


def analytical_lattice(
    schema: CubeSchema,
    raw_rows: float,
    model: str = "expected",
) -> CubeLattice:
    """Build a :class:`CubeLattice` with analytically estimated sizes.

    This is the cube-generation model used for the paper's Section 6
    experiments ("we generated cubes using the analytical model in
    [HRU96]").  ``raw_rows`` is typically ``sparsity * schema.dense_cells``.
    """
    if raw_rows < 1:
        raise ValueError(f"raw_rows must be >= 1, got {raw_rows}")
    return CubeLattice.from_estimator(
        schema, lambda view: analytical_view_size(schema, view, raw_rows, model)
    )


def sparsity_to_rows(schema: CubeSchema, sparsity: float) -> float:
    """Raw row count for a cube of the given sparsity.

    Sparsity is the paper's Section 6 definition: the ratio of raw-data
    rows to the product of the dimension cardinalities.
    """
    if not 0.0 < sparsity <= 1.0:
        raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
    return max(1.0, sparsity * schema.dense_cells)


def exact_sizes_from_rows(
    schema: CubeSchema,
    rows: "object",
) -> Callable[[View], float]:
    """Exact view-size estimator backed by actual fact rows.

    ``rows`` is a mapping ``{dimension name: integer numpy array}`` (the
    columns of a fact table, e.g. from
    :class:`repro.engine.table.FactTable`).  Returns an estimator suitable
    for :meth:`CubeLattice.from_estimator` that counts distinct attribute
    combinations with numpy.
    """
    import numpy as np

    from repro.engine.table import _radix, distinct_keys

    columns: Mapping = rows

    def estimator(view: View) -> float:
        keys = {a: np.asarray(columns[a]) for a in schema.sort_attrs(view.attrs)}
        return float(distinct_keys(list(keys.values()), list(_radix(keys).values())))

    return estimator
