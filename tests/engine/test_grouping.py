"""The grouping kernel against the grouping it replaced.

:func:`repro.engine.table.group_rows` groups rows on their mixed-radix
key codes: it counts the codes while the key space is small next to the
rows, sorts them above, and falls back to a ``lexsort`` of the columns
for keys whose codes overflow ``intp`` (or negative keys).  On every
path it must give what the engine's former ``_group_keys`` and
``_aggregate`` (kept in :mod:`tests.engine.grouping_reference`) and
``np.unique(axis=0)`` give: the same keys in the same order and dtype,
the same group count and every fold's bytes.
"""

import math

import numpy as np
import pytest

from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.maintenance import apply_delta
from repro.engine.materialize import _fold, materialize_view, rollup_view
from repro.engine.table import (
    COUNTED_SPACE, COUNTED_SPACE_PER_ROW, FactTable, distinct_keys, group_rows,
)
from repro.estimation.sizes import exact_sizes_from_rows

from tests.engine.grouping_reference import _aggregate, _group_keys

AGGREGATES = ("sum", "count", "min", "max")

#: ``(rows, radices, dtype, low)``: keys are drawn in ``[low, radix)``,
#: from a pool of half as many distinct rows so that groups repeat.
CASES = {
    "counted": (300, (4, 5, 3), np.int64, 0),
    "counted-by-rows": (2000, (90, 80), np.int64, 0),
    "counted-lone": (100, (7,), np.int64, 0),
    "counted-int32": (400, (6, 9, 5), np.int32, 0),
    "sorted": (50, (100, 100), np.int64, 0),
    "sorted-lone": (20, (10**6,), np.int64, 0),
    "sorted-int32": (60, (300, 200), np.int32, 0),
    "lexsort": (200, (2**40, 2**40), np.int64, 0),
    "lexsort-three": (90, (2**40, 3, 2**40), np.int64, 0),
    "lexsort-negative": (80, (4, 5), np.int64, -3),
    "lexsort-negative-lone": (80, (4,), np.int64, -3),
    "sorted-negative-lone": (30, (10**6,), np.int64, -10**6),
    "empty-key": (40, (), np.int64, 0),
    "empty-key-no-rows": (0, (), np.int64, 0),
    "counted-no-rows": (0, (3, 4), np.int64, 0),
    "counted-no-rows-lone": (0, (3,), np.int64, 0),
}


def case(name):
    n_rows, dims, dtype, low = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    pool = max(1, n_rows // 2)
    picks = rng.integers(0, pool, size=n_rows)
    columns = [
        rng.integers(low, dim, size=pool).astype(dtype)[picks] for dim in dims
    ]
    values = rng.standard_normal(n_rows) * 100.0
    return columns, dims, values


def path(columns, dims) -> str:
    """The kernel path ``columns`` take: from the module's thresholds,
    and the fallback where the kernel reports no codes."""
    if not columns:
        return "empty key"
    if group_rows(columns, dims).codes is None:
        return "lexsort"
    space = math.prod(dims)
    if space <= COUNTED_SPACE or space <= COUNTED_SPACE_PER_ROW * len(columns[0]):
        return "counted"
    return "sorted"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_former_grouping(name):
    columns, dims, values = case(name)
    groups = group_rows(columns, dims)
    unique_cols, inverse, n_groups = _group_keys(tuple(columns))
    assert groups.n_groups == n_groups
    assert len(groups.keys) == len(columns)
    for got, want, column in zip(groups.keys, unique_cols, columns):
        assert got.dtype == want.dtype == column.dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
    if columns:
        unique = np.unique(np.stack(columns, axis=1), axis=0)
        assert [key.tolist() for key in groups.keys] == unique.T.tolist()
    for agg in AGGREGATES:
        # a table's folds, the empty key's grand total included
        assert (
            _fold(groups, values, agg).tobytes()
            == _aggregate(inverse, n_groups, values, agg).tobytes()
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_folds_add_in_row_order(name):
    """``fold`` sums each group in row order, the empty key too: the
    order of a per-row ``groups[key] += value`` loop."""
    columns, dims, values = case(name)
    groups = group_rows(columns, dims)
    labels = np.zeros(len(values), dtype=np.intp)
    if columns:
        __, labels, __ = _group_keys(tuple(columns))
    expected = np.zeros(groups.n_groups)
    for label, value in zip(labels.tolist(), values.tolist()):
        expected[label] += value
    assert groups.fold(values).tobytes() == expected.tobytes()


def test_codes_ascend_in_key_order():
    columns, dims, __ = case("counted")
    groups = group_rows(columns, dims)
    assert np.all(np.diff(groups.codes) > 0)
    assert groups.codes.tolist() == np.ravel_multi_index(groups.keys, dims).tolist()


def test_cases_reach_every_path():
    paths = {name: path(*case(name)[:2]) for name in CASES}
    assert {paths[name] for name in CASES} == {"counted", "sorted", "lexsort", "empty key"}
    for name, taken in paths.items():
        assert name.startswith(taken.replace(" ", "-")), (name, taken)


def test_unknown_fold_rejected():
    with pytest.raises(ValueError, match="agg must be"):
        group_rows([np.array([0, 1])], (2,)).fold(np.ones(2), "median")


def test_negative_lone_column_counts_as_before():
    """A lone column is its own code only for keys in ``[0, radix)``;
    negative keys still count, as the record sort counted them."""
    schema = CubeSchema([Dimension("a", 4)])
    estimator = exact_sizes_from_rows(schema, {"a": np.array([-1, 0, 0, 2])})
    assert estimator(View(("a",))) == 3.0
    assert distinct_keys([np.array([-5, 7, -5, 0])], [8]) == 3


def sparse_catalog():
    schema = CubeSchema([Dimension("a", 40), Dimension("b", 30), Dimension("c", 20)])
    rng = np.random.default_rng(4)
    fact = FactTable(
        schema,
        {name: rng.integers(0, 10, size=60) for name in "abc"},
        rng.random(60),
    )
    catalog = Catalog(fact)
    for attrs in (("a", "b", "c"), ("a", "c"), ("b",)):
        catalog.materialize(View(attrs))
    return catalog


def assert_contiguous(table):
    for column in table.key_columns.values():
        assert column.flags.c_contiguous


def test_view_key_columns_are_contiguous():
    catalog = sparse_catalog()
    schema = catalog.fact.schema
    top = catalog.view_table(View.of("a", "b", "c"))
    for view in catalog.views():
        assert_contiguous(catalog.view_table(view))
    for attrs in (("a", "b"), ("b", "c"), ("c",)):
        assert_contiguous(rollup_view(top, View(attrs), schema=schema))
        assert_contiguous(materialize_view(catalog.fact, View(attrs)))
    # a delta whose rows lie outside every group so far, one growing
    # each column's maximum
    rows = {"a": np.array([35, 1]), "b": np.array([25, 2]), "c": np.array([15, 19])}
    before = {view: catalog.view_table(view).n_rows for view in catalog.views()}
    apply_delta(catalog, rows, np.array([1.5, 2.5]))
    for view in catalog.views():
        assert catalog.view_table(view).n_rows > before[view]
        assert_contiguous(catalog.view_table(view))
