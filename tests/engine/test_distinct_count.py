"""Distinct key counts by mixed-radix code.

``FactTable.distinct_count`` and ``exact_sizes_from_rows`` count the
distinct codes of a key's rows instead of sorting the rows as records;
where the codes would overflow (or a key is negative) they fall back to
the record sort.  Counts, and the lattices ``LinearCostModel.from_fact``
builds from them, must equal ``np.unique(..., axis=0)``'s.
"""

import itertools

import numpy as np
import pytest

from repro.core.costmodel import LinearCostModel
from repro.core.view import View
from repro.cube.generator import dense_fact_table, generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.table import FactTable, distinct_keys, key_codes
from repro.estimation.sizes import exact_sizes_from_rows


def record_count(columns) -> int:
    """The former count: distinct rows sorted as records."""
    return int(np.unique(np.stack(columns, axis=1), axis=0).shape[0])


@pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 50, 400])
@pytest.mark.parametrize("high", [3, 12, 2**40])
def test_distinct_keys_equal_record_sort(n_cols, n_rows, high):
    rng = np.random.default_rng([n_cols, n_rows, high % 1000])
    columns = [rng.integers(0, high, size=n_rows) for __ in range(n_cols)]
    if high > 12 and n_rows:
        # repeat some rows so large keys have duplicates too
        columns = [np.concatenate([c, c[: n_rows // 2]]) for c in columns]
    dims = [int(c.max()) + 1 if len(c) else 0 for c in columns]
    assert distinct_keys(columns, dims) == record_count(columns)


def test_overflowing_codes_fall_back():
    columns = [np.array([2**40 - 1, 0, 2**40 - 1]), np.array([2**40 - 1, 0, 2**40 - 1])]
    assert key_codes(columns, [2**40, 2**40]) is None
    assert distinct_keys(columns, [2**40, 2**40]) == 2


def test_codes_are_lexicographic():
    columns = [np.array([1, 0, 1, 0]), np.array([0, 2, 1, 0])]
    codes = key_codes(columns, [2, 3])
    assert codes.tolist() == [3, 2, 4, 0]
    order = np.lexsort(columns[::-1])
    assert np.all(np.diff(codes[order]) > 0)


def test_fact_distinct_count_with_huge_cardinalities():
    schema = CubeSchema(
        [Dimension("a", 2**40), Dimension("b", 2**40), Dimension("c", 3)]
    )
    rng = np.random.default_rng(0)
    pool = np.array([0, 7, 2**39, 2**40 - 1])
    columns = {
        "a": rng.choice(pool, 60),
        "b": rng.choice(pool, 60),
        "c": rng.integers(0, 3, 60),
    }
    fact = FactTable(schema, columns, np.ones(60))
    for attrs in (("a",), ("a", "b"), ("a", "c"), ("a", "b", "c")):
        assert fact.distinct_count(attrs) == record_count([columns[a] for a in attrs])


def reference_sizes(fact):
    """View sizes as the record sort counts them."""
    names = fact.schema.names
    subsets = (itertools.combinations(names, r) for r in range(len(names) + 1))
    views = [View(attrs) for attrs in itertools.chain.from_iterable(subsets)]
    return {
        view: float(record_count([fact.column(a) for a in view.attrs]))
        if view.attrs
        else 1.0
        for view in views
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda schema: dense_fact_table(schema, rng=0),
        lambda schema: generate_fact_table(schema, 40, rng=1),
        lambda schema: generate_fact_table(schema, 700, rng=2),
    ],
    ids=["dense", "sparse", "half-full"],
)
def test_from_fact_lattice_sizes_equal_record_sort(make):
    schema = CubeSchema([Dimension(n, c) for n, c in zip("abcd", (6, 5, 4, 3))])
    fact = make(schema)
    lattice = LinearCostModel.from_fact(fact).lattice
    expected = reference_sizes(fact)
    assert {view: lattice.size(view) for view in expected} == expected


def test_exact_sizes_from_rows_equal_record_sort():
    schema = CubeSchema([Dimension("a", 6), Dimension("b", 5), Dimension("c", 4)])
    fact = generate_fact_table(schema, 50, rng=4)
    estimator = exact_sizes_from_rows(schema, fact.columns)
    for view, size in reference_sizes(fact).items():
        assert estimator(view) == size
    # negative keys cannot be coded: the record sort counts them
    shifted = {name: column - 2 for name, column in fact.columns.items()}
    estimator = exact_sizes_from_rows(schema, shifted)
    assert estimator(View.of("a", "c")) == record_count([shifted["a"], shifted["c"]])
