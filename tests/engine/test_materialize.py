"""Tests for subcube materialization (GROUP BY aggregation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.materialize import materialize_view, rollup_view
from repro.engine.table import FactTable, group_rows

from tests.engine.grouping_reference import _aggregate


@pytest.fixture
def schema():
    return CubeSchema([Dimension("a", 4), Dimension("b", 3), Dimension("c", 2)])


@pytest.fixture
def fact(schema):
    columns = {
        "a": np.array([0, 0, 1, 1, 2]),
        "b": np.array([0, 0, 0, 1, 2]),
        "c": np.array([0, 1, 0, 0, 1]),
    }
    return FactTable(schema, columns, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


class TestMaterializeView:
    def test_group_by_one_attr(self, fact):
        table = materialize_view(fact, View.of("a"))
        assert list(table.iter_rows()) == [((0,), 3.0), ((1,), 7.0), ((2,), 5.0)]

    def test_group_by_two_attrs(self, fact):
        table = materialize_view(fact, View.of("a", "b"))
        assert table.n_rows == 4
        assert dict(table.iter_rows())[(0, 0)] == 3.0

    def test_empty_view_is_grand_total(self, fact):
        table = materialize_view(fact, View.none())
        assert table.n_rows == 1
        assert table.values[0] == 15.0

    def test_top_view_when_no_duplicates(self, fact):
        table = materialize_view(fact, View.of("a", "b", "c"))
        assert table.n_rows == 5  # all rows distinct here

    def test_count_aggregate(self, fact):
        table = materialize_view(fact, View.of("a"), agg="count")
        assert dict(table.iter_rows())[(0,)] == 2.0

    def test_min_max_aggregates(self, fact):
        mins = materialize_view(fact, View.of("a"), agg="min")
        maxs = materialize_view(fact, View.of("a"), agg="max")
        assert dict(mins.iter_rows())[(0,)] == 1.0
        assert dict(maxs.iter_rows())[(0,)] == 2.0

    def test_invalid_aggregate(self, fact):
        with pytest.raises(ValueError, match="agg"):
            materialize_view(fact, View.of("a"), agg="median")

    def test_keys_sorted(self, fact):
        table = materialize_view(fact, View.of("a", "b"))
        keys = [k for k, __ in table.iter_rows()]
        assert keys == sorted(keys)

    def test_row_count_is_distinct_count(self, schema):
        fact = generate_fact_table(schema, 100, rng=0)
        for attrs in (("a",), ("a", "b"), ("a", "b", "c")):
            table = materialize_view(fact, View(attrs))
            assert table.n_rows == fact.distinct_count(table.attrs)


class TestRollup:
    def test_rollup_matches_direct(self, fact, schema):
        top = materialize_view(fact, View.of("a", "b", "c"))
        direct = materialize_view(fact, View.of("a"))
        rolled = rollup_view(top, View.of("a"), schema=schema)
        assert list(rolled.iter_rows()) == list(direct.iter_rows())

    def test_rollup_from_intermediate(self, fact, schema):
        ab = materialize_view(fact, View.of("a", "b"))
        direct = materialize_view(fact, View.of("b"))
        rolled = rollup_view(ab, View.of("b"), schema=schema)
        assert list(rolled.iter_rows()) == list(direct.iter_rows())

    def test_rollup_to_grand_total(self, fact, schema):
        ab = materialize_view(fact, View.of("a", "b"))
        rolled = rollup_view(ab, View.none(), schema=schema)
        assert rolled.values[0] == 15.0

    def test_rollup_requires_descendant(self, fact, schema):
        ab = materialize_view(fact, View.of("a", "b"))
        with pytest.raises(ValueError, match="not computable"):
            rollup_view(ab, View.of("c"), schema=schema)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_rollup_always_matches_direct(self, n_rows):
        """The dependence relation in action: any path down the lattice
        yields the same table."""
        schema = CubeSchema([Dimension("x", 6), Dimension("y", 4), Dimension("z", 3)])
        fact = generate_fact_table(schema, n_rows, rng=n_rows)
        top = materialize_view(fact, View.of("x", "y", "z"))
        mid = rollup_view(top, View.of("x", "y"), schema=schema)
        bottom_via_path = rollup_view(mid, View.of("x"), schema=schema)
        bottom_direct = materialize_view(fact, View.of("x"))
        got = {k: pytest.approx(v) for k, v in bottom_direct.iter_rows()}
        assert dict(bottom_via_path.iter_rows()) == got


class TestGroupKeys:
    """:func:`group_rows` gives exactly what ``np.unique(axis=0)`` gives."""

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("n_cols", [1, 2, 3, 5])
    @pytest.mark.parametrize("high", [2, 9, 2**40])
    def test_matches_unique_rows(self, n_rows, n_cols, high):
        rng = np.random.default_rng([n_rows, n_cols, high % 1000])
        key_cols = tuple(rng.integers(0, high, size=n_rows) for __ in range(n_cols))
        dims = [int(column.max()) + 1 if n_rows else 0 for column in key_cols]
        groups = group_rows(key_cols, dims)
        unique, expected_inverse = np.unique(
            np.stack(key_cols, axis=1), axis=0, return_inverse=True
        )
        n_groups = unique.shape[0]
        assert groups.n_groups == n_groups
        assert len(groups.keys) == n_cols
        for got, want in zip(groups.keys, unique.T):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        values = rng.random(n_rows) * 100.0 - 50.0
        for agg in ("sum", "count", "min", "max"):
            assert (
                groups.fold(values, agg).tobytes()
                == _aggregate(expected_inverse, n_groups, values, agg).tobytes()
            )
