"""Tests for the engine catalog."""

import pytest

from repro.core.index import Index
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog


@pytest.fixture
def fact():
    schema = CubeSchema([Dimension("a", 8), Dimension("b", 5)])
    return generate_fact_table(schema, 200, rng=0)


@pytest.fixture
def catalog(fact):
    return Catalog(fact)


class TestViews:
    def test_materialize(self, catalog):
        table = catalog.materialize(View.of("a"))
        assert catalog.has_view(View.of("a"))
        assert table.n_rows == catalog.view_rows(View.of("a"))

    def test_materialize_idempotent(self, catalog):
        t1 = catalog.materialize(View.of("a"))
        t2 = catalog.materialize(View.of("a"))
        assert t1 is t2

    def test_total_rows_counts_views(self, catalog):
        catalog.materialize(View.of("a"))
        catalog.materialize(View.of("b"))
        assert catalog.total_rows() == (
            catalog.view_rows(View.of("a")) + catalog.view_rows(View.of("b"))
        )


class TestIndexes:
    def test_index_requires_materialized_view(self, catalog):
        idx = Index(View.of("a"), ("a",))
        with pytest.raises(ValueError, match="not materialized"):
            catalog.build_index(idx)

    def test_build_index(self, catalog):
        catalog.materialize(View.of("a", "b"))
        idx = Index(View.of("a", "b"), ("b", "a"))
        tree = catalog.build_index(idx)
        assert catalog.has_index(idx)
        assert len(tree) == catalog.view_rows(View.of("a", "b"))

    def test_index_size_model_is_physical(self, catalog):
        """index rows == view rows: the paper's size model, literally."""
        view = View.of("a", "b")
        catalog.materialize(view)
        idx = Index(view, ("a", "b"))
        catalog.build_index(idx)
        assert catalog.index_rows(idx) == catalog.view_rows(view)

    def test_build_index_idempotent(self, catalog):
        catalog.materialize(View.of("a"))
        idx = Index(View.of("a"), ("a",))
        t1 = catalog.build_index(idx)
        t2 = catalog.build_index(idx)
        assert t1 is t2

    def test_indexes_on(self, catalog):
        view = View.of("a", "b")
        catalog.materialize(view)
        i1 = Index(view, ("a", "b"))
        i2 = Index(view, ("b", "a"))
        catalog.build_index(i1)
        catalog.build_index(i2)
        assert set(catalog.indexes_on(view)) == {i1, i2}
        assert catalog.indexes_on(View.of("a")) == []

    def test_index_entries_sorted_by_key(self, catalog):
        """The permutation is the view's rows in (key…, row id) order,
        and the stored key columns are gathered in that order."""
        view = View.of("a", "b")
        table = catalog.materialize(view)
        idx = Index(view, ("b", "a"))
        built = catalog.build_index(idx)
        cols = [table.key_columns[a] for a in idx.key]
        expected = sorted(
            tuple(int(c[row]) for c in cols) + (row,) for row in range(table.n_rows)
        )
        assert built.rows.tolist() == [entry[-1] for entry in expected]
        for column, key in zip(cols, built.keys):
            assert key.tolist() == column[built.rows].tolist()
