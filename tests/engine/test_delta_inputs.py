"""Bad input to the delta path fails loudly.

Key columns are cast to int64, so a non-integral or non-finite key used
to be truncated into a wrong group.  ``merge_view_tables`` used to sum
any two tables, whatever they aggregate.  Both now raise a one-line
``ValueError``.
"""

import numpy as np
import pytest

from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.maintenance import apply_delta, merge_view_tables
from repro.engine.materialize import materialize_view
from repro.engine.table import FactTable, ViewTable

SCHEMA = CubeSchema([Dimension("a", 6), Dimension("b", 4)])


class TestKeyColumns:
    @pytest.mark.parametrize(
        "keys",
        [
            [0.7, 1.2, 2.9],
            [0.0, 1.5, 2.0],
            [0.0, np.nan, 2.0],
            [0.0, np.inf, 2.0],
        ],
    )
    def test_non_integral_or_non_finite_keys_rejected(self, keys):
        with pytest.raises(ValueError, match="column 'a' holds non-integral"):
            FactTable(SCHEMA, {"a": np.array(keys), "b": [0, 1, 2]}, np.ones(3))

    def test_non_1d_key_column_rejected(self):
        with pytest.raises(ValueError, match="column 'b' must be 1-D"):
            FactTable(SCHEMA, {"a": [0, 1], "b": [[0, 1], [2, 3]]}, np.ones(2))

    def test_integral_floats_accepted(self):
        columns = {"a": [3.0, 0.0], "b": np.array([1.0, 2.0])}
        fact = FactTable(SCHEMA, columns, np.ones(2))
        assert fact.column("a").tolist() == [3, 0]
        assert fact.column("a").dtype == np.int64

    def test_int64_columns_are_not_copied(self):
        a = np.array([0, 5, 2], dtype=np.int64)
        fact = FactTable(SCHEMA, {"a": a, "b": np.array([0, 1, 2])}, np.ones(3))
        assert fact.column("a") is a

    def test_non_integral_delta_leaves_catalog_unchanged(self):
        catalog = Catalog(generate_fact_table(SCHEMA, 40, rng=0))
        catalog.materialize(View.of("a"))
        before = (catalog.fact, catalog.view_table(View.of("a")), catalog.version)
        with pytest.raises(ValueError, match="column 'a' holds non-integral"):
            apply_delta(catalog, {"a": [0.7, 1.2, 2.9], "b": [0, 1, 2]}, np.ones(3))
        after = (catalog.fact, catalog.view_table(View.of("a")), catalog.version)
        assert all(x is y for x, y in zip(before, after))


def one_row_table(agg, value=5.0, measure="sales"):
    return ViewTable(
        View.of("a"), ("a",), {"a": np.array([0])}, np.array([value]),
        agg=agg, measure=measure,
    )


class TestMergeViewTables:
    def test_min_tables_rejected(self):
        with pytest.raises(ValueError, match="'min'"):
            merge_view_tables(one_row_table("min"), one_row_table("min"))

    def test_max_tables_rejected(self):
        with pytest.raises(ValueError, match="'max'"):
            merge_view_tables(one_row_table("max"), one_row_table("max"))

    @pytest.mark.parametrize("base,delta", [("sum", "count"), ("count", "sum")])
    def test_mixed_aggregates_rejected(self, base, delta):
        with pytest.raises(ValueError, match="same aggregate"):
            merge_view_tables(one_row_table(base), one_row_table(delta))

    def test_different_measures_rejected(self):
        with pytest.raises(ValueError, match="measure 'quantity'"):
            merge_view_tables(
                one_row_table("sum"), one_row_table("sum", measure="quantity")
            )

    @pytest.mark.parametrize("agg", ["sum", "count"])
    def test_same_aggregate_and_measure_merge(self, agg):
        fact = generate_fact_table(SCHEMA, 30, rng=3)
        table = materialize_view(fact, View.of("a", "b"), agg)
        merged = merge_view_tables(table, table)
        assert merged.agg == agg
        assert merged.values.tolist() == (2 * table.values).tolist()
