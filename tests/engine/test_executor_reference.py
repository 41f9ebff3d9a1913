"""The executor against the per-row reference it replaced.

The engine used to keep an index as a B+tree holding one
``((key…, row id), (row id, value))`` entry per view row, and to answer a
plan with a per-row loop: a prefix plan walked the leaf entries matching
the prefix values, a scan walked every row, and each row that passed the
remaining selection added ``groups[key] += value``.  Those loops are kept
here verbatim, over the tests' B+tree (:mod:`tests.engine.btree`), as the
reference.  The executor must return the same rows processed and the
same groups, compared with ``==`` (every float bit for bit), for every
slice pattern × answering view × plan (a scan, or any index on the view)
of non-integral, partly empty cubes — before and after a maintenance
delta.
"""

import itertools

import numpy as np
import pytest

from repro.core.index import Index, enumerate_fat_indexes
from repro.core.query import enumerate_slice_queries
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.table import FactTable

from tests.engine.btree import BPlusTree

#: Dimension cardinalities of the cubes compared.
CARDINALITIES = [(5, 4, 3), (4, 3, 3, 2), (7, 2, 6)]
#: Share of the cube's cells that hold facts; the rest leave some index
#: prefixes without a single row.
DENSITY = 0.7
#: Concrete selection values drawn per slice pattern.
DRAWS = 3


def reference_tree(table, index) -> BPlusTree:
    """The index as the engine used to build it: entries sorted by
    (key…, row id), bulk-loaded into a B+tree."""
    key_cols = [table.key_columns[a] for a in index.key]
    entries = sorted(
        (
            tuple(int(col[row]) for col in key_cols) + (row,),
            (row, float(table.values[row])),
        )
        for row in range(table.n_rows)
    )
    return BPlusTree.bulk_load(entries, order=32)


def reference_execute(table, query, selection_values, index=None, tree=None):
    """``(rows processed, groups)`` by the engine's former per-row loops;
    ``tree`` is :func:`reference_tree` of ``index``."""
    groupby = tuple(a for a in table.attrs if a in query.groupby)
    residual = [a for a in table.attrs if a in query.selection]
    groups = {}
    rows_processed = 0
    prefix = index.usable_prefix(query) if index is not None else ()
    if index is not None and prefix:
        prefix_key = tuple(int(selection_values[a]) for a in prefix)
        residual = [a for a in residual if a not in prefix]
        for __, (row, __value) in tree.prefix_scan(prefix_key):
            rows_processed += 1
            if any(
                int(table.key_columns[a][row]) != int(selection_values[a])
                for a in residual
            ):
                continue
            key = table.row_key(row, groupby)
            groups[key] = groups.get(key, 0.0) + float(table.values[row])
    else:
        rows_processed = table.n_rows
        cols = {a: table.key_columns[a] for a in table.attrs}
        for row in range(table.n_rows):
            if any(
                int(cols[a][row]) != int(selection_values[a]) for a in residual
            ):
                continue
            key = tuple(int(cols[a][row]) for a in groupby)
            groups[key] = groups.get(key, 0.0) + float(table.values[row])
    return rows_processed, groups


def reference_trees(catalog) -> dict:
    return {
        index: reference_tree(catalog.view_table(index.view), index)
        for index in catalog.indexes()
    }


def partial_facts(schema, rng, n_rows) -> FactTable:
    """``n_rows`` facts over a random ``DENSITY`` share of the cells,
    with non-integral measures (so summation order shows in the bits)."""
    cells = np.array(
        list(itertools.product(*(range(d.cardinality) for d in schema.dimensions)))
    )
    kept = cells[rng.random(len(cells)) < DENSITY]
    picks = kept[rng.integers(0, len(kept), size=n_rows)]
    return FactTable(
        schema,
        {name: picks[:, i] for i, name in enumerate(schema.names)},
        rng.random(n_rows) * 100.0,
    )


@pytest.fixture(params=CARDINALITIES, ids=lambda cards: "x".join(map(str, cards)))
def catalog(request):
    """Every view, every fat index, and one single-attribute index."""
    cards = request.param
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), card) for i, card in enumerate(cards)]
    )
    cells = int(np.prod(cards))
    catalog = Catalog(partial_facts(schema, np.random.default_rng(sum(cards)), cells))
    for size in range(len(cards) + 1):
        for attrs in itertools.combinations(schema.names, size):
            view = catalog.materialize(View(attrs)).view
            for index in enumerate_fat_indexes(view):
                catalog.build_index(index)
    catalog.build_index(Index(View(schema.names), (schema.names[1],)))
    return catalog


def assert_matches_reference(catalog, rng) -> int:
    """Compare every plan of every pattern; return the executions made."""
    executor = Executor(catalog)
    trees = reference_trees(catalog)
    schema = catalog.fact.schema
    executions = 0
    for query in enumerate_slice_queries(schema.names):
        for __ in range(DRAWS):
            values = {
                a: int(rng.integers(0, schema.cardinality(a)))
                for a in sorted(query.selection)
            }
            for view in catalog.views():
                if not query.answerable_by(view):
                    continue
                table = catalog.view_table(view)
                for index in [None] + catalog.indexes_on(view):
                    result = executor.execute(query, values, plan=(view, index))
                    expected = reference_execute(
                        table, query, values, index, trees.get(index)
                    )
                    got = (result.rows_processed, result.groups)
                    assert got == expected, (str(query), values, str(view), index)
                    executions += 1
    return executions


class TestAgainstReference:
    def test_every_plan_matches(self, catalog):
        assert assert_matches_reference(catalog, np.random.default_rng(1)) > 900

    def test_every_plan_matches_after_delta(self, catalog):
        rng = np.random.default_rng(2)
        schema = catalog.fact.schema
        apply_delta(
            catalog,
            {
                d.name: rng.integers(0, d.cardinality, size=40)
                for d in schema.dimensions
            },
            rng.random(40) * 100.0,
        )
        assert_matches_reference(catalog, rng)

    def test_some_prefix_ranges_are_empty(self, catalog):
        """Some index prefixes hold no rows, so empty ranges are among
        the plans compared."""
        schema = catalog.fact.schema
        top = View(schema.names)
        index = catalog.indexes_on(top)[0]
        sorted_index = catalog.sorted_index(index)
        domain = itertools.product(
            *(range(schema.cardinality(a)) for a in index.key)
        )
        assert any(len(sorted_index.prefix_rows(key)) == 0 for key in domain)

    def test_sums_depend_on_row_order(self, catalog):
        """The measures make summation order visible, so an executor that
        read rows in another order than the reference would fail."""
        values = catalog.view_table(View(catalog.fact.schema.names)).values.tolist()
        assert any(
            (x + y) + z != (z + y) + x
            for x, y, z in zip(values, values[1:], values[2:])
        )
