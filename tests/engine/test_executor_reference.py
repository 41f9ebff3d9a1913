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

The group-and-sum kernel used to make a dict with a new key tuple for
every group of every answer; it now returns an array
:class:`~repro.engine.table.Answer`.  The former kernel is kept here as
:func:`reference_grouped_sums`, and answers must equal it item by item,
in its order, with every sum's ``float.hex``.
"""

import gc
import itertools

import numpy as np
import pytest

from repro.core.index import Index, enumerate_fat_indexes
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.cube.generator import dense_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, _grouped_sums, aggregate_rows
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
#: The former kernel built tuples from codes up to this key space and
#: from sorted rows above it.
MAX_CODED_KEY_SPACE = 1 << 20


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


def reference_grouped_sums(key_columns, values) -> dict:
    """The former kernel: codes in the selected rows' own radix, and a
    new tuple per group of every answer."""
    if not len(values):
        return {}
    if not key_columns:
        sums = np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)
        return {(): float(sums[0])}
    dims = tuple(int(column.max()) + 1 for column in key_columns)
    space = 1
    for dim in dims:
        space *= dim
    if space > MAX_CODED_KEY_SPACE:
        stacked = np.stack(key_columns, axis=1)
        unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=values, minlength=len(unique))
        return {
            tuple(row): float(total)
            for row, total in zip(unique.tolist(), sums.tolist())
        }
    if len(key_columns) == 1:
        codes = key_columns[0]
    else:
        codes = np.ravel_multi_index(tuple(key_columns), dims)
    sums = np.bincount(codes, weights=values, minlength=space)
    populated = np.nonzero(np.bincount(codes, minlength=space))[0]
    keys = np.stack(np.unravel_index(populated, dims), axis=1)
    return {
        tuple(row): total
        for row, total in zip(keys.tolist(), sums[populated].tolist())
    }


def exact_items(groups) -> list:
    """An answer's items in iteration order, each sum as ``float.hex``."""
    return [(key, value.hex()) for key, value in groups.items()]


def reference_answer(table, query, bound) -> dict:
    """A view scan of ``query`` answered by the former kernel."""
    mask = np.ones(table.n_rows, dtype=bool)
    for attr in query.selection:
        mask &= table.key_columns[attr] == bound[attr]
    groupby = [a for a in table.attrs if a in query.groupby]
    return reference_grouped_sums(
        [table.key_columns[a][mask] for a in groupby], table.values[mask]
    )


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


def sparse_catalog(rng) -> Catalog:
    """Every view of a cube whose facts use part of each domain, so a
    delta can grow a column's maximum."""
    schema = CubeSchema([Dimension("a", 40), Dimension("b", 30), Dimension("c", 20)])
    n_rows = 300
    catalog = Catalog(
        FactTable(
            schema,
            {
                name: rng.integers(0, schema.cardinality(name) // 2, size=n_rows)
                for name in schema.names
            },
            rng.random(n_rows) * 100.0,
        )
    )
    for size in range(4):
        for attrs in itertools.combinations(schema.names, size):
            catalog.materialize(View(attrs))
    return catalog


def assert_views_match_reference(catalog, rng) -> None:
    """Every pattern on every answering view, twice: the second answer
    reads slots the first one filled."""
    for query in enumerate_slice_queries(catalog.fact.schema.names):
        bound = {
            a: int(rng.choice(catalog.fact.column(a))) for a in sorted(query.selection)
        }
        for view in catalog.views():
            if not query.answerable_by(view):
                continue
            table = catalog.view_table(view)
            expected = exact_items(reference_answer(table, query, bound))
            for __ in range(2):
                got = exact_items(aggregate_rows(table, query, bound))
                assert got == expected, (str(query), bound, str(view))


def random_case(seed):
    """``(fact, attrs, values)``: 0-300 rows and 1-5 key columns; odd
    seeds draw domains past the coded key space."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(0, 301))
    names = "abcde"[: int(rng.integers(1, 6))]
    high = 1 << 21 if seed % 2 else 12
    schema = CubeSchema([Dimension(a, high) for a in names])
    values = rng.random(n_rows) * 100.0
    fact = FactTable(
        schema, {a: rng.integers(0, high, size=n_rows) for a in names}, values
    )
    attrs = tuple(a for a in names if rng.random() < 0.7) or (names[0],)
    return fact, attrs, values


class TestAgainstFormerKernel:
    """Answers equal :func:`reference_grouped_sums`: the same keys, the
    same order and the same float bits."""

    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_columns(self, seed):
        fact, attrs, values = random_case(seed)
        rng = np.random.default_rng([seed, 1])
        for __ in range(3):
            rows = np.flatnonzero(rng.random(len(values)) < rng.random())
            picked = [fact.column(a)[rows] for a in attrs]
            got = _grouped_sums(fact, attrs, picked, values[rows])
            expected = reference_grouped_sums(picked, values[rows])
            assert exact_items(got) == exact_items(expected)

    def test_cases_cover_both_sides_of_the_coded_limit(self):
        spaces = [
            np.prod([fact.radix[a] for a in attrs], dtype=float)
            for fact, attrs, __ in map(random_case, self.SEEDS)
        ]
        assert min(spaces) <= MAX_CODED_KEY_SPACE < max(spaces)

    def test_views_after_deltas(self):
        """Deltas, one growing a column's maximum; the tables from before
        each delta answer too, coding with their own radices."""
        rng = np.random.default_rng(3)
        catalog = sparse_catalog(rng)
        schema = catalog.fact.schema
        assert_views_match_reference(catalog, rng)
        for grow in (False, True):
            stale = Catalog(catalog.fact)
            for view in catalog.views():
                stale.add_view(catalog.view_table(view))
            columns = {
                name: rng.integers(0, schema.cardinality(name) // 2, size=30)
                for name in schema.names
            }
            if grow:
                columns["b"][0] = schema.cardinality("b") - 1
            apply_delta(catalog, columns, rng.random(30) * 100.0)
            grown = catalog.fact.radix["b"] > stale.fact.radix["b"]
            assert grown == grow
            for __ in range(2):
                assert_views_match_reference(catalog, rng)
                assert_views_match_reference(stale, rng)
            assert_matches_reference(catalog, rng)


def dense_cube(cards) -> FactTable:
    schema = CubeSchema([Dimension(name, card) for name, card in zip("abcde", cards)])
    return dense_fact_table(schema, rng=0, integral_measures=True)


class TestAnswerAllocation:
    CARDS = (12, 10, 8, 6, 5)

    def test_second_answer_allocates_no_tuples(self):
        fact = dense_cube(self.CARDS)
        catalog = Catalog(fact)
        top = catalog.materialize(View(fact.schema.names)).view
        executor = Executor(catalog)
        query = SliceQuery(groupby=fact.schema.names)
        first = executor.execute(query, {}, plan=(top, None))
        assert len(first.groups) == fact.n_rows
        enabled = gc.isenabled()
        gc.disable()
        try:
            count = gc.get_count()[0]
            second = executor.execute(query, {}, plan=(top, None))
            allocated = gc.get_count()[0] - count
        finally:
            if enabled:
                gc.enable()
        assert second.groups == first.groups
        assert allocated < 1000
