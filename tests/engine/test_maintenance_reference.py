"""Delta maintenance against the re-grouping refresh it replaced.

The reference below is the engine's former ``merge_view_tables`` and
``apply_delta``: each view merged with the delta by re-sorting the
concatenation of their rows (``np.lexsort``), and every index dropped
and rebuilt.  The engine now merges a delta's groups into each sorted
view by key code and keeps the indexes of views that gained no group.
After any sequence of deltas both must leave the same catalog bit for
bit: each view's key columns (values and dtype), measures (compared by
``float.hex``), radix, aggregate and row count, each index's entries,
the order of views and indexes, and the report's row counts.

The engine codes only the delta: a merged view carries its key codes
and its radix from the merge.  After every delta each view's carried
codes must equal a recount under its radix (none on the overflow
path), its radix a rescan of its key columns, and a view that gained no
group must hold its base's codes array itself.
"""

import itertools

import numpy as np
import pytest

from repro.core.index import Index
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog, SortedIndex
from repro.engine.maintenance import RefreshReport, apply_delta, merge_view_tables
from repro.engine.materialize import materialize_view
from repro.engine.storage import load_catalog, save_catalog
from repro.engine.table import FactTable, ViewTable, key_codes

from tests.engine.grouping_reference import _aggregate, _group_keys

# ---------------------------------------------------------------- reference


def reference_merge_view_tables(base: ViewTable, delta: ViewTable) -> ViewTable:
    """Merge two view tables by re-grouping their concatenated rows."""
    if base.view != delta.view or base.attrs != delta.attrs:
        raise ValueError(
            f"cannot merge {delta.view} ({delta.attrs}) into "
            f"{base.view} ({base.attrs})"
        )
    if set(base.extra_values) != set(delta.extra_values):
        raise ValueError(
            f"measure sets differ: {sorted(base.extra_values)} vs "
            f"{sorted(delta.extra_values)}"
        )
    key_cols = tuple(
        np.concatenate([base.key_columns[a], delta.key_columns[a]])
        for a in base.attrs
    )
    unique_cols, inverse, n_groups = _group_keys(key_cols)
    merged = _aggregate(
        inverse, n_groups, np.concatenate([base.values, delta.values]), "sum"
    )
    extra_merged = {
        name: _aggregate(
            inverse,
            n_groups,
            np.concatenate([base.extra_values[name], delta.extra_values[name]]),
            "sum",
        )
        for name in base.extra_values
    }
    key_columns = {a: col for a, col in zip(base.attrs, unique_cols)}
    table = ViewTable(
        base.view,
        base.attrs,
        key_columns,
        merged,
        agg=base.agg,
        extra_values=extra_merged,
        measure=base.measure,
    )
    return table


def reference_apply_delta(catalog, delta_columns, delta_measures, delta_extras=None):
    """Extend the facts, re-group every view and rebuild every index."""
    schema = catalog.fact.schema
    delta = FactTable(
        schema, delta_columns, delta_measures, extra_measures=delta_extras
    )
    merged_columns = {
        name: np.concatenate([catalog.fact.column(name), delta.column(name)])
        for name in schema.names
    }
    merged_measures = np.concatenate([catalog.fact.measures, delta.measures])
    merged_extras = {
        name: np.concatenate([catalog.fact.extra_measures[name], column])
        for name, column in delta.extra_measures.items()
    }
    fact = FactTable(
        schema, merged_columns, merged_measures, extra_measures=merged_extras
    )
    catalog.fact = fact
    report = RefreshReport(delta_rows=delta.n_rows)
    views_touched = []
    for view in list(catalog.views()):
        base = catalog.view_table(view)
        delta_table = materialize_view(delta, view, base.agg)
        catalog.add_view(reference_merge_view_tables(base, delta_table))
        report.view_rows_scanned += base.n_rows + delta_table.n_rows
        views_touched.append(str(view))
    report.views_refreshed = tuple(views_touched)
    rebuilt = []
    for index in list(catalog.indexes()):
        catalog.drop_index(index)
        report.index_entries_rebuilt += len(catalog.build_index(index))
        rebuilt.append(str(index))
    report.indexes_rebuilt = tuple(rebuilt)
    catalog.version += 1
    return report


# ------------------------------------------------------------------ helpers


def hexes(column):
    return [value.hex() for value in column.tolist()]


def table_state(table: ViewTable):
    return (
        str(table.view),
        table.attrs,
        table.agg,
        table.measure,
        table.n_rows,
        dict(table.radix),
        [
            (a, table.key_columns[a].dtype.str, table.key_columns[a].tolist())
            for a in table.attrs
        ],
        hexes(table.values),
        [(name, hexes(column)) for name, column in table.extra_values.items()],
    )


def catalog_state(catalog: Catalog):
    """Everything a refresh must reproduce, in catalog order."""
    fact = catalog.fact
    return {
        "fact": (
            [(name, fact.column(name).tolist()) for name in fact.schema.names],
            hexes(fact.measures),
            [(name, hexes(column)) for name, column in fact.extra_measures.items()],
            dict(fact.radix),
        ),
        "views": [table_state(catalog.view_table(view)) for view in catalog.views()],
        "indexes": [
            (
                str(index),
                catalog.sorted_index(index).rows.tolist(),
                [column.tolist() for column in catalog.sorted_index(index).keys],
            )
            for index in catalog.indexes()
        ],
        "version": catalog.version,
    }


def carried_codes(table: ViewTable):
    """The codes ``table`` holds (``None``: it holds none yet), read
    without computing them."""
    return vars(table).get("codes")


def check_carried_state(catalog: Catalog, bases) -> None:
    """Each view table's carried state after a delta; ``bases`` maps
    each view to its table before the delta."""
    for view in catalog.views():
        table, base = catalog.view_table(view), bases[view]
        columns = [table.key_columns[a] for a in table.attrs]
        rescan = {
            a: int(column.max()) + 1 if len(column) else 0
            for a, column in zip(table.attrs, columns)
        }
        assert table.radix == rescan
        if table.attrs:
            recount = key_codes(columns, [rescan[a] for a in table.attrs])
        else:
            recount = np.zeros(table.n_rows, dtype=np.intp)
        codes = carried_codes(table)
        if recount is None:  # the overflow path re-groups and carries none
            assert codes is None
            continue
        assert codes.dtype == recount.dtype and codes.tolist() == recount.tolist()
        assert not codes.flags.writeable
        if table.n_rows == base.n_rows:
            assert codes is carried_codes(base)


#: measures with signed zeros, which only the summation order tells apart
SIGNED = np.array([-0.0, 0.0, -0.0, 1.5, -2.25, 0.1, 1e16, -1e16])


def draw_measures(rng, n):
    if rng.random() < 0.5:
        return rng.choice(SIGNED, size=n)
    return rng.standard_normal(n) * 100.0


def draw_keys(rng, schema, n, tops):
    """Key columns; a column whose top value is held back (``tops``)
    draws below it, so a delta that draws it grows the radix."""
    return {
        dim.name: rng.integers(0, dim.cardinality - tops[dim.name], size=n)
        for dim in schema.dimensions
    }


#: keys of the two 2**40 attributes; facts hold back the last one
HUGE = np.array([0, 3, 2**39, 2**40 - 2])


def draw_huge(rng, n, pool):
    return {"d0": rng.choice(pool, size=n), "d1": rng.choice(pool, size=n)}


def build_pair(rng, d, dense, agg, extras, huge):
    """Two catalogs built alike from one random fact table."""
    if huge:
        cards = [2**40, 2**40] + [int(c) for c in rng.integers(2, 5, size=d - 2)]
    else:
        cards = [int(c) for c in rng.integers(2, 6, size=d)]
    schema = CubeSchema([Dimension(f"d{i}", c) for i, c in enumerate(cards)])
    names = schema.names
    held = {name: int(rng.integers(0, 2)) for name in names}
    if dense and not huge:
        cells = np.array(
            list(itertools.product(*(range(c - held[n]) for n, c in zip(names, cards))))
        )
        reps = int(rng.integers(1, 3))
        cells = rng.permutation(np.repeat(cells, reps, axis=0))
        columns = {name: cells[:, i] for i, name in enumerate(names)}
        n_rows = len(cells)
    else:
        n_rows = int(rng.integers(1, 40))
        columns = draw_keys(rng, schema, n_rows, held)
    if huge:
        columns.update(draw_huge(rng, n_rows, HUGE[:-1]))
    measures = draw_measures(rng, n_rows)
    extra = {"qty": draw_measures(rng, n_rows)} if extras else None

    subsets = [View(c) for r in range(d + 1) for c in itertools.combinations(names, r)]
    chosen = [View(()), View(names)] + [
        v for v in subsets[1:-1] if rng.random() < 0.5
    ]
    indexes = []
    for view in chosen:
        attrs = sorted(view.attrs)
        for __ in range(int(rng.integers(0, 3)) if attrs else 0):
            k = int(rng.integers(1, len(attrs) + 1))
            key = tuple(rng.permutation(attrs)[:k].tolist())
            indexes.append(Index(view, key))
    order = rng.permutation(len(indexes)).tolist()

    catalogs = []
    for __ in range(2):
        fact = FactTable(schema, columns, measures, extra_measures=extra)
        catalog = Catalog(fact)
        for view in chosen:
            catalog.materialize(view, agg)
        for i in order:
            catalog.build_index(indexes[i])
        catalogs.append(catalog)
    return schema, held, catalogs


CASES = [
    (d, dense, agg, extras, seed)
    for d in range(1, 6)
    for dense in (True, False)
    for agg in ("sum", "count")
    for extras in (False, True)
    for seed in (0, 1)
]


@pytest.mark.parametrize("d,dense,agg,extras,seed", CASES)
def test_deltas_equal_reference(d, dense, agg, extras, seed):
    rng = np.random.default_rng([d, dense, agg == "sum", extras, seed])
    schema, held, (engine, reference) = build_pair(
        rng, d, dense, agg, extras, huge=False
    )
    assert catalog_state(engine) == catalog_state(reference)
    for step in range(6):
        n = int(rng.integers(0, 61))
        tops = held if step < 3 else {name: 0 for name in held}
        columns = draw_keys(rng, schema, n, tops)
        measures = draw_measures(rng, n)
        extra = {"qty": draw_measures(rng, n)} if extras else None
        before = {index: engine.sorted_index(index) for index in engine.indexes()}
        bases = {view: engine.view_table(view) for view in engine.views()}
        got = apply_delta(engine, columns, measures, extra)
        want = reference_apply_delta(reference, columns, measures, extra)
        check_carried_state(engine, bases)
        assert catalog_state(engine) == catalog_state(reference)
        assert (got.delta_rows, got.views_refreshed, got.view_rows_scanned) == (
            want.delta_rows,
            want.views_refreshed,
            want.view_rows_scanned,
        )
        kept = [str(i) for i in engine.indexes() if engine.sorted_index(i) is before[i]]
        assert sorted(kept + list(got.indexes_rebuilt)) == sorted(want.indexes_rebuilt)
        assert got.index_entries_rebuilt == sum(
            len(engine.sorted_index(i)) for i in engine.indexes() if str(i) not in kept
        )


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("agg", ["sum", "count"])
def test_overflowing_key_space_equals_reference(d, agg):
    """Two attributes of cardinality 2**40 overflow the codes: views
    over both fall back to re-grouping, the others still merge by code."""
    rng = np.random.default_rng(d)
    schema, held, (engine, reference) = build_pair(
        rng, d, dense=False, agg=agg, extras=True, huge=True
    )
    for __ in range(6):
        n = int(rng.integers(0, 61))
        columns = draw_keys(rng, schema, n, held)
        columns.update(draw_huge(rng, n, HUGE))
        measures = draw_measures(rng, n)
        extra = {"qty": draw_measures(rng, n)}
        bases = {view: engine.view_table(view) for view in engine.views()}
        got = apply_delta(engine, columns, measures, extra)
        want = reference_apply_delta(reference, columns, measures, extra)
        check_carried_state(engine, bases)
        assert catalog_state(engine) == catalog_state(reference)
        assert got.view_rows_scanned == want.view_rows_scanned


def test_delta_raising_the_radices_of_held_codes_equals_reference():
    """Facts and a first delta hold back a=3 and b=2, so after it every
    view holds codes; a second delta that draws both raises the radices
    of every view but the grand total, whose base is then recoded."""
    schema = CubeSchema([Dimension("a", 4), Dimension("b", 3)])
    cells = np.array(list(itertools.product(range(3), range(2))))
    catalogs = []
    for __ in range(2):
        fact = FactTable(schema, {"a": cells[:, 0], "b": cells[:, 1]}, SIGNED[:6])
        catalog = Catalog(fact)
        for attrs in ((), ("a",), ("b",), ("a", "b")):
            catalog.materialize(View(attrs))
        catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
        catalogs.append(catalog)
    engine, reference = catalogs
    deltas = [
        ({"a": np.array([2, 0, 2]), "b": np.array([1, 1, 0])}, SIGNED[5:8]),
        ({"a": np.array([3, 1]), "b": np.array([0, 2])}, SIGNED[2:4]),
    ]
    for columns, measures in deltas:
        bases = {view: engine.view_table(view) for view in engine.views()}
        apply_delta(engine, columns, measures)
        reference_apply_delta(reference, columns, measures)
        check_carried_state(engine, bases)
        assert catalog_state(engine) == catalog_state(reference)
    assert all(carried_codes(base) is not None for base in bases.values())
    for view, base in bases.items():
        table = engine.view_table(view)
        assert table.radix == {a: schema.cardinality(a) for a in table.attrs}
        assert (carried_codes(table) is carried_codes(base)) == (not table.attrs)


@pytest.mark.parametrize("agg", ["sum", "count"])
@pytest.mark.parametrize("seed", range(3))
def test_reloaded_catalog_merges_like_the_reference(tmp_path, agg, seed):
    """A catalog saved and loaded between deltas holds no codes; its
    next merges code its bases afresh and still equal the reference."""
    rng = np.random.default_rng([seed, agg == "sum"])
    schema, held, (engine, reference) = build_pair(
        rng, 3, dense=bool(seed % 2), agg=agg, extras=True, huge=False
    )
    for step in range(4):
        if step == 2:
            save_catalog(engine, tmp_path)
            engine = load_catalog(tmp_path)
            for view in engine.views():
                assert carried_codes(engine.view_table(view)) is None
        n = int(rng.integers(0, 61))
        tops = held if step < 3 else dict.fromkeys(held, 0)
        columns = draw_keys(rng, schema, n, tops)
        measures = draw_measures(rng, n)
        extra = {"qty": draw_measures(rng, n)}
        bases = {view: engine.view_table(view) for view in engine.views()}
        apply_delta(engine, columns, measures, extra)
        reference_apply_delta(reference, columns, measures, extra)
        check_carried_state(engine, bases)
        got, want = catalog_state(engine), catalog_state(reference)
        del got["version"], want["version"]  # a loaded catalog restarts at 0
        assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_merge_view_tables_equals_reference(seed):
    """Tables merged with themselves, with another fact's view and with
    an empty one, including the grand total and signed zeros."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    schema, held, (catalog, __) = build_pair(
        rng, d, dense=bool(seed % 2), agg="sum", extras=True, huge=False
    )
    other = FactTable(
        schema,
        draw_keys(rng, schema, 25, {name: 0 for name in held}),
        draw_measures(rng, 25),
        extra_measures={"qty": draw_measures(rng, 25)},
    )
    empty = FactTable(
        schema,
        {name: np.zeros(0, dtype=np.int64) for name in schema.names},
        np.zeros(0),
        extra_measures={"qty": np.zeros(0)},
    )
    for view in catalog.views():
        base = catalog.view_table(view)
        deltas = (base, materialize_view(other, view), materialize_view(empty, view))
        for delta in deltas:
            for a, b in ((base, delta), (delta, base)):
                got = merge_view_tables(a, b)
                want = reference_merge_view_tables(a, b)
                assert table_state(got) == table_state(want)


# ------------------------------------------------------------ index reuse


def dense_catalog():
    schema = CubeSchema([Dimension("a", 4), Dimension("b", 3)])
    cells = np.array(list(itertools.product(range(4), range(3))))
    cells = cells[[4, 0, 11, 7, 1, 2, 3, 5, 6, 8, 9, 10]]
    fact = FactTable(schema, {"a": cells[:, 0], "b": cells[:, 1]}, np.arange(12.0))
    catalog = Catalog(fact)
    for attrs in ((), ("a",), ("b",), ("a", "b")):
        catalog.materialize(View(attrs))
    catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
    catalog.build_index(Index(View.of("a"), ("a",)))
    catalog.build_index(Index(View.of("a", "b"), ("a",)))
    catalog.build_index(Index(View.of("b"), ("b",)))
    return catalog


def test_delta_without_new_groups_keeps_every_index():
    catalog = dense_catalog()
    before = {index: catalog.sorted_index(index) for index in catalog.indexes()}
    report = apply_delta(
        catalog, {"a": np.array([3, 0, 3]), "b": np.array([2, 1, 2])}, np.ones(3)
    )
    assert report.indexes_rebuilt == () and report.index_entries_rebuilt == 0
    assert list(catalog.indexes()) == list(before)
    for index, kept in before.items():
        assert catalog.sorted_index(index) is kept
        table = catalog.view_table(index.view)
        fresh = SortedIndex([table.key_columns[a] for a in index.key])
        assert kept.rows.tolist() == fresh.rows.tolist()
        assert [k.tolist() for k in kept.keys] == [k.tolist() for k in fresh.keys]


def test_delta_adding_a_group_rebuilds_that_views_indexes():
    """Facts miss the cell (a=3, b=2) but hit every a and every b: a
    delta holding it grows only view ab."""
    schema = CubeSchema([Dimension("a", 4), Dimension("b", 3)])
    cells = np.array([c for c in itertools.product(range(4), range(3)) if c != (3, 2)])
    catalog = Catalog(
        FactTable(schema, {"a": cells[:, 0], "b": cells[:, 1]}, np.ones(len(cells)))
    )
    for attrs in ((), ("a",), ("b",), ("a", "b")):
        catalog.materialize(View(attrs))
    order = [
        Index(View.of("a", "b"), ("b", "a")),
        Index(View.of("a"), ("a",)),
        Index(View.of("a", "b"), ("a",)),
        Index(View.of("b"), ("b",)),
    ]
    for index in order:
        catalog.build_index(index)
    before = {index: catalog.sorted_index(index) for index in order}
    report = apply_delta(
        catalog, {"a": np.array([3, 1]), "b": np.array([2, 0])}, np.ones(2)
    )
    ab = [index for index in order if index.view == View.of("a", "b")]
    assert report.indexes_rebuilt == tuple(str(index) for index in ab)
    assert report.index_entries_rebuilt == 2 * 12
    assert list(catalog.indexes()) == order
    for index in order:
        assert (catalog.sorted_index(index) is before[index]) == (index not in ab)
        table = catalog.view_table(index.view)
        fresh = SortedIndex([table.key_columns[a] for a in index.key])
        assert catalog.sorted_index(index).rows.tolist() == fresh.rows.tolist()
