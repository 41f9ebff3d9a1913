"""A delta refresh that fails part-way changes nothing.

``apply_delta`` stages the extended fact table, the merged views and the
kept or rebuilt indexes, and publishes them, with the version bump, only
once all are built.  A failure injected at the fact append, any view
merge or any index build must leave the catalog's fact table, version,
view tables and sorted indexes the same objects in the same order;
retrying the delta then gives the catalog that an uninterrupted run
gives.  At server level, the
answers after such a failure still equal a raw scan of the server's
facts.
"""

import itertools

import numpy as np
import pytest

import repro.engine.catalog as catalog_module
import repro.engine.maintenance as maintenance
from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog, SortedIndex
from repro.engine.maintenance import apply_delta
from repro.engine.table import FactTable
from repro.serve import QueryServer, ResultCache
from repro.serve.batch import execute_raw, raw_plan

from tests.engine.test_maintenance_reference import catalog_state
from tests.serve.test_server import all_pattern_entries

SCHEMA = CubeSchema([Dimension("a", 10), Dimension("b", 6)])
VIEWS = [View(()), View.of("a"), View.of("b"), View.of("a", "b")]
INDEXES = [Index(View.of("a", "b"), ("a", "b")), Index(View.of("a", "b"), ("b", "a"))]


def make_catalog() -> Catalog:
    """A 10x6 cube with 30 facts, views {}/a/b/ab and two indexes on ab."""
    catalog = Catalog(generate_fact_table(SCHEMA, 30, rng=0))
    for view in VIEWS:
        catalog.materialize(view)
    for index in INDEXES:
        catalog.build_index(index)
    return catalog


def make_delta():
    delta = generate_fact_table(SCHEMA, 20, rng=1)
    return delta.columns, delta.measures


def structures(catalog: Catalog) -> list:
    """The catalog's published objects, in catalog order."""
    return [
        catalog.fact,
        *((view, catalog.view_table(view)) for view in catalog.views()),
        *((index, catalog.sorted_index(index)) for index in catalog.indexes()),
    ]


def same_objects(before: list, after: list) -> bool:
    if len(before) != len(after) or before[0] is not after[0]:
        return False
    return all(
        key == other_key and value is other_value
        for (key, value), (other_key, other_value) in zip(before[1:], after[1:])
    )


def failing_on(call: int, make):
    """``make`` that raises ``MemoryError`` on its ``call``-th call."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == call:
            raise MemoryError("injected")
        return make(*args, **kwargs)

    return wrapper


def uninterrupted_state():
    catalog = make_catalog()
    report = apply_delta(catalog, *make_delta())
    return catalog_state(catalog), report


def test_uninterrupted_delta_merges_every_view_and_rebuilds_both_indexes():
    __, report = uninterrupted_state()
    assert len(report.views_refreshed) == len(VIEWS)
    assert report.indexes_rebuilt == tuple(str(index) for index in INDEXES)


# one injection point per staged structure: the extended fact table
# (FactTable.append of the validated delta), each view merge and each
# index build
INJECTIONS = [pytest.param(FactTable, "append", 1, id="FactTable.append-1")]
INJECTIONS += [
    pytest.param(maintenance, "ViewTable", n, id=f"ViewTable-{n}")
    for n in range(1, len(VIEWS) + 1)
]
INJECTIONS += [
    pytest.param(catalog_module, "SortedIndex", n, id=f"SortedIndex-{n}")
    for n in range(1, len(INDEXES) + 1)
]


@pytest.mark.parametrize("owner,name,call", INJECTIONS)
def test_failure_leaves_catalog_untouched_and_retry_completes(
    monkeypatch, owner, name, call
):
    catalog = make_catalog()
    before, state = structures(catalog), catalog_state(catalog)
    version = catalog.version
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, failing_on(call, getattr(owner, name)))
        with pytest.raises(MemoryError, match="injected"):
            apply_delta(catalog, *make_delta())
    assert same_objects(before, structures(catalog))
    assert catalog.version == version
    assert catalog_state(catalog) == state

    apply_delta(catalog, *make_delta())
    assert catalog_state(catalog) == uninterrupted_state()[0]


def test_failed_server_delta_keeps_answers_equal_to_raw_scan(monkeypatch):
    # integral measures: every aggregation order gives the same sums
    generated = generate_fact_table(SCHEMA, 30, rng=0)
    fact = FactTable(SCHEMA, generated.columns, np.rint(generated.measures))
    model = LinearCostModel.from_fact(fact)
    server = QueryServer(
        fact,
        ["ab", "none", "b", "a", "I_ab(ab)", "I_ba(ab)"],
        cost_model=model,
        cache=ResultCache(),
    )
    entries = all_pattern_entries(SCHEMA, per_pattern=3)
    server.serve_batch(entries[::2])  # cache some answers, execute the rest later
    columns, measures = make_delta()
    with monkeypatch.context() as patch:
        patch.setattr(catalog_module, "SortedIndex", failing_on(2, SortedIndex))
        with pytest.raises(MemoryError, match="injected"):
            server.apply_delta(columns, np.rint(measures))
    for outcome in server.serve_batch(entries):
        entry = outcome.entry
        raw = execute_raw(server.fact, entry, raw_plan(model, entry.query))
        assert outcome.groups == raw.groups, f"{entry.query} {entry.values}"
