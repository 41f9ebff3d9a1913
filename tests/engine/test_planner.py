"""The one planner against the plan-choice loops it replaced.

Plan choice used to be coded once per caller: ``Executor.explain`` sorted
every candidate stably by cost, ``Executor.plan_with_cost`` scanned for
the first strict minimum, and ``serve.batch.plan_for`` re-derived the
kind, label and usable prefix around that minimum.  Those loops are kept
here verbatim as the reference.  ``Executor.explain``,
``Executor.choose_plan`` and ``plan_for`` must equal them, compared with
``==`` on whole :class:`Plan` records (order, costs as exact floats,
labels and prefixes), on random dense and sparse catalogs at d=3..5 with
and without a cost model, for every slice pattern, and on tie-heavy
dense cubes where only the first-minimum rule decides.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.query import enumerate_slice_queries
from repro.cube.generator import dense_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, Plan
from repro.engine.pipeline import materialize_selection
from repro.engine.table import FactTable
from repro.serve.batch import plan_for
from repro.serve.telemetry import RAW_LABEL

#: Cardinalities of the random cubes (d=3..5).
CARDINALITIES = [(4, 3, 2), (3, 3, 2, 2), (3, 2, 2, 2, 2)]
#: Equal cardinalities make equal view sizes, so many plans tie.
TIED_CARDINALITIES = [(3, 3, 3), (2, 2, 2, 2)]
#: Share of cells holding facts in the sparse cubes.
DENSITY = 0.6
#: Random catalogs planned per cube.
CATALOGS = 4


def reference_cost(executor, query, view, index):
    """The former ``Executor._estimated_cost``, without its memo."""
    if executor.cost_model is not None:
        return executor.cost_model.cost(query, view, index)
    table = executor.catalog.view_table(view)
    if index is None:
        return float(table.n_rows)
    prefix = index.usable_prefix(query)
    if not prefix:
        return float(table.n_rows)
    distinct = executor.catalog.fact.distinct_count(prefix)
    return max(1.0, table.n_rows / max(1, distinct))


def reference_label(schema, view, index=None):
    """The former ``CubeLattice.label`` / ``index_label`` join rule."""
    attrs = schema.sort_attrs(view.attrs)
    if not attrs:
        label = "none"
    elif all(len(a) == 1 for a in attrs):
        label = "".join(attrs)
    else:
        label = ",".join(attrs)
    if index is None:
        return label
    key = index.key
    joined = "".join(key) if all(len(a) == 1 for a in key) else ",".join(key)
    return f"I_{joined}({label})"


def reference_record(executor, query, view, index, cost):
    """A candidate as the former ``plan_for`` described its head."""
    prefix = index.usable_prefix(query) if index is not None else ()
    return Plan(
        kind="prefix" if (index is not None and prefix) else "scan",
        view=view,
        index=index,
        prefix=prefix,
        structure=reference_label(executor.catalog.fact.schema, view, index),
        predicted=cost,
    )


def reference_explain(executor, query):
    """The former ``Executor.explain`` loop: every candidate, sorted
    stably by cost."""
    choices = []
    for view in executor.catalog.views():
        if not query.answerable_by(view):
            continue
        for index in [None] + executor.catalog.indexes_on(view):
            choices.append(
                (view, index, reference_cost(executor, query, view, index))
            )
    choices.sort(key=lambda c: c[2])
    return [reference_record(executor, query, *choice) for choice in choices]


def reference_plan_with_cost(executor, query):
    """The former ``Executor.plan_with_cost`` loop: the first strict
    minimum in scan order."""
    best = None
    best_cost = float("inf")
    for view in executor.catalog.views():
        if not query.answerable_by(view):
            continue
        candidates = [None] + executor.catalog.indexes_on(view)
        for index in candidates:
            cost = reference_cost(executor, query, view, index)
            if cost < best_cost:
                best_cost = cost
                best = (view, index)
    if best is None:
        raise LookupError(f"no materialized view answers {query}")
    return best[0], best[1], best_cost


def reference_plan_for(executor, cost_model, query):
    """The former ``serve.batch.plan_for`` record."""
    try:
        view, index, predicted = reference_plan_with_cost(executor, query)
    except LookupError:
        return Plan("raw", None, None, (), RAW_LABEL, cost_model.default_cost(query))
    return reference_record(executor, query, view, index, predicted)


def sparse_fact(schema, rng):
    """Facts in a random ``DENSITY`` share of the cube's cells."""
    dense = dense_fact_table(schema, rng=rng)
    keep = np.sort(
        rng.choice(dense.n_rows, int(DENSITY * dense.n_rows), replace=False)
    )
    return FactTable(
        schema,
        {a: dense.columns[a][keep] for a in schema.names},
        dense.measures[keep],
    )


def shuffled(key, rng):
    return tuple(key[i] for i in rng.permutation(len(key)))


def random_catalog(fact, rng):
    """Random views and indexes, materialized in a random order (so scan
    order is not load order); some patterns stay unanswerable."""
    lattice = CubeLattice.from_estimator(fact.schema, lambda view: 1.0)
    views = [v for v in lattice.views() if rng.random() < 0.5]
    catalog = Catalog(fact)
    for position in rng.permutation(len(views)):
        catalog.materialize(views[position])
    indexes = []
    for view in views:
        if view.key:
            for __ in range(rng.integers(0, 3)):
                indexes.append(Index(view, shuffled(view.key, rng)))
        if len(view) > 1 and rng.random() < 0.5:
            indexes.append(Index(view, view.key[:1]))  # a non-fat key
    for position in rng.permutation(len(indexes)):
        catalog.build_index(indexes[position])
    return catalog


def loaded_catalog(fact, rng):
    """Random views with all their fat indexes, loaded as serving loads
    a selection (catalog order is load order)."""
    lattice = CubeLattice.from_estimator(fact.schema, lambda view: 1.0)
    views = [lattice.top] + [v for v in lattice.views() if rng.random() < 0.5]
    indexes = [
        Index(view, shuffled(view.key, rng))
        for view in views
        for __ in range(rng.integers(0, 3) if view.key else 0)
    ]
    catalog = Catalog(fact)
    materialize_selection(catalog, views, indexes)
    return catalog


def assert_planner_matches_reference(catalog):
    fact = catalog.fact
    exact = LinearCostModel.from_fact(fact)
    for model in (exact, None):
        executor = Executor(catalog, cost_model=model)
        state = SimpleNamespace(plan_cache={}, executor=executor)
        for query in enumerate_slice_queries(fact.schema.names):
            ranking = executor.explain(query)
            assert ranking == reference_explain(executor, query), str(query)
            expected = reference_plan_for(executor, exact, query)
            assert plan_for(state, exact, query) == expected, str(query)
            if expected.kind == "raw":
                assert ranking == []
                with pytest.raises(LookupError):
                    executor.choose_plan(query)
            else:
                assert executor.choose_plan(query) == expected == ranking[0]


def cubes():
    for cards in CARDINALITIES:
        schema = CubeSchema([Dimension(f"d{i}", c) for i, c in enumerate(cards)])
        rng = np.random.default_rng(len(cards))
        yield pytest.param(schema, dense_fact_table(schema, rng=rng), id=f"d{len(cards)}-dense")
        yield pytest.param(schema, sparse_fact(schema, rng), id=f"d{len(cards)}-sparse")


@pytest.mark.parametrize("schema,fact", list(cubes()))
def test_random_catalogs_plan_as_before(schema, fact):
    rng = np.random.default_rng(fact.n_rows)
    for __ in range(CATALOGS):
        assert_planner_matches_reference(random_catalog(fact, rng))
    assert_planner_matches_reference(loaded_catalog(fact, rng))


@pytest.mark.parametrize("cards", TIED_CARDINALITIES, ids=str)
def test_ties_go_to_the_first_minimum(cards):
    """Equal cardinalities: a view ties with its mirror images and a scan
    with an index on a bigger view, so only scan order decides."""
    schema = CubeSchema([Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)])
    fact = dense_fact_table(schema, rng=0)
    lattice = CubeLattice.from_estimator(schema, lambda view: 1.0)
    catalog = Catalog(fact)
    for view in reversed(list(lattice.views())):
        catalog.materialize(view)
        for index in enumerate_fat_indexes(view):
            catalog.build_index(index)
    assert_planner_matches_reference(catalog)
    executor = Executor(catalog, LinearCostModel.from_fact(fact))
    tied = 0
    for query in enumerate_slice_queries(schema.names):
        ranking = executor.explain(query)
        tied += len(ranking) > 1 and ranking[0].predicted == ranking[1].predicted
    assert tied > 0, "the fixture has no cost ties"
