"""Tests for the query executor: correctness of results and of the
rows-processed accounting the cost model is validated against."""

import numpy as np
import pytest

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.cube.generator import dense_fact_table, generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.table import FactTable
from repro.estimation.sizes import exact_sizes_from_rows


@pytest.fixture(scope="module")
def setup():
    schema = CubeSchema([Dimension("a", 10), Dimension("b", 6), Dimension("c", 4)])
    fact = generate_fact_table(schema, 800, rng=5)
    lattice = CubeLattice.from_estimator(
        schema, exact_sizes_from_rows(schema, fact.columns)
    )
    catalog = Catalog(fact)
    for view in lattice.views():
        catalog.materialize(view)
    for index in enumerate_fat_indexes(View.of("a", "b", "c")):
        catalog.build_index(index)
    catalog.build_index(Index(View.of("a", "b"), ("a", "b")))
    executor = Executor(catalog, cost_model=LinearCostModel(lattice))
    return schema, fact, lattice, catalog, executor


def brute_force(fact, query, values):
    """Reference evaluation straight off the fact table."""
    mask = np.ones(fact.n_rows, dtype=bool)
    for attr, val in values.items():
        mask &= fact.column(attr) == val
    groups = {}
    gb = sorted(query.groupby, key=lambda a: fact.schema.names.index(a))
    for row in np.flatnonzero(mask):
        key = tuple(int(fact.column(a)[row]) for a in gb)
        groups[key] = groups.get(key, 0.0) + float(fact.measures[row])
    return groups


class TestCorrectness:
    @pytest.mark.parametrize(
        "groupby,selection",
        [
            (("a",), ("b",)),
            (("b",), ("a",)),
            ((), ("a", "b")),
            (("a", "b"), ("c",)),
            (("c",), ("a", "b")),
            ((), ("a", "b", "c")),
        ],
    )
    def test_results_match_brute_force(self, setup, groupby, selection):
        schema, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=groupby, selection=selection)
        rng = np.random.default_rng(0)
        for __ in range(5):
            row = int(rng.integers(0, fact.n_rows))
            values = {a: int(fact.column(a)[row]) for a in selection}
            result = executor.execute(query, values)
            expected = brute_force(fact, query, values)
            assert set(result.groups) == set(expected)
            for key in expected:
                assert result.groups[key] == pytest.approx(expected[key])

    def test_subcube_query_full_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("a",))
        result = executor.execute(query, {})
        assert result.rows_processed == lattice.size(View.of("a"))
        assert len(result.groups) == lattice.size(View.of("a"))

    def test_missing_selection_values_rejected(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        with pytest.raises(ValueError, match="missing selection values"):
            executor.execute(query, {})

    def test_plan_view_must_answer(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        with pytest.raises(ValueError, match="cannot answer"):
            executor.execute(query, {"b": 0}, plan=(View.of("a"), None))

    def test_plan_index_must_match_view(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        idx = Index(View.of("a", "b"), ("b", "a"))
        with pytest.raises(ValueError, match="not on view"):
            executor.execute(query, {"b": 0}, plan=(View.of("a", "b", "c"), idx))

    def test_plan_on_unbuilt_structures_rejected(self):
        """A forced plan naming a view that is not materialized, or an
        index that is not built, fails with a ``ValueError`` naming it."""
        schema = CubeSchema([Dimension("a", 4), Dimension("b", 4), Dimension("c", 3)])
        catalog = Catalog(dense_fact_table(schema))
        abc = View.of("a", "b", "c")
        catalog.materialize(abc)
        catalog.build_index(Index(abc, ("a", "b", "c")))
        executor = Executor(catalog)
        query = SliceQuery(groupby=("c",), selection=("a",))
        with pytest.raises(ValueError, match=r"view ac is not materialized"):
            executor.execute(query, {"a": 0}, plan=(View.of("a", "c"), None))
        unbuilt = Index(abc, ("a", "c", "b"))
        with pytest.raises(ValueError, match=r"index I_acb\(abc\) is not built"):
            executor.execute(query, {"a": 0}, plan=(abc, unbuilt))


class TestRowsProcessed:
    def test_scan_plan_counts_whole_view(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        view = View.of("a", "b")
        result = executor.execute(query, {"b": 1}, plan=(view, None))
        assert result.rows_processed == lattice.size(view)

    def test_index_plan_counts_only_matching_prefix(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b")
        idx = Index(view, ("a", "b"))
        query = SliceQuery(groupby=("b",), selection=("a",))
        table = catalog.view_table(view)
        value = int(table.key_columns["a"][0])
        result = executor.execute(query, {"a": value}, plan=(view, idx))
        expected = int((table.key_columns["a"] == value).sum())
        assert result.rows_processed == expected

    def test_index_with_no_usable_prefix_falls_back_to_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b")
        idx = Index(view, ("a", "b"))
        query = SliceQuery(groupby=("a",), selection=("b",))  # b is not a prefix
        result = executor.execute(query, {"b": 0}, plan=(view, idx))
        assert result.rows_processed == lattice.size(view)

    def test_same_answer_via_index_and_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b", "c")
        idx = Index(view, ("a", "b", "c"))
        query = SliceQuery(groupby=("c",), selection=("a", "b"))
        values = {"a": int(fact.column("a")[0]), "b": int(fact.column("b")[0])}
        via_index = executor.execute(query, values, plan=(view, idx))
        via_scan = executor.execute(query, values, plan=(view, None))
        assert via_index.groups.keys() == via_scan.groups.keys()
        for key in via_scan.groups:
            assert via_index.groups[key] == pytest.approx(via_scan.groups[key])
        assert via_index.rows_processed <= via_scan.rows_processed


class TestPlanning:
    def test_chooses_cheapest_plan(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("b",), selection=("a",))
        plan = executor.choose_plan(query)
        # ab with the ab-index beats any scan
        assert plan.view == View.of("a", "b")
        assert plan.index == Index(View.of("a", "b"), ("a", "b"))
        assert (plan.kind, plan.prefix) == ("prefix", ("a",))
        assert plan.structure == "I_ab(ab)"

    def test_subcube_query_prefers_smallest_view(self, setup):
        *__, executor = setup
        plan = executor.choose_plan(SliceQuery(groupby=("a",)))
        assert (plan.kind, plan.view, plan.index) == ("scan", View.of("a"), None)

    def test_no_plan_raises(self):
        schema = CubeSchema([Dimension("a", 4)])
        fact = generate_fact_table(schema, 10, rng=0)
        executor = Executor(Catalog(fact))
        with pytest.raises(LookupError):
            executor.choose_plan(SliceQuery(groupby=("a",)))

    def test_statistics_follow_a_delta(self):
        """An executor kept across a delta prices plans from the new facts."""
        schema = CubeSchema([Dimension("a", 50), Dimension("b", 5)])
        cells = np.array([(a, b) for a in range(2) for b in range(5)])
        fact = FactTable(
            schema, {"a": cells[:, 0], "b": cells[:, 1]}, np.ones(len(cells))
        )
        catalog = Catalog(fact)
        view = View.of("a", "b")
        catalog.materialize(view)
        catalog.build_index(Index(view, ("a", "b")))
        kept = Executor(catalog)
        query = SliceQuery(groupby=("b",), selection=("a",))
        kept.explain(query)
        grown = np.array([(a, b) for a in range(2, 50) for b in range(5)])
        apply_delta(
            catalog, {"a": grown[:, 0], "b": grown[:, 1]}, np.ones(len(grown))
        )
        assert kept.explain(query) == Executor(catalog).explain(query)
        result = kept.execute(query, {"a": 7})
        assert result.index is not None and result.rows_processed == 5

    def test_statistics_memo_keeps_one_version(self):
        """Deltas replace the distinct-count memo rather than growing it:
        after several versions it holds one version's entries, and plans
        still equal a fresh executor's."""
        schema = CubeSchema([Dimension("a", 6), Dimension("b", 5), Dimension("c", 4)])
        catalog = Catalog(dense_fact_table(schema))
        top = View.of("a", "b", "c")
        catalog.materialize(top)
        for index in enumerate_fat_indexes(top):
            catalog.build_index(index)
        kept = Executor(catalog)
        patterns = list(enumerate_slice_queries(schema.names))
        rng = np.random.default_rng(3)
        for __ in range(6):
            for query in patterns:
                kept.explain(query)
            delta = {d.name: rng.integers(0, d.cardinality, 10) for d in schema}
            apply_delta(catalog, delta, np.ones(10))
        fresh = Executor(catalog)
        for query in patterns:
            assert kept.explain(query) == fresh.explain(query), str(query)
        assert kept._distinct[0] == catalog.version == 6
        assert kept._distinct[1] == fresh._distinct[1]

    def test_planning_without_cost_model_uses_statistics(self, setup):
        schema, fact, lattice, catalog, __ = setup
        executor = Executor(catalog)  # no cost model: actual statistics
        query = SliceQuery(groupby=("b",), selection=("a",))
        plan = executor.choose_plan(query)
        assert plan.index is not None
        assert plan.prefix == plan.index.usable_prefix(query) != ()


class TestExplain:
    def test_head_matches_choose_plan(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("b",), selection=("a",))
        choices = executor.explain(query)
        assert choices[0] == executor.choose_plan(query)

        # cost ties: on a dense cube a later view's scan can cost exactly
        # what an earlier view's index does; the head must still be the
        # first strict minimum in scan order, which choose_plan picks
        schema = CubeSchema(
            [Dimension("a", 4), Dimension("b", 4), Dimension("c", 3)]
        )
        fact = dense_fact_table(schema)
        catalog = Catalog(fact)
        catalog.materialize(View.of("a", "b", "c"))
        catalog.build_index(Index(View.of("a", "b", "c"), ("a", "b", "c")))
        catalog.materialize(View.of("a", "c"))
        for model in (None, LinearCostModel.from_fact(fact)):
            tied = Executor(catalog, cost_model=model)
            for query in enumerate_slice_queries(schema.names):
                choices = tied.explain(query)
                if not choices:
                    continue
                assert choices[0] == tied.choose_plan(query), str(query)

    def test_sorted_by_cost(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("b",), selection=("a",)))
        costs = [c.predicted for c in choices]
        assert costs == sorted(costs)

    def test_includes_scan_and_index_alternatives(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("c",), selection=("a", "b")))
        kinds = {c.index is None for c in choices}
        assert kinds == {True, False}

    def test_usable_prefix_recorded(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("c",), selection=("a", "b"))
        for choice in executor.explain(query):
            if choice.index is not None:
                assert choice.prefix == choice.index.usable_prefix(query)
            assert choice.kind == ("prefix" if choice.prefix else "scan")

    def test_str_rendering(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("b",), selection=("a",)))
        assert "rows" in str(choices[0])

    def test_unanswerable_query_has_no_choices(self):
        schema = CubeSchema([Dimension("a", 4), Dimension("b", 4)])
        fact = generate_fact_table(schema, 20, rng=0)
        catalog = Catalog(fact)
        catalog.materialize(View.of("a"))
        executor = Executor(catalog)
        assert executor.explain(SliceQuery(groupby=("b",))) == []
