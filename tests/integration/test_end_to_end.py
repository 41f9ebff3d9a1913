"""Integration: selection → physical materialization → execution.

These tests close the loop the paper leaves implicit: the space the
algorithms account for matches the rows the engine actually stores, and
the τ they optimize matches the rows the engine actually processes.
"""

import numpy as np
import pytest

from repro.algorithms import FIT_STRICT, InnerLevelGreedy, RGreedy
from repro.core.costmodel import LinearCostModel
from repro.core.lattice import CubeLattice
from repro.core.query import enumerate_slice_queries
from repro.core.qvgraph import QueryViewGraph
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.estimation.sizes import exact_sizes_from_rows


@pytest.fixture(scope="module")
def stack():
    schema = CubeSchema([Dimension("a", 25), Dimension("b", 12), Dimension("c", 8)])
    fact = generate_fact_table(schema, 3_000, rng=13, skew={"a": 0.4})
    lattice = CubeLattice.from_estimator(
        schema, exact_sizes_from_rows(schema, fact.columns)
    )
    graph = QueryViewGraph.from_cube(lattice)
    return schema, fact, lattice, graph


def materialize_selection(fact, graph, result) -> Catalog:
    catalog = Catalog(fact)
    for name in result.selected:
        struct = graph.structure(name)
        if struct.is_view:
            catalog.materialize(struct.payload)
    for name in result.selected:
        struct = graph.structure(name)
        if struct.is_index:
            catalog.build_index(struct.payload)
    return catalog


class TestSpaceAccountingMatchesPhysicalRows:
    @pytest.mark.parametrize("algo", [RGreedy(1), RGreedy(2), InnerLevelGreedy(fit=FIT_STRICT)])
    def test_catalog_rows_equal_accounted_space(self, stack, algo):
        schema, fact, lattice, graph = stack
        top = lattice.label(lattice.top)
        budget = lattice.size(lattice.top) + 0.3 * (
            graph.total_space() - lattice.size(lattice.top)
        )
        result = algo.run(graph, budget, seed=(top,))
        catalog = materialize_selection(fact, graph, result)
        assert catalog.total_rows() == pytest.approx(result.space_used)


class TestPredictedTauMatchesExecution:
    def test_average_measured_rows_tracks_predicted_tau(self, stack):
        """Execute every slice query (averaging over distinct prefix
        values for index plans); the measured total must match τ."""
        schema, fact, lattice, graph = stack
        top = lattice.label(lattice.top)
        budget = lattice.size(lattice.top) + 0.4 * (
            graph.total_space() - lattice.size(lattice.top)
        )
        result = RGreedy(2).run(graph, budget, seed=(top,))
        catalog = materialize_selection(fact, graph, result)
        model = LinearCostModel(lattice)
        executor = Executor(catalog, cost_model=model)

        total_measured = 0.0
        rng = np.random.default_rng(3)
        for query in enumerate_slice_queries(schema.names):
            plan = executor.choose_plan(query)
            view, index, prefix = plan.view, plan.index, plan.prefix
            if not prefix:
                values = {}
                if query.selection:
                    row = int(rng.integers(0, fact.n_rows))
                    values = {
                        a: int(fact.column(a)[row]) for a in query.selection
                    }
                res = executor.execute(query, values, plan=(view, index))
                total_measured += res.rows_processed
                continue
            # average over all distinct prefix combinations = model cost
            stacked = np.stack([fact.column(a) for a in prefix], axis=1)
            distinct = np.unique(stacked, axis=0)
            anchor = int(rng.integers(0, fact.n_rows))
            residual = {
                a: int(fact.column(a)[anchor])
                for a in query.selection - set(prefix)
            }
            subtotal = 0
            for combo in distinct:
                values = dict(residual)
                values.update({a: int(v) for a, v in zip(prefix, combo)})
                res = executor.execute(query, values, plan=(view, index))
                subtotal += res.rows_processed
            total_measured += subtotal / len(distinct)

        assert total_measured == pytest.approx(result.tau, rel=0.01)

    def test_every_query_answerable_from_selection(self, stack):
        schema, fact, lattice, graph = stack
        top = lattice.label(lattice.top)
        result = RGreedy(1).run(graph, lattice.size(lattice.top) * 1.5, seed=(top,))
        catalog = materialize_selection(fact, graph, result)
        executor = Executor(catalog)
        for query in enumerate_slice_queries(schema.names):
            assert query.answerable_by(executor.choose_plan(query).view)


class TestEstimatedVsExactSizes:
    def test_analytical_sizes_track_actual_independent_cube(self):
        """With independent uniform dimensions, the analytical model's
        sizes stay within a few percent of the realized distinct counts
        — the [HRU96] premise behind the Section 6 methodology."""
        from repro.estimation.sizes import analytical_view_size

        schema = CubeSchema([Dimension("a", 30), Dimension("b", 20)])
        fact = generate_fact_table(schema, 2_000, rng=21)
        from repro.core.view import View

        for attrs in (("a",), ("b",), ("a", "b")):
            predicted = analytical_view_size(schema, View(attrs), fact.n_rows)
            actual = fact.distinct_count(attrs)
            assert predicted == pytest.approx(actual, rel=0.06)
