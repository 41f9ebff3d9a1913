"""RoutingTable: predictions match the servers, fallback, rank order."""

import pytest

from repro.core.costmodel import LinearCostModel
from repro.core.query import SliceQuery
from repro.cube.generator import dense_fact_table
from repro.cube.query_log import LogEntry
from repro.cube.schema import CubeSchema, Dimension
from repro.distributed import RoutingTable, plan_divergent
from repro.serve import QueryServer
from repro.serve.telemetry import RAW_LABEL


@pytest.fixture(scope="module")
def planned4(dist_model4, dist_counts4):
    return plan_divergent(dist_model4, dist_counts4, "1greedy", 3)


def tied_case():
    """A dense cube where two structures tie: on γ_c σ_a, the view ``ac``
    and the index ``I_abc(abc)`` both cost 12 rows.  The replica's
    catalog loads ``abc`` first, so the server answers from the index."""
    schema = CubeSchema([Dimension("a", 4), Dimension("b", 4), Dimension("c", 3)])
    fact = dense_fact_table(schema, integral_measures=True)
    model = LinearCostModel.from_fact(fact)
    router = RoutingTable(model, [("ac", "abc", "I_abc(abc)")])
    query = SliceQuery(groupby=["c"], selection=["a"])
    return fact, model, router, [LogEntry(query=query, values=(("a", 1),))]


class TestPricing:
    def test_predictions_match_replica_servers(
        self, dist_fact4, dist_model4, dist_log4, planned4
    ):
        """best_plan's predicted cost and structure equal what that
        replica's server records when it actually serves the query — the
        property that makes routed dispatch honest, cost ties included."""
        router4 = planned4[2]
        for fact, model, router, entries in (
            (dist_fact4, dist_model4, router4, dist_log4),
            tied_case(),
        ):
            for replica_id, selection in enumerate(router.selections):
                with QueryServer(fact, selection, cost_model=model) as server:
                    seen = set()
                    for entry in entries:
                        if entry.query in seen:
                            continue
                        seen.add(entry.query)
                        decision = router.best_plan(entry.query, replica_id)
                        outcome = server.serve(entry)
                        assert outcome.predicted_rows == decision.predicted
                        assert outcome.structure == decision.structure
                        assert outcome.fallback == decision.fallback

    def test_tie_goes_to_the_first_structure_in_load_order(self):
        *__, router, entries = tied_case()
        decision = router.best_plan(entries[0].query, 0)
        assert (decision.structure, decision.predicted) == ("I_abc(abc)", 12.0)

    def test_raw_fallback_prices_at_default_cost(self, dist_model4):
        """A selection that cannot answer a query falls back to the raw
        cube at the model's default cost."""
        lattice = dist_model4.lattice
        narrow_view = next(
            lattice.label(view)
            for view in lattice.views()
            if len(view.attrs) == 1
        )
        router = RoutingTable(dist_model4, [(narrow_view,)])
        missed = SliceQuery(
            [name for name in lattice.schema.names if name not in narrow_view][:2]
        )
        decision = router.best_plan(missed, 0)
        assert decision.fallback
        assert decision.structure == RAW_LABEL
        assert decision.predicted == dist_model4.default_cost(missed)


class TestRanking:
    def test_ranking_is_cheapest_first(self, dist_counts4, planned4):
        router = planned4[2]
        for query in dist_counts4:
            ranking = router.ranking(query)
            assert len(ranking) == router.n_replicas
            costs = [decision.predicted for decision in ranking]
            assert costs == sorted(costs)
            assert router.route(query) == ranking[0]

    def test_ranking_memoized(self, dist_counts4, planned4):
        router = planned4[2]
        query = next(iter(dist_counts4))
        assert router.ranking(query) is router.ranking(query)

    def test_to_dict_shape(self, dist_counts4, planned4):
        router = planned4[2]
        table = router.to_dict(list(dist_counts4))
        assert table["replicas"] == router.n_replicas
        assert len(table["routes"]) == len(set(dist_counts4))
        for route in table["routes"].values():
            assert 0 <= route["replica"] < router.n_replicas
            assert route["predicted_rows"] > 0

    def test_empty_selections_rejected(self, dist_model4):
        with pytest.raises(ValueError, match="selections"):
            RoutingTable(dist_model4, [])
