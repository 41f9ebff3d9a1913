"""Structure labels over multi-character attribute names.

On a cube whose dimensions are ``store``/``item``/``week`` (as in
``examples/closed_loop_advisor.py``), the label ``week`` names the
attribute ``week``, not the view {w, e, k}, and ``I_store(store)`` is an
index on ``store``.  Every consumer of selection labels — the server's
catalog, the divergent router, the observed-cost ledger and the
re-advisor — reads them through one parser against the schema.
"""

import pytest

from repro.algorithms import RGreedy, serving_advise
from repro.checks import golden_answers
from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, parse_structure
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.generator import dense_fact_table
from repro.cube.query_log import generate_query_log, pattern_counts
from repro.cube.schema import CubeSchema, Dimension
from repro.distributed.routing import RoutingTable
from repro.serve import QueryServer
from repro.serve.adaptive import AdaptiveReselector, observed_cost

SCHEMA = CubeSchema(
    [Dimension("store", 5), Dimension("item", 8), Dimension("week", 4)]
)


@pytest.fixture(scope="module")
def fact():
    return dense_fact_table(SCHEMA, rng=0, integral_measures=True)


@pytest.fixture(scope="module")
def model(fact):
    return LinearCostModel.from_fact(fact)


@pytest.fixture(scope="module")
def selected(model):
    return serving_advise(model).selected


@pytest.fixture(scope="module")
def log():
    return generate_query_log(SCHEMA, 200, rng=3)


def test_advise_picks_one_attribute_labels(selected):
    assert {"week", "store", "I_store(store)", "I_week(week)"} <= set(selected)


def test_labels_name_schema_attributes():
    names = SCHEMA.names
    assert parse_structure("week", names) == View.of("week")
    assert parse_structure("I_store(store)", names) == Index(View.of("store"), ("store",))
    assert parse_structure("I_week,store(store,week)", names) == Index(
        View.of("store", "week"), ("week", "store")
    )


def test_server_answers_every_query_exactly(fact, model, selected, log):
    with QueryServer(fact, selected, cost_model=model) as server:
        outcomes = server.serve_batch(log)
    golden = golden_answers(fact, model, log)
    assert len(outcomes) == len(golden) == 200
    assert [outcome.groups == answer for outcome, answer in zip(outcomes, golden)] == [
        True
    ] * 200
    assert not any(outcome.fallback for outcome in outcomes)


def test_router_reads_week_as_the_week_view(model):
    table = RoutingTable(
        model, [["store,item,week", "store,week", "week", "store", "I_store(store)"]]
    )
    decision = table.best_plan(SliceQuery(groupby=["week"]), 0)
    assert decision.structure == "week"
    assert decision.predicted == 4.0


def test_observed_cost_and_readvise(model, selected, log):
    counts = pattern_counts(log)
    tau = observed_cost(model.lattice, selected, counts)
    assert 0.0 < tau < float("inf")
    lattice = model.lattice
    reselector = AdaptiveReselector(
        lattice,
        RGreedy(1),
        space=3.0 * lattice.size(lattice.top),
        seed=(lattice.label(lattice.top),),
    )
    outcome = reselector.readvise(counts, selected)
    assert outcome.result is not None
    assert outcome.tau_current == tau
