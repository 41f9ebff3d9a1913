"""Contract tests every selection algorithm must satisfy.

These are the invariants a caller may rely on regardless of which
algorithm produced the selection: admissibility, space accounting,
benefit bookkeeping, determinism, and sane behaviour on degenerate
graphs.  They run over the paper instances and random unit-space graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    FIT_PAPER,
    FIT_STRICT,
    BranchAndBoundOptimal,
    HRUGreedy,
    InnerLevelGreedy,
    RGreedy,
    TwoStep,
)
from repro.algorithms.base import ChainSink
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph

from tests.conftest import unit_graph_strategy

ALGORITHMS = {
    "1-greedy": lambda: RGreedy(1, fit=FIT_STRICT),
    "2-greedy": lambda: RGreedy(2, fit=FIT_STRICT),
    "3-greedy": lambda: RGreedy(3, fit=FIT_STRICT),
    "inner-level": lambda: InnerLevelGreedy(fit=FIT_STRICT),
    "hru": lambda: HRUGreedy(fit=FIT_STRICT),
    "two-step": lambda: TwoStep(0.5, fit=FIT_STRICT),
    "optimal": lambda: BranchAndBoundOptimal(),
}

PAPER_MODE = {
    "1-greedy": lambda: RGreedy(1, fit=FIT_PAPER),
    "2-greedy": lambda: RGreedy(2, fit=FIT_PAPER),
    "inner-level": lambda: InnerLevelGreedy(fit=FIT_PAPER),
}


def assert_contract(graph, result, space, strict):
    engine = BenefitEngine(graph)
    ids = [engine.structure_id(name) for name in result.selected]
    # admissible: indexes always with their views
    assert engine.is_admissible(ids)
    # no duplicates
    assert len(set(result.selected)) == len(result.selected)
    # space accounting
    assert result.space_used == pytest.approx(engine.space_of(ids))
    if strict:
        assert result.space_used <= space + 1e-9
    # benefit bookkeeping: recommit and compare τ
    engine.reset()
    views_first = sorted(ids, key=lambda i: not engine.is_view[i])
    engine.commit(views_first)
    assert engine.tau() == pytest.approx(result.tau)
    assert result.benefit == pytest.approx(result.initial_tau - result.tau)
    assert result.benefit >= -1e-9
    assert result.benefit <= engine.max_achievable_benefit() + 1e-9


@pytest.mark.parametrize("name", list(ALGORITHMS))
class TestOnPaperInstances:
    def test_figure2_contract(self, name, fig2_g):
        result = ALGORITHMS[name]().run(fig2_g, 7)
        assert_contract(fig2_g, result, 7, strict=True)

    def test_tpcd_contract(self, name, tpcd_g):
        if name == "optimal":
            pytest.skip("exact search on the full TPC-D graph is out of budget")
        result = ALGORITHMS[name]().run(tpcd_g, 25e6, seed=("psc",))
        assert_contract(tpcd_g, result, 25e6, strict=True)

    def test_deterministic_on_figure2(self, name, fig2_g):
        a = ALGORITHMS[name]().run(fig2_g, 7)
        b = ALGORITHMS[name]().run(fig2_g, 7)
        assert a.selected == b.selected
        assert a.benefit == b.benefit


@pytest.mark.parametrize("name", list(ALGORITHMS))
class TestDegenerateGraphs:
    def test_no_edges_graph(self, name):
        g = QueryViewGraph()
        g.add_view("v", 1)
        g.add_query("q", 10)
        result = ALGORITHMS[name]().run(g, 5)
        assert result.benefit == 0.0

    def test_single_structure_graph(self, name):
        g = QueryViewGraph()
        g.add_view("v", 1)
        g.add_query("q", 10)
        g.add_edge("q", "v", 2)
        result = ALGORITHMS[name]().run(g, 5)
        assert result.benefit == 8.0
        assert result.selected == ("v",)

    def test_budget_too_small_for_anything(self, name):
        g = QueryViewGraph()
        g.add_view("v", 10)
        g.add_query("q", 100)
        g.add_edge("q", "v", 1)
        result = ALGORITHMS[name]().run(g, 5)
        assert result.selected == ()
        assert result.benefit == 0.0


@settings(max_examples=30, deadline=None)
@given(unit_graph_strategy(), st.integers(min_value=1, max_value=6))
@pytest.mark.parametrize("name", ["1-greedy", "2-greedy", "inner-level", "hru", "two-step"])
def test_contract_on_random_graphs(name, graph, space):
    result = ALGORITHMS[name]().run(graph, space)
    assert_contract(graph, result, space, strict=True)


@settings(max_examples=20, deadline=None)
@given(unit_graph_strategy(), st.integers(min_value=1, max_value=5))
@pytest.mark.parametrize("name", list(PAPER_MODE))
def test_paper_mode_contract_on_random_graphs(name, graph, space):
    result = PAPER_MODE[name]().run(graph, space)
    assert_contract(graph, result, space, strict=False)


def test_chain_sink_tie_break_keeps_first():
    sink = ChainSink()
    sink.offer((0,), 4.0, 2.0)
    sink.offer((1,), 8.0, 4.0)  # exactly equal ratio — incumbent stays
    assert sink.ids == (0,)
    sink.offer((2,), 9.0, 4.0)
    assert sink.ids == (2,)
