"""Tests for selection analysis (repro.analysis.explain)."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import FIT_PAPER, RGreedy
from repro.analysis import QueryPlan, StructureContribution, explain
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.runtime.faults import _cube_graph, smoke_budget, top_view_of


@pytest.fixture
def fig2_explanation(fig2_g):
    result = RGreedy(2, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
    return result, explain(fig2_g, result.selected)


class TestExplain:
    def test_benefit_matches_selection_result(self, fig2_explanation):
        result, explanation = fig2_explanation
        assert explanation.benefit == pytest.approx(result.benefit)

    def test_plan_costs_consistent_with_tau(self, fig2_explanation):
        __, explanation = fig2_explanation
        total = sum(p.frequency * p.cost for p in explanation.plans)
        assert total == pytest.approx(explanation.tau)

    def test_every_query_has_a_plan(self, fig2_g, fig2_explanation):
        __, explanation = fig2_explanation
        assert len(explanation.plans) == fig2_g.n_queries

    def test_winner_is_selected_structure(self, fig2_explanation):
        result, explanation = fig2_explanation
        for plan in explanation.plans:
            if plan.structure is not None:
                assert plan.structure in result.selected
                assert plan.cost < plan.default_cost

    def test_raw_fallback_queries_unimproved(self, fig2_explanation):
        __, explanation = fig2_explanation
        for plan in explanation.plans:
            if plan.structure is None:
                assert plan.cost == plan.default_cost
                assert plan.speedup == 1.0

    def test_coverage_between_zero_and_one(self, fig2_explanation):
        __, explanation = fig2_explanation
        assert 0.0 <= explanation.coverage() <= 1.0

    def test_attributed_benefits_sum_to_total(self, fig2_explanation):
        __, explanation = fig2_explanation
        attributed = sum(c.benefit_attributed for c in explanation.contributions)
        assert attributed == pytest.approx(explanation.benefit)

    def test_marginal_loss_nonnegative(self, fig2_explanation):
        __, explanation = fig2_explanation
        for contribution in explanation.contributions:
            assert contribution.marginal_loss >= -1e-9

    def test_marginal_loss_at_least_attributed_for_indexes(self, fig2_explanation):
        """Dropping an index loses at least the queries it uniquely wins
        (they fall back to the next-best plan, possibly cheaper than
        default, so loss <= attributed; for this instance every winner is
        unique so they are equal)."""
        __, explanation = fig2_explanation
        for c in explanation.contributions:
            if c.name.startswith("I"):
                assert c.marginal_loss == pytest.approx(c.benefit_attributed)

    def test_view_marginal_includes_orphaned_indexes(self, fig2_g):
        result = RGreedy(2, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        explanation = explain(fig2_g, result.selected)
        v4 = next(c for c in explanation.contributions if c.name == "V4")
        # dropping V4 also drops I4,* — the loss covers the whole bundle
        assert v4.marginal_loss >= 41 + 21 * 3 - 1e-9

    def test_inadmissible_selection_rejected(self, fig2_g):
        with pytest.raises(ValueError, match="not admissible"):
            explain(fig2_g, ["I2,1"])

    def test_empty_selection(self, fig2_g):
        explanation = explain(fig2_g, [])
        assert explanation.benefit == 0.0
        assert explanation.coverage() == 0.0

    def test_table_renders(self, fig2_explanation):
        __, explanation = fig2_explanation
        text = explanation.table()
        assert "query plans" in text
        assert "structure contributions" in text

    def test_tpcd_explanation(self, tpcd_g):
        result = RGreedy(1, fit=FIT_PAPER).run(tpcd_g, 25e6, seed=("psc",))
        explanation = explain(tpcd_g, result.selected)
        assert explanation.coverage() > 0.8
        # the three fat psc indexes carry most of the load
        top = explanation.contributions[0]
        assert "psc" in top.name


class TestCompare:
    @pytest.fixture
    def comparison(self, tpcd_g):
        from repro.algorithms import TwoStep
        from repro.analysis import compare

        two = TwoStep(0.5).run(tpcd_g, 25e6, seed=("psc",))
        one = RGreedy(1, fit=FIT_PAPER).run(tpcd_g, 25e6, seed=("psc",))
        return two, one, compare(tpcd_g, two.selected, one.selected)

    def test_tau_matches_selection_results(self, comparison):
        two, one, cmp = comparison
        assert cmp.tau_a == pytest.approx(two.tau)
        assert cmp.tau_b == pytest.approx(one.tau)

    def test_one_step_wins_on_tpcd(self, comparison):
        __, __, cmp = comparison
        assert cmp.tau_ratio < 0.7  # the ~40% improvement

    def test_structural_diff_partitions(self, comparison):
        two, one, cmp = comparison
        assert set(cmp.only_in_a) | set(cmp.shared) == set(two.selected)
        assert set(cmp.only_in_b) | set(cmp.shared) == set(one.selected)
        assert not set(cmp.only_in_a) & set(cmp.only_in_b)

    def test_deltas_sorted_by_magnitude(self, comparison):
        __, __, cmp = comparison
        gaps = [abs(a - b) for __q, a, b in cmp.query_deltas]
        assert gaps == sorted(gaps, reverse=True)

    def test_identical_selections_have_no_deltas(self, fig2_g):
        from repro.analysis import compare

        result = RGreedy(2, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        cmp = compare(fig2_g, result.selected, result.selected)
        assert cmp.query_deltas == ()
        assert cmp.tau_ratio == pytest.approx(1.0)

    def test_table_renders(self, comparison):
        __, __, cmp = comparison
        text = cmp.table()
        assert "only in A" in text and "cost under B" in text


# ------------------------------------------------- per-query loop reference


def reference_explain(graph, selection):
    """``explain`` as one ``edge_cost_by_id`` per (query, structure) and
    one ``min_cost_over`` per marginal τ — the loops the vectorized
    version replaced; it must agree with them bit for bit."""
    engine = BenefitEngine(graph)
    ids = [engine.structure_id(name) for name in selection]
    views_first = sorted(ids, key=lambda i: not engine.is_view[i])
    engine.commit(views_first)
    plans = []
    for q in range(engine.n_queries):
        default = float(engine.defaults[q])
        best_cost, winner = default, None
        for sid in views_first:
            cost = engine.edge_cost_by_id(sid, q)
            if cost < best_cost:
                best_cost, winner = cost, sid
        plans.append(
            QueryPlan(
                query=engine.query_names[q],
                structure=engine.name_of(winner) if winner is not None else None,
                cost=best_cost,
                default_cost=default,
                frequency=float(engine.frequencies[q]),
            )
        )
    contributions = []
    for sid in views_first:
        name = engine.name_of(sid)
        won = [p for p in plans if p.structure == name]
        removal = {sid}
        if engine.is_view[sid]:
            removal |= {int(i) for i in engine.index_ids_of(sid) if int(i) in ids}
        remaining = [i for i in views_first if i not in removal]
        if remaining:
            best = np.minimum(engine.defaults, engine.min_cost_over(remaining))
            tau_without = float(engine.frequencies @ best)
        else:
            tau_without = float(engine.frequencies @ engine.defaults)
        contributions.append(
            StructureContribution(
                name=name,
                space=float(engine.spaces[sid]),
                queries_won=tuple(p.query for p in won),
                benefit_attributed=sum(
                    p.frequency * (p.default_cost - p.cost) for p in won
                ),
                marginal_loss=tau_without - engine.tau(),
            )
        )
    contributions.sort(key=lambda c: -c.marginal_loss)
    return plans, contributions, engine.tau()


def bits(value):
    """Exact identity of a plan or contribution: floats by ``float.hex``."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(value)
    )


def assert_matches_reference(graph, selection):
    explanation = explain(graph, selection)
    plans, contributions, tau = reference_explain(graph, selection)
    assert [bits(p) for p in explanation.plans] == [bits(p) for p in plans]
    assert [bits(c) for c in explanation.contributions] == [
        bits(c) for c in contributions
    ]
    assert explanation.tau.hex() == tau.hex()


@pytest.mark.parametrize("n_dims", [3, 4, 5])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("fraction", [0.05, 0.25])
def test_matches_per_query_loops_on_cubes(n_dims, r, fraction):
    graph = _cube_graph(n_dims)
    engine = BenefitEngine(graph)
    space = smoke_budget(engine, fraction)
    result = RGreedy(r).run(engine, space, seed=(top_view_of(engine),))
    assert_matches_reference(graph, result.selected)


def tie_graph():
    """Two views and an index that all answer ``q0`` at the same cost,
    and a query no selected structure improves."""
    g = QueryViewGraph()
    g.add_view("V0", 4)
    g.add_index("V0", "I0", 2)
    g.add_view("V1", 3)
    g.add_query("q0", 50, frequency=2.0)
    g.add_query("q1", 40)
    g.add_query("q2", 30, frequency=0.5)
    for structure in ("V0", "I0", "V1"):
        g.add_edge("q0", structure, 5.0)
    g.add_edge("q1", "V1", 7.0)
    g.add_edge("q1", "I0", 7.0)
    g.add_edge("q2", "V0", 30.0)  # equal to the default: no win
    return g


@pytest.mark.parametrize(
    "selection",
    [("V0", "I0", "V1"), ("V1", "V0", "I0"), ("I0", "V0"), ("V1",), ()],
)
def test_winner_ties_go_to_the_first_selected(selection):
    graph = tie_graph()
    assert_matches_reference(graph, selection)
    plans = {p.query: p for p in explain(graph, selection).plans}
    views = [name for name in selection if name.startswith("V")]
    expected = views[0] if views else None
    assert plans["q0"].structure == expected
    assert plans["q2"].structure is None and plans["q2"].cost == 30.0


@pytest.mark.parametrize("seed", range(12))
def test_matches_per_query_loops_on_tie_heavy_graphs(seed):
    """Small integer costs make equal-cost winners common."""
    rng = np.random.default_rng(seed)
    g = QueryViewGraph()
    names = []
    for v in range(int(rng.integers(2, 6))):
        g.add_view(f"V{v}", float(rng.integers(1, 8)))
        names.append(f"V{v}")
        for i in range(int(rng.integers(0, 3))):
            g.add_index(f"V{v}", f"I{v}.{i}", float(rng.integers(1, 8)))
            names.append(f"I{v}.{i}")
    for q in range(int(rng.integers(4, 16))):
        default = float(rng.integers(10, 40))
        g.add_query(f"q{q}", default, frequency=float(rng.integers(1, 4)))
        for name in names:
            if rng.random() < 0.5:
                g.add_edge(f"q{q}", name, float(rng.integers(0, 12)))
    result = RGreedy(2).run(g, 0.6 * sum(s.space for s in g.structures))
    assert_matches_reference(g, result.selected)
