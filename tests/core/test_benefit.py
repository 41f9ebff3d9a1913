"""Tests for repro.core.benefit — τ, benefits, monotonicity, submodularity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph

from tests.conftest import unit_graph_strategy


def tiny_graph() -> QueryViewGraph:
    g = QueryViewGraph()
    g.add_query("q1", 100)
    g.add_query("q2", 50, frequency=2.0)
    g.add_view("v1", 10)
    g.add_view("v2", 5)
    g.add_index("v1", "i1")
    g.add_edge("q1", "v1", 20)
    g.add_edge("q1", "i1", 2)
    g.add_edge("q2", "v2", 10)
    return g


class TestCompilation:
    def test_shapes(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.n_queries == 2
        assert eng.n_structures == 3
        assert eng.cost_row(0).shape == (2,)

    def test_missing_edges_are_inf(self):
        eng = BenefitEngine(tiny_graph())
        v2, q1 = eng.structure_id("v2"), eng.query_id("q1")
        assert eng.edge_cost_by_id(v2, q1) == float("inf")
        assert eng.cost_row(v2)[q1] == float("inf")

    def test_initial_tau_is_weighted_defaults(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.tau() == 100 + 2 * 50

    def test_view_ids_and_index_ids(self):
        eng = BenefitEngine(tiny_graph())
        views = {eng.name_of(i) for i in eng.view_ids()}
        assert views == {"v1", "v2"}
        idx = eng.index_ids_of(eng.structure_id("v1"))
        assert [eng.name_of(i) for i in idx] == ["i1"]

    def test_index_ids_of_non_view_raises(self):
        eng = BenefitEngine(tiny_graph())
        with pytest.raises(ValueError):
            eng.index_ids_of(eng.structure_id("i1"))


class TestBenefit:
    def test_benefit_of_view(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.benefit_of([eng.structure_id("v1")]) == 80

    def test_benefit_counts_frequency(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.benefit_of([eng.structure_id("v2")]) == 2 * 40

    def test_benefit_of_empty_set_is_zero(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.benefit_of([]) == 0.0

    def test_benefit_of_set_takes_min_edge(self):
        eng = BenefitEngine(tiny_graph())
        ids = [eng.structure_id("v1"), eng.structure_id("i1")]
        assert eng.benefit_of(ids) == 98

    def test_commit_reduces_tau(self):
        eng = BenefitEngine(tiny_graph())
        before = eng.tau()
        realized = eng.commit([eng.structure_id("v1")])
        assert eng.tau() == before - realized

    def test_commit_index_without_view_raises(self):
        eng = BenefitEngine(tiny_graph())
        with pytest.raises(ValueError, match="index before its view"):
            eng.commit([eng.structure_id("i1")])

    def test_commit_index_with_view_in_same_call(self):
        eng = BenefitEngine(tiny_graph())
        eng.commit([eng.structure_id("v1"), eng.structure_id("i1")])
        assert eng.tau() == 2 + 100

    def test_benefit_after_commit_is_marginal(self):
        eng = BenefitEngine(tiny_graph())
        eng.commit([eng.structure_id("v1")])
        assert eng.benefit_of([eng.structure_id("i1")]) == 18

    def test_is_admissible(self):
        eng = BenefitEngine(tiny_graph())
        v1, i1 = eng.structure_id("v1"), eng.structure_id("i1")
        assert eng.is_admissible([v1, i1])
        assert not eng.is_admissible([i1])
        eng.commit([v1])
        assert eng.is_admissible([i1])

    def test_reset(self):
        eng = BenefitEngine(tiny_graph())
        eng.commit([eng.structure_id("v1")])
        eng.reset()
        assert eng.tau() == 200
        assert eng.selected_ids == frozenset()

    def test_snapshot_restore(self):
        eng = BenefitEngine(tiny_graph())
        snap = eng.snapshot()
        eng.commit([eng.structure_id("v1")])
        eng.restore(snap)
        assert eng.tau() == 200
        assert not eng.is_selected(eng.structure_id("v1"))

    def test_space_accounting(self):
        eng = BenefitEngine(tiny_graph())
        eng.commit([eng.structure_id("v1"), eng.structure_id("i1")])
        assert eng.space_used() == 20

    def test_benefit_per_space(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.benefit_per_space([eng.structure_id("v1")]) == 8.0

    def test_absolute_benefit_ignores_state(self):
        eng = BenefitEngine(tiny_graph())
        eng.commit([eng.structure_id("v1")])
        assert eng.absolute_benefit([eng.structure_id("v1")]) == 80

    def test_max_achievable_benefit(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.max_achievable_benefit() == 98 + 80

    def test_average_query_cost(self):
        eng = BenefitEngine(tiny_graph())
        assert eng.average_query_cost() == pytest.approx(200 / 3)


class TestBenefitProperties:
    """The structural properties Theorem 5.1's proof relies on."""

    @settings(max_examples=60, deadline=None)
    @given(unit_graph_strategy(), st.data())
    def test_monotonicity(self, graph, data):
        """B(C, M) only shrinks as M grows."""
        eng = BenefitEngine(graph)
        all_ids = list(range(eng.n_structures))
        candidate = data.draw(st.sets(st.sampled_from(all_ids)))
        grow = data.draw(st.sets(st.sampled_from(all_ids)))
        before = eng.benefit_of(candidate)
        eng.commit(_close_views(eng, grow))
        after = eng.benefit_of(candidate)
        assert after <= before + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(unit_graph_strategy(), st.data())
    def test_submodularity_in_single_structures(self, graph, data):
        """Marginal gain of one structure shrinks as the base set grows."""
        eng = BenefitEngine(graph)
        all_ids = list(range(eng.n_structures))
        s = data.draw(st.sampled_from(all_ids))
        base = data.draw(st.sets(st.sampled_from(all_ids)))
        gain_small = eng.benefit_of([s])
        eng.commit(_close_views(eng, base))
        gain_large = eng.benefit_of([s])
        assert gain_large <= gain_small + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(unit_graph_strategy(), st.data())
    def test_subadditivity(self, graph, data):
        """B(A ∪ B, M) <= B(A, M) + B(B, M)."""
        eng = BenefitEngine(graph)
        all_ids = list(range(eng.n_structures))
        a = data.draw(st.sets(st.sampled_from(all_ids)))
        b = data.draw(st.sets(st.sampled_from(all_ids)))
        assert (
            eng.benefit_of(a | b)
            <= eng.benefit_of(a) + eng.benefit_of(b) + 1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(unit_graph_strategy())
    def test_tau_floor_reached_by_committing_everything(self, graph):
        eng = BenefitEngine(graph)
        eng.commit(range(eng.n_structures))
        cheapest = np.min([eng.cost_row(s) for s in range(eng.n_structures)], axis=0)
        floor = float(eng.frequencies @ np.minimum(eng.defaults, cheapest))
        assert eng.tau() == pytest.approx(floor)


def _close_views(eng: BenefitEngine, ids) -> list:
    """Add owning views so the set is admissible to commit."""
    closed = set(ids)
    for sid in list(closed):
        if not eng.is_view[sid]:
            closed.add(int(eng.view_id_of[sid]))
    return sorted(closed)
