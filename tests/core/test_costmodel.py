"""Tests for repro.core.costmodel — the linear cost model of Section 4."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_fat_indexes
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.engine.executor import rank_plans


@pytest.fixture
def model(tpcd_lat):
    return LinearCostModel(tpcd_lat)


PSC = View.of("p", "s", "c")
PS = View.of("p", "s")


class TestPaperExamples:
    def test_section_411_worked_example(self, model):
        """γ_p σ_s via psc with I_scp costs |psc| / |s| = 600 rows."""
        q = SliceQuery(groupby=["p"], selection=["s"])
        idx = Index(PSC, ("s", "c", "p"))
        assert model.cost(q, PSC, idx) == pytest.approx(6_000_000 / 10_000)

    def test_section_2_slice_via_index_on_ps(self, model):
        """γ_p σ_s via ps with I_sp costs |ps| / |s| = 80 rows."""
        q = SliceQuery(groupby=["p"], selection=["s"])
        idx = Index(PS, ("s", "p"))
        assert model.cost(q, PS, idx) == pytest.approx(800_000 / 10_000)

    def test_scan_costs_without_index(self, model):
        q = SliceQuery(groupby=["p"], selection=["s"])
        assert model.cost(q, PS) == 800_000
        assert model.cost(q, PSC) == 6_000_000

    def test_useless_index_costs_full_scan(self, model):
        """I_ps cannot help a query selecting only on s (Section 2)."""
        q = SliceQuery(groupby=["p"], selection=["s"])
        idx = Index(PS, ("p", "s"))
        assert model.cost(q, PS, idx) == 800_000


class TestCostFormula:
    def test_unanswerable_query_raises(self, model):
        q = SliceQuery(groupby=["c"])
        with pytest.raises(ValueError, match="not answerable"):
            model.cost(q, PS)

    def test_index_on_wrong_view_raises(self, model):
        q = SliceQuery(selection=["p"])
        idx = Index(PS, ("p", "s"))
        with pytest.raises(ValueError, match="not an index on"):
            model.cost(q, PSC, idx)

    def test_full_prefix_costs_one_per_group(self, model):
        """Selecting on all attrs of the view touches |V|/|V| = 1 row."""
        q = SliceQuery(selection=["p", "s"])
        idx = Index(PS, ("p", "s"))
        assert model.cost(q, PS, idx) == 1.0

    def test_subcube_query_ignores_indexes(self, model):
        q = SliceQuery(groupby=["p", "s"])
        for idx in enumerate_fat_indexes(PS):
            assert model.cost(q, PS, idx) == model.cost(q, PS)

    def test_cost_with_index_never_exceeds_scan(self, model, tpcd_lat):
        for q in enumerate_slice_queries(["p", "s", "c"]):
            for view in tpcd_lat.views():
                if not q.answerable_by(view):
                    continue
                scan = model.cost(q, view)
                for idx in enumerate_fat_indexes(view):
                    assert model.cost(q, view, idx) <= scan

    def test_longer_usable_prefix_never_costs_more(self, model):
        """Monotonicity: extending the usable prefix can only shrink cost."""
        q = SliceQuery(selection=["p", "s"], groupby=["c"])
        shorter = Index(PSC, ("p", "c", "s"))  # usable prefix (p,)
        longer = Index(PSC, ("p", "s", "c"))  # usable prefix (p, s)
        assert model.cost(q, PSC, longer) <= model.cost(q, PSC, shorter)

    def test_cost_at_least_one_row(self, model):
        q = SliceQuery(selection=["p", "s", "c"])
        idx = Index(PSC, ("p", "s", "c"))
        assert model.cost(q, PSC, idx) >= 1.0


class TestDefaultCost:
    def test_default_is_top_view_size(self, model):
        q = SliceQuery(groupby=["p"])
        assert model.default_cost(q) == 6_000_000

    def test_default_view_override(self, tpcd_lat):
        model = LinearCostModel(tpcd_lat, default_view=View.of("p", "s"))
        q = SliceQuery(groupby=["p"])
        assert model.default_cost(q) == 800_000

    def test_default_unanswerable_raises(self, tpcd_lat):
        model = LinearCostModel(tpcd_lat, default_view=View.of("p", "s"))
        q = SliceQuery(groupby=["c"])
        with pytest.raises(ValueError):
            model.default_cost(q)


def planner_ranking(model, q, view, indexes=()):
    """The planner's ranking of one view's scan and ``indexes``."""
    return rank_plans(q, [view], lambda __: indexes, model.cost, model.lattice.schema)


class TestBestCost:
    """The cheapest plan over one view's structures, as the engine's
    planner ranks them."""

    def test_best_over_indexes(self, model):
        q = SliceQuery(groupby=["p"], selection=["s"])
        best = planner_ranking(model, q, PS, enumerate_fat_indexes(PS))[0]
        assert best.predicted == pytest.approx(80)
        assert (best.kind, best.structure) == ("prefix", "I_sp(ps)")

    def test_best_without_indexes_is_scan(self, model):
        q = SliceQuery(groupby=["p"], selection=["s"])
        (only,) = planner_ranking(model, q, PS)
        assert (only.kind, only.predicted) == ("scan", 800_000)

    @given(st.sampled_from(list(enumerate_slice_queries(["p", "s", "c"]))))
    def test_best_cost_bounded_by_scan(self, q):
        from repro.datasets.tpcd import tpcd_lattice

        lat = tpcd_lattice()
        model = LinearCostModel(lat)
        for view in lat.views():
            if q.answerable_by(view):
                ranking = planner_ranking(model, q, view, enumerate_fat_indexes(view))
                best = ranking[0].predicted
                assert 1.0 <= best <= model.cost(q, view)
                assert best == min(plan.predicted for plan in ranking)
