"""The CSR/CSC cost store and the maintained single-benefit cache.

A dense ``(m × k)`` cost matrix built here from ``graph.edges()`` is the
reference: every store query below is checked for *exact* (bitwise, not
approximate) agreement with it — ``gains_for`` alone at ``rtol=1e-13``,
since a matrix product sums in another order — because the stage loops
rely on maintained values matching a full recompute
(``full_singles``, the recompute the tests' reference loops use).
"""

import numpy as np
import pytest

import repro.core.benefit as benefit_module
from repro.algorithms import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.datasets.paper_figure2 import figure2_graph
from repro.runtime.faults import _cube_graph
from tests.algorithms.eager_reference import eager_best_single, full_singles


def small_graph() -> QueryViewGraph:
    g = QueryViewGraph()
    g.add_view("v0", 4)
    g.add_index("v0", "i0", 4)
    g.add_index("v0", "i1", 4)
    g.add_view("v1", 2)
    g.add_index("v1", "i2", 2)
    g.add_view("v2", 3)
    g.add_query("q0", 100, frequency=2.0)
    g.add_query("q1", 80)
    g.add_query("q2", 60, frequency=0.5)
    g.add_query("q3", 40)
    g.add_edge("q0", "v0", 10)
    g.add_edge("q0", "i0", 2)
    g.add_edge("q1", "v0", 30)
    g.add_edge("q1", "i1", 5)
    g.add_edge("q1", "v1", 25)
    g.add_edge("q2", "v1", 8)
    g.add_edge("q2", "i2", 1)
    g.add_edge("q3", "v2", 4)
    return g


def random_graph(
    seed: int,
    n_views: int = 6,
    n_queries: int = 25,
    edge_prob: float = 0.3,
) -> QueryViewGraph:
    rng = np.random.default_rng(seed)
    g = QueryViewGraph()
    names = []
    for v in range(n_views):
        vname = f"V{v}"
        g.add_view(vname, float(rng.integers(1, 20)))
        names.append(vname)
        for i in range(int(rng.integers(0, 4))):
            iname = f"I{v}.{i}"
            g.add_index(vname, iname, float(rng.integers(1, 20)))
            names.append(iname)
    for q in range(n_queries):
        default = float(rng.integers(50, 500))
        g.add_query(f"q{q}", default, frequency=float(rng.integers(1, 5)))
        for s in names:
            if rng.random() < edge_prob:
                g.add_edge(f"q{q}", s, float(rng.integers(0, int(default))))
    return g


def dense_reference(graph: QueryViewGraph, eng: BenefitEngine) -> np.ndarray:
    """The ``(m × k)`` cost matrix of ``graph`` in ``eng``'s ids: the
    minimum over parallel edges, ``inf`` where there is no edge."""
    cost = np.full((eng.n_structures, eng.n_queries), np.inf)
    for q_name, s_name, c in graph.edges():
        sid, qid = eng.structure_id(s_name), eng.query_id(q_name)
        cost[sid, qid] = min(cost[sid, qid], c)
    return cost


@pytest.fixture(params=[small_graph, figure2_graph, lambda: random_graph(7)])
def pair(request):
    """(dense reference matrix, engine) over one graph."""
    g = request.param()
    eng = BenefitEngine(g)
    return dense_reference(g, eng), eng


def test_store_smaller_than_a_dense_matrix_for_sparse_graphs():
    g = random_graph(3, n_views=8, n_queries=60, edge_prob=0.05)
    eng = BenefitEngine(g)
    assert 0 < eng.cost_store_bytes() < eng.n_structures * eng.n_queries * 8


class TestCostQueries:
    def test_cost_rows_match(self, pair):
        cost, eng = pair
        for sid in range(eng.n_structures):
            assert np.array_equal(cost[sid], eng.cost_row(sid))

    def test_edge_cost_by_id_matches(self, pair):
        cost, eng = pair
        for sid in range(eng.n_structures):
            for qid in range(eng.n_queries):
                assert eng.edge_cost_by_id(sid, qid) == cost[sid, qid]

    def test_minimum_with_matches(self, pair):
        cost, eng = pair
        vec = eng.defaults * 0.5
        for sid in range(eng.n_structures):
            assert np.array_equal(
                np.minimum(vec, cost[sid]), eng.minimum_with(vec, sid)
            )

    def test_minimum_with_does_not_mutate_input(self):
        eng = BenefitEngine(small_graph())
        vec = eng.defaults.copy()
        eng.minimum_with(vec, 0)
        assert np.array_equal(vec, eng.defaults)

    def test_min_cost_over_matches(self, pair):
        cost, eng = pair
        ids = list(range(eng.n_structures))
        assert np.array_equal(cost[ids].min(axis=0), eng.min_cost_over(ids))
        assert np.array_equal(
            cost[ids[::2]].min(axis=0), eng.min_cost_over(ids[::2])
        )

    def test_gains_for_values_match(self, pair):
        cost, eng = pair
        base = eng.defaults * 0.75
        ids = np.arange(eng.n_structures)
        np.testing.assert_allclose(
            np.maximum(base - cost, 0.0) @ eng.frequencies,
            eng.gains_for(ids, base),
            rtol=1e-13,
        )

    def test_max_achievable_benefit_matches(self, pair):
        cost, eng = pair
        floor = np.minimum(eng.defaults, cost.min(axis=0))
        expected = float(eng.frequencies @ (eng.defaults - floor))
        assert eng.max_achievable_benefit() == expected


class TestStateParity:
    def test_tau_and_benefits_track_across_commits(self, pair):
        cost, eng = pair
        best = eng.defaults.copy()
        for view in [s for s in range(eng.n_structures) if eng.is_view[s]]:
            improved = np.minimum(best, cost[view])
            assert eng.commit([view]) == float(eng.frequencies @ (best - improved))
            best = improved
            assert eng.tau() == float(eng.frequencies @ best)
        assert eng.selected_ids == frozenset(eng.view_ids().tolist())

    def test_snapshot_restore_parity(self, pair):
        cost, eng = pair
        view = int(eng.view_ids()[0])
        snap = eng.snapshot()
        eng.commit([view])
        eng.restore(snap)
        assert eng.tau() == float(eng.frequencies @ eng.defaults)
        assert not eng.selected_ids


class TestNumpyOnlyBuild:
    """``pyproject.toml`` declares only numpy: without scipy the CSC
    arrays come from the numpy ``lexsort`` fallback, which must build the
    same store as the scipy transpose."""

    @pytest.fixture(params=["cube_d5", "random_7"])
    def graph(self, request):
        return _cube_graph(5) if request.param == "cube_d5" else random_graph(7)

    def test_same_store_fingerprint_and_selection(self, graph, monkeypatch):
        if benefit_module._scipy_sparse is None:
            pytest.skip("scipy is not installed: nothing to compare against")
        with_scipy = BenefitEngine(graph)
        monkeypatch.setattr(benefit_module, "_scipy_sparse", None)
        numpy_only = BenefitEngine(graph)
        for name in ("_col_ptr", "_col_rows", "_col_vals"):
            a, b = getattr(with_scipy, name), getattr(numpy_only, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert with_scipy.fingerprint() == numpy_only.fingerprint()
        space = 0.3 * float(with_scipy.spaces.sum())
        a, b = RGreedy(2).run(with_scipy, space), RGreedy(2).run(numpy_only, space)
        assert (a.selected, a.benefit, a.tau) == (b.selected, b.benefit, b.tau)
        assert a.stages == b.stages


class TestMaintainedSingles:
    """The incremental cache must be *bitwise* equal to a full recompute."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cache_matches_eager_after_every_commit(self, seed):
        g = random_graph(seed)
        eng = BenefitEngine(g)
        rng = np.random.default_rng(seed + 100)
        eng.single_benefits()  # prime the cache
        views = list(eng.view_ids())
        rng.shuffle(views)
        for view in views[:4]:
            view = int(view)
            eng.commit([view])
            assert np.array_equal(eng.single_benefits(), full_singles(eng))
            for idx in eng.index_ids_of(view)[:2]:
                eng.commit([int(idx)])
                assert np.array_equal(eng.single_benefits(), full_singles(eng))

    def test_reset_invalidates(self):
        eng = BenefitEngine(small_graph())
        eng.single_benefits()
        eng.commit([0])
        eng.reset()
        assert np.array_equal(eng.single_benefits(), full_singles(eng))

    def test_invalidate_full_and_partial(self):
        eng = BenefitEngine(small_graph())
        eng.single_benefits()
        eng.invalidate()
        assert np.array_equal(eng.single_benefits(), full_singles(eng))
        eng.invalidate(ids=[0, 1])  # selective refresh of a live cache
        assert np.array_equal(eng.single_benefits(), full_singles(eng))

    def test_restricted_ids_read_from_cache(self):
        eng = BenefitEngine(small_graph())
        whole = eng.single_benefits()
        some = eng.single_benefits([2, 0])
        assert some[0] == whole[2] and some[1] == whole[0]


def random_commits(eng: BenefitEngine, rng: np.random.Generator):
    """Admissible commits in a seeded order: a view, a view with one of
    its indexes, or an unselected index of a selected view."""
    while True:
        sel = eng.selected_mask
        choices = [[int(v)] for v in eng.view_ids() if not sel[v]]
        choices += [
            [int(v), int(i)]
            for v in eng.view_ids()
            if not sel[v]
            for i in eng.index_ids_of(int(v))
        ]
        choices += [
            [int(i)]
            for v in eng.view_ids()
            if sel[v]
            for i in eng.index_ids_of(int(v))
            if not sel[i]
        ]
        if not choices:
            return
        yield choices[int(rng.integers(len(choices)))]


def pickable(eng: BenefitEngine) -> np.ndarray:
    """Structures a stage can pick: views and indexes of selected views."""
    return eng.is_view | eng.selected_mask[eng.view_id_of]


class TestPendingRows:
    """Stale indexes of unselected views are re-scored lazily: until then
    their cached value must bound the exact one from above, and no read
    may return it as if it were exact."""

    @pytest.mark.parametrize("seed", range(8))
    def test_contract_after_every_commit(self, seed):
        g = random_graph(seed, n_views=8, n_queries=30, edge_prob=0.35)
        bounded = BenefitEngine(g)  # only bound reads
        read = BenefitEngine(g)  # full cache reads
        for eng in (bounded, read):
            eng.single_benefits()
        order = bounded.stage_candidates()
        saw_pending = False
        for ids in random_commits(bounded, np.random.default_rng(seed)):
            bounded.commit(ids)
            read.commit(ids)
            exact = full_singles(bounded)
            bounds = bounded.single_benefit_bounds()
            live = pickable(bounded)
            assert np.array_equal(bounds[live], exact[live])
            assert np.all(bounds >= exact)
            saw_pending |= bool(np.any(bounds != exact))
            assert bounded.best_single(order) == eager_best_single(bounded, order)
            assert np.array_equal(read.single_benefits(), exact)
        assert saw_pending  # the seeds do exercise deferred rows
        # a full read re-scores every pending row in place
        assert np.array_equal(bounded.single_benefits(), exact)
        assert np.array_equal(bounded.single_benefit_bounds(), exact)

    def pending_engine(self, seed=3):
        """An engine with some pending rows, and the rows."""
        eng = BenefitEngine(random_graph(seed, n_views=8, n_queries=30, edge_prob=0.35))
        eng.single_benefits()
        views = [int(v) for v in eng.view_ids()]
        eng.commit(views[:3])
        stale = np.flatnonzero(
            eng.single_benefit_bounds() != full_singles(eng)
        )
        assert stale.size
        return eng, stale

    def test_restricted_read_rescores_only_what_it_returns(self):
        eng, stale = self.pending_engine()
        got = eng.single_benefits(stale[:1])
        exact = full_singles(eng)
        assert got[0] == exact[stale[0]]
        bounds = eng.single_benefit_bounds()
        assert bounds[stale[0]] == exact[stale[0]]
        if stale.size > 1:
            assert np.any(bounds[stale[1:]] > exact[stale[1:]])

    def test_committing_the_view_rescores_its_indexes(self):
        eng, stale = self.pending_engine()
        view = int(eng.view_id_of[stale[0]])
        eng.commit([view])
        exact = full_singles(eng)
        rows = eng.index_ids_of(view)
        assert np.array_equal(eng.single_benefit_bounds()[rows], exact[rows])

    def test_invalidate_reset_and_restore_leave_no_stale_bound(self):
        eng, stale = self.pending_engine()
        eng.invalidate(ids=stale[:2])
        exact = full_singles(eng)
        assert np.array_equal(eng.single_benefit_bounds()[stale[:2]], exact[stale[:2]])
        eng.invalidate()
        assert np.array_equal(eng.single_benefit_bounds(), exact)

        eng, stale = self.pending_engine()
        snap = eng.snapshot()
        eng.commit([int(v) for v in eng.view_ids()[3:5]])
        eng.restore(snap)
        assert np.array_equal(eng.single_benefit_bounds(), full_singles(eng))

        eng, stale = self.pending_engine()
        eng.reset()
        assert np.array_equal(eng.single_benefit_bounds(), full_singles(eng))

    def test_bounds_are_read_only(self):
        eng = BenefitEngine(small_graph())
        with pytest.raises(ValueError):
            eng.single_benefit_bounds()[0] = 1.0


class TestLazyBestSingle:
    def eager_best(self, eng, ids, space_left=None):
        benefits = full_singles(eng, ids)
        best = None
        best_ratio = 0.0
        for pos, sid in enumerate(ids):
            sid = int(sid)
            if eng.is_selected(sid):
                continue
            if not eng.is_view[sid] and not eng.is_selected(int(eng.view_id_of[sid])):
                continue
            s_space = float(eng.spaces[sid])
            if space_left is not None and s_space > space_left + 1e-9:
                continue
            benefit = float(benefits[pos])
            if benefit <= 0.0:
                continue
            ratio = benefit / s_space
            if best is None or ratio > best_ratio * (1 + 1e-12):
                best = sid
                best_ratio = ratio
        return best

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_matches_eager_scan_through_a_whole_run(self, seed):
        g = random_graph(seed)
        eng = BenefitEngine(g)
        ids = eng.stage_candidates()
        while True:
            expected = self.eager_best(eng, ids)
            got = eng.best_single(ids)
            if expected is None:
                assert got is None
                break
            assert got is not None and got[0] == expected
            eng.commit([expected])

    def test_space_limit_filters(self):
        eng = BenefitEngine(small_graph())
        unconstrained = eng.best_single(eng.stage_candidates())
        assert unconstrained is not None
        tight = eng.best_single(eng.stage_candidates(), space_left=0.0)
        assert tight is None

    def test_empty_candidates(self):
        eng = BenefitEngine(small_graph())
        assert eng.best_single(np.empty(0, dtype=np.int64)) is None

    def test_inadmissible_indexes_skipped(self):
        eng = BenefitEngine(small_graph())
        idx = int(eng.structure_id("i0"))
        # i0 alone is not offerable: its view is unselected
        assert eng.best_single(np.array([idx])) is None
        eng.commit([int(eng.structure_id("v0"))])
        pick = eng.best_single(np.array([idx]))
        assert pick is not None and pick[0] == idx
