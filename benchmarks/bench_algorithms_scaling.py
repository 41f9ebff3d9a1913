"""Ablations: algorithm scaling in m and r, and the benefit-cache design.

The paper's complexity analysis says r-greedy is O(k·m^r) and inner-level
greedy O(k²·m²).  These benches measure the real growth on cubes of
increasing dimension, plus the DESIGN.md ablation comparing the compiled
(numpy, incremental per-query best costs) benefit evaluation against a
naive per-candidate recomputation.
"""

import numpy as np
import pytest

from repro.algorithms import FIT_STRICT, InnerLevelGreedy, RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.cube.schema import CubeSchema, Dimension
from repro.estimation.sizes import analytical_lattice


def cube_lattice(n_dims: int):
    cards = [4 + 2 * i for i in range(n_dims)]
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
    )
    return analytical_lattice(schema, 0.1 * schema.dense_cells)


def cube_engine(n_dims: int) -> BenefitEngine:
    return BenefitEngine(QueryViewGraph.from_cube(cube_lattice(n_dims)))


def budget_of(engine: BenefitEngine) -> float:
    top_space = float(engine.spaces[engine.view_ids()].max())
    return top_space + 0.25 * (float(engine.spaces.sum()) - top_space)


@pytest.fixture(scope="module")
def engines():
    return {n: cube_engine(n) for n in (3, 4, 5)}


@pytest.mark.parametrize("n_dims", [3, 4, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_bench_rgreedy_scaling(benchmark, engines, n_dims, r):
    engine = engines[n_dims]
    result = benchmark.pedantic(
        RGreedy(r, fit=FIT_STRICT).run,
        args=(engine, budget_of(engine)),
        rounds=2,
        iterations=1,
    )
    assert result.benefit > 0


@pytest.mark.parametrize("n_dims", [3, 4])
def test_bench_inner_level_scaling(benchmark, engines, n_dims):
    engine = engines[n_dims]
    result = benchmark.pedantic(
        InnerLevelGreedy(fit=FIT_STRICT).run,
        args=(engine, budget_of(engine)),
        rounds=2,
        iterations=1,
    )
    assert result.benefit > 0


def test_bench_engine_compilation(benchmark):
    result = benchmark.pedantic(cube_engine, args=(5,), rounds=2, iterations=1)
    assert result.n_queries == 3**5


class TestBenefitCacheAblation:
    """DESIGN.md ablation: incremental best-cost state vs naive recompute."""

    @staticmethod
    def naive_tau(engine: BenefitEngine, selected_ids) -> float:
        """Recompute τ from scratch for a selection (the design we avoid)."""
        best = engine.defaults.copy()
        for sid in selected_ids:
            best = engine.minimum_with(best, sid)
        return float(engine.frequencies @ best)

    def test_cached_equals_naive(self, engines):
        engine = engines[4]
        engine.reset()
        ids = [int(i) for i in engine.view_ids()[:6]]
        engine.commit(ids)
        assert engine.tau() == pytest.approx(self.naive_tau(engine, ids))
        engine.reset()

    @staticmethod
    def _grown_state(engine):
        """A mid-run state: a selection of ~24 structures already made."""
        engine.reset()
        committed = []
        for view_id in engine.view_ids()[:8]:
            committed.append(int(view_id))
            committed.extend(int(i) for i in engine.index_ids_of(int(view_id))[:2])
        engine.commit(committed)
        candidates = [
            sid for sid in range(engine.n_structures) if sid not in set(committed)
        ][:40]
        return committed, candidates

    def test_bench_cached_stage_evaluation(self, benchmark, engines):
        """Incremental design: candidate benefit = one row vs stored best."""
        engine = engines[4]
        committed, candidates = self._grown_state(engine)

        def cached():
            return sum(engine.benefit_of([s]) for s in candidates)

        total = benchmark(cached)
        assert total >= 0
        engine.reset()

    def test_bench_naive_stage_evaluation(self, benchmark, engines):
        """Ablated design: recompute τ(M ∪ {s}) from scratch per candidate."""
        engine = engines[4]
        committed, candidates = self._grown_state(engine)
        base = self.naive_tau(engine, committed)

        def naive():
            return sum(
                base - self.naive_tau(engine, committed + [s]) for s in candidates
            )

        total = benchmark(naive)
        assert total >= 0
        engine.reset()


# --------------------------------------------------- cost-store scaling
# (node names keep their "_sparse" suffix: the committed baselines in
# BENCH_selection.json are keyed by them)

@pytest.fixture(scope="module")
def engine_d6_sparse():
    return cube_engine(6)


def test_bench_from_cube_vectorized_d6(benchmark):
    lattice = cube_lattice(6)
    graph = benchmark.pedantic(
        QueryViewGraph.from_cube, args=(lattice,), rounds=2, iterations=1
    )
    assert graph.n_edges > 0


def test_bench_engine_compilation_d6_sparse(benchmark):
    graph = QueryViewGraph.from_cube(cube_lattice(6))
    engine = benchmark.pedantic(BenefitEngine, args=(graph,), rounds=2, iterations=1)
    assert engine.nnz == graph.n_edges


def test_bench_rgreedy1_d6_sparse(benchmark, engine_d6_sparse):
    engine = engine_d6_sparse
    result = benchmark.pedantic(
        RGreedy(1, fit=FIT_STRICT).run,
        args=(engine, budget_of(engine)),
        rounds=2,
        iterations=1,
    )
    assert result.benefit > 0


class TestScaleLimits:
    """The d=7 fat-index cube on the edge store.

    This is the scale target the CSR/CSC store exists for — ~13.8k
    structures × 2187 queries would need a ~230 MiB dense matrix of
    mostly-inf cells.
    """

    @pytest.fixture(scope="class")
    def graph_d7(self):
        return QueryViewGraph.from_cube(cube_lattice(7))

    def test_sparse_compiles_d7_and_is_smaller(self, graph_d7):
        engine = BenefitEngine(graph_d7)
        dense_bytes = engine.n_structures * engine.n_queries * 8
        assert engine.cost_store_bytes() < dense_bytes

    def test_one_greedy_runs_d7(self, graph_d7):
        import time

        start = time.perf_counter()
        engine = BenefitEngine(graph_d7)
        result = RGreedy(1, fit=FIT_STRICT).run(engine, budget_of(engine))
        elapsed = time.perf_counter() - start
        assert result.benefit > 0
        assert elapsed < 60.0, f"d=7 1-greedy took {elapsed:.1f}s"
