"""Cross-checks: each algorithm's one stage loop against its full-rescan
reference.

Every selection algorithm runs one stage loop: it reads the engine's
maintained single-benefit cache and skips provably-no-op work through
exact prunes.  ``tests/algorithms/eager_reference.py`` keeps the former
full-rescan loops (full recomputes, no prune) as the reference.  The
contract is *bit-identical results*: on any graph the production loop
and its reference must return the same structures in the same order,
with ``==`` benefit and τ, and ``==`` stages (structures, benefit, space,
τ after).  These tests enforce the contract on the paper fixtures, on
seeded random graphs with small integer costs (exact ties are common)
and on cube graphs with float costs (where a changed summation order
would show up in the last bits).
"""

import numpy as np
import pytest

from repro.algorithms import (
    HRUGreedy,
    InnerLevelGreedy,
    LocalSearchRefiner,
    MaintenanceAwareGreedy,
    PickBySmallest,
    RGreedy,
    TwoStep,
)
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.runtime.faults import _cube_graph, smoke_budget, top_view_of
from tests.algorithms.eager_reference import (
    EagerLocalSearchRefiner,
    EagerReadEngine,
    reference_of,
)

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def random_graph(seed: int) -> QueryViewGraph:
    """A seeded random graph with heterogeneous spaces and frequencies.

    Symmetric enough to produce exact benefit ties (the regime where an
    offer-order slip would show up as a selection difference).
    """
    rng = np.random.default_rng(seed)
    g = QueryViewGraph()
    names = []
    n_views = int(rng.integers(2, 7))
    for v in range(n_views):
        vname = f"V{v}"
        g.add_view(vname, float(rng.integers(1, 8)))
        names.append(vname)
        for i in range(int(rng.integers(0, 4))):
            iname = f"I{v}.{i}"
            g.add_index(vname, iname, float(rng.integers(1, 8)))
            names.append(iname)
    n_queries = int(rng.integers(4, 20))
    for q in range(n_queries):
        default = float(rng.integers(10, 60))
        g.add_query(f"q{q}", default, frequency=float(rng.integers(1, 4)))
        for s in names:
            if rng.random() < 0.4:
                # small integer costs: exact ties are common
                g.add_edge(f"q{q}", s, float(rng.integers(0, 10)))
    return g


def budget_for(graph: QueryViewGraph) -> float:
    total = sum(s.space for s in graph.structures)
    return max(1.0, 0.4 * total)


ALGORITHMS = [
    ("1-greedy", lambda: RGreedy(1)),
    ("2-greedy", lambda: RGreedy(2)),
    ("3-greedy", lambda: RGreedy(3)),
    ("1-greedy-paper", lambda: RGreedy(1, fit="paper")),
    ("hru", lambda: HRUGreedy()),
    ("inner-space", lambda: InnerLevelGreedy()),
    ("inner-peak", lambda: InnerLevelGreedy(ig_rule="peak")),
    ("two-step", lambda: TwoStep()),
    ("two-step-remaining", lambda: TwoStep(index_budget_mode="remaining")),
]


def all_variants(make, graph, space, seed=()):
    """The reference run, then the production run, on one engine."""
    engine = BenefitEngine(graph)
    algorithm = make()
    return {
        "reference": reference_of(algorithm).run(engine, space, seed=seed),
        "production": algorithm.run(engine, space, seed=seed),
    }


def refine_variants(engine, space, selection, protected=()):
    """Local search from ``selection``: reference, then production."""
    return {
        name: refiner.refine(engine, space, selection, protected=protected)
        for name, refiner in (
            ("reference", EagerLocalSearchRefiner()),
            ("production", LocalSearchRefiner()),
        )
    }


def assert_identical(results):
    ((_, reference), *rest) = results.items()
    for key, result in rest:
        assert result.selected == reference.selected, key
        assert result.benefit == reference.benefit, key
        assert result.tau == reference.tau, key
        assert [
            (st.structures, st.benefit, st.space, st.tau_after)
            for st in result.stages
        ] == [
            (st.structures, st.benefit, st.space, st.tau_after)
            for st in reference.stages
        ], key


@pytest.mark.parametrize("label,make", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
class TestOnFixtures:
    def test_figure2(self, label, make, fig2_g):
        assert_identical(all_variants(make, fig2_g, FIGURE2_SPACE))

    def test_example_2_1(self, label, make, tpcd_g):
        space = 0.25 * sum(s.space for s in tpcd_g.structures)
        assert_identical(all_variants(make, tpcd_g, space, seed=("psc",)))


@pytest.mark.parametrize("label,make", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@pytest.mark.parametrize("seed", SEEDS)
class TestOnRandomGraphs:
    def test_random(self, label, make, seed):
        graph = random_graph(seed)
        assert_identical(all_variants(make, graph, budget_for(graph)))


CUBE_DIMS = [3, 4, 5]
CUBE_FRACTIONS = [0.05, 0.3]


@pytest.fixture(scope="module", params=CUBE_DIMS, ids=[f"d{d}" for d in CUBE_DIMS])
def cube(request):
    """A float-cost cube graph and its top view (every run's seed)."""
    graph = _cube_graph(request.param)
    return graph, top_view_of(BenefitEngine(graph))


@pytest.mark.parametrize("label,make", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@pytest.mark.parametrize("fraction", CUBE_FRACTIONS)
class TestOnCubes:
    def test_cube(self, label, make, fraction, cube):
        graph, top = cube
        space = smoke_budget(BenefitEngine(graph), fraction)
        assert_identical(all_variants(make, graph, space, seed=(top,)))


@pytest.mark.parametrize("fraction", CUBE_FRACTIONS)
def test_local_search_on_cubes(fraction, cube):
    graph, top = cube
    engine = BenefitEngine(graph)
    space = smoke_budget(engine, fraction)
    start = RGreedy(1).run(engine, space, seed=(top,))
    assert_identical(refine_variants(engine, space, start.selected, (top,)))


@pytest.mark.parametrize("seed", SEEDS)
def test_local_search_equivalence(seed):
    graph = random_graph(seed)
    space = budget_for(graph)
    engine = BenefitEngine(graph)
    start = RGreedy(1).run(engine, space)
    assert_identical(refine_variants(engine, space, start.selected))


def add_moves(result) -> int:
    return sum(stage.structures[0].startswith("+") for stage in result.stages)


@pytest.mark.parametrize("seed", SEEDS)
def test_local_search_add_moves(seed):
    """Refinements that start from 1-greedy at half the budget, so the
    add-move scan (where the zero-single skip lives) has room to pick."""
    graph = random_graph(seed)
    space = budget_for(graph)
    engine = BenefitEngine(graph)
    start = RGreedy(1).run(engine, space / 2)
    assert_identical(refine_variants(engine, space, start.selected))


def test_local_search_add_fixtures_make_add_moves():
    """The half-budget starts above do exercise the add-move scan."""
    picks = 0
    for seed in SEEDS:
        graph = random_graph(seed)
        space = budget_for(graph)
        engine = BenefitEngine(graph)
        start = RGreedy(1).run(engine, space / 2)
        picks += add_moves(LocalSearchRefiner().refine(engine, space, start.selected))
    assert picks >= 7


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_maintenance_aware_backend_parity(seed, weight):
    """Maintenance-aware greedy reads the maintained cache; its result
    equals the run on recomputed reads."""
    graph = random_graph(seed)
    space = budget_for(graph)
    results = {
        engine_cls.__name__: MaintenanceAwareGreedy(update_weight=weight).run(
            engine_cls(graph), space
        )
        for engine_cls in (EagerReadEngine, BenefitEngine)
    }
    assert_identical(results)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_pbs_backend_parity(seed):
    """Pick-by-smallest gives the same result on a fresh engine and on
    one reset after a 2-greedy run left its cache and selection behind."""
    graph = random_graph(seed)
    space = budget_for(graph)
    reused = BenefitEngine(graph)
    RGreedy(2).run(reused, space)
    results = {
        name: PickBySmallest(include_indexes=True).run(engine, space)
        for name, engine in (("fresh", BenefitEngine(graph)), ("reused", reused))
    }
    assert_identical(results)
