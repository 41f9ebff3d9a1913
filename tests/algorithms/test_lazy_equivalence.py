"""Cross-checks: dense vs sparse backends, lazy vs eager stage loops.

Every selection algorithm gained a ``lazy`` switch whose loops consult
the engine's maintained single-benefit cache and skip provably-no-op
work (CELF-style).  The contract is *bit-identical selections*: on any
graph, every (backend, lazy) combination must return the same structures
in the same order, with equal benefit and τ.  These tests enforce the
contract on the paper fixtures and on seeded random graphs (both unit
and heterogeneous spaces).
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
    ("1-greedy", lambda lz: RGreedy(1, lazy=lz)),
    ("2-greedy", lambda lz: RGreedy(2, lazy=lz)),
    ("3-greedy", lambda lz: RGreedy(3, lazy=lz)),
    ("1-greedy-paper", lambda lz: RGreedy(1, fit="paper", lazy=lz)),
    ("hru", lambda lz: HRUGreedy(lazy=lz)),
    ("inner-space", lambda lz: InnerLevelGreedy(lazy=lz)),
    ("inner-peak", lambda lz: InnerLevelGreedy(ig_rule="peak", lazy=lz)),
    ("two-step", lambda lz: TwoStep(lazy=lz)),
    ("two-step-remaining", lambda lz: TwoStep(index_budget_mode="remaining", lazy=lz)),
]


def all_variants(make, graph, space, seed=()):
    out = {}
    for backend in ("dense", "sparse"):
        engine = BenefitEngine(graph, backend=backend)
        for lazy in (False, True):
            result = make(lazy).run(engine, space, seed=seed)
            out[(backend, lazy)] = result
    return out


def assert_identical(results):
    ((_, reference), *rest) = results.items()
    for key, result in rest:
        assert result.selected == reference.selected, key
        assert result.benefit == pytest.approx(reference.benefit, rel=1e-12), key
        assert result.tau == pytest.approx(reference.tau, rel=1e-12), key


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


@pytest.mark.parametrize("seed", SEEDS)
def test_local_search_equivalence(seed):
    graph = random_graph(seed)
    space = budget_for(graph)
    start = RGreedy(1).run(BenefitEngine(graph, backend="dense"), space)
    results = {}
    for backend in ("dense", "sparse"):
        engine = BenefitEngine(graph, backend=backend)
        for lazy in (False, True):
            results[(backend, lazy)] = LocalSearchRefiner(lazy=lazy).refine(
                engine, space, start.selected
            )
    assert_identical(results)


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_maintenance_aware_backend_parity(seed, weight):
    graph = random_graph(seed)
    space = budget_for(graph)
    results = {
        backend: MaintenanceAwareGreedy(update_weight=weight).run(
            BenefitEngine(graph, backend=backend), space
        )
        for backend in ("dense", "sparse")
    }
    assert_identical(results)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_pbs_backend_parity(seed):
    graph = random_graph(seed)
    space = budget_for(graph)
    results = {
        backend: PickBySmallest(include_indexes=True).run(
            BenefitEngine(graph, backend=backend), space
        )
        for backend in ("dense", "sparse")
    }
    assert_identical(results)
