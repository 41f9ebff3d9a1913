"""r-greedy's one-pass bundle-root bound against the full-rescan loop.

Before its per-root loop, an r-greedy stage (r >= 2) computes in one
array pass the subtree bound of every bundle root and compares it with
the running maximum of the single candidates' ratios offered up to that
root; only roots that beat it are visited.  The skip must never change a
stage: every result equals ``EagerRGreedy``'s (no prune at all) with
``==``, for r = 2, 3 and 4 under both fit rules.
"""

import numpy as np
import pytest

from repro.algorithms import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.runtime.faults import _cube_graph, smoke_budget, top_view_of
from tests.algorithms.eager_reference import EagerRGreedy
from tests.algorithms.test_lazy_equivalence import (
    assert_identical,
    budget_for,
    random_graph,
)

RS = [2, 3, 4]
FITS = ["strict", "paper"]


def both(r, fit, graph, space, seed=()):
    engine = BenefitEngine(graph)
    return {
        "reference": EagerRGreedy(r, fit=fit).run(engine, space, seed=seed),
        "production": RGreedy(r, fit=fit).run(engine, space, seed=seed),
    }


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("r", RS)
class TestEqualsFullRescan:
    def test_figure2(self, r, fit, fig2_g):
        assert_identical(both(r, fit, fig2_g, FIGURE2_SPACE))

    @pytest.mark.parametrize("seed", range(12))
    def test_random(self, r, fit, seed):
        graph = random_graph(seed)
        assert_identical(both(r, fit, graph, budget_for(graph)))

    @pytest.mark.parametrize("n_dims", [3, 4, 5])
    @pytest.mark.parametrize("fraction", [0.05, 0.3])
    def test_cube(self, r, fit, n_dims, fraction):
        graph = _cube_graph(n_dims)
        engine = BenefitEngine(graph)
        space = smoke_budget(engine, fraction)
        assert_identical(both(r, fit, graph, space, seed=(top_view_of(engine),)))


def skipped_roots_graph() -> QueryViewGraph:
    """Two roots whose bundles cannot beat the views offered before them,
    then a root whose bundle wins the first stage.

    ``V0`` alone has ratio 50/10 = 5; its bundle bound is (50 + 55) /
    (10 + 20) = 3.5.  ``V1``'s bound is (40 + 50) / (10 + 20) = 3.  Both
    stay below the running maximum 5, so the pass skips them.  ``V2``
    alone has ratio 5/2, but ``{V2, I2}`` has 24/4 = 6: its bound (5 +
    24) / 4 beats the running maximum by less than half of it.
    """
    g = QueryViewGraph()
    for v, (view_space, index_space) in enumerate([(10, 20), (10, 20), (2, 2)]):
        g.add_view(f"V{v}", view_space)
        g.add_index(f"V{v}", f"I{v}", index_space)
    for name in ("qa", "qb", "qc"):
        g.add_query(name, 100.0)
    for query, structure, cost in [
        ("qa", "V0", 50.0), ("qa", "I0", 45.0),
        ("qb", "V1", 60.0), ("qb", "I1", 50.0),
        ("qc", "V2", 95.0), ("qc", "I2", 76.0),
    ]:
        g.add_edge(query, structure, cost)
    return g


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("r", RS)
def test_bundle_wins_after_skipped_roots(r, fit, monkeypatch):
    graph = skipped_roots_graph()
    visited = []
    bundle_roots = RGreedy._bundle_roots

    def recording(self, engine, order, *args):
        roots = bundle_roots(self, engine, order, *args)
        visited.append([engine.name_of(int(order[pos])) for pos in roots])
        return roots

    monkeypatch.setattr(RGreedy, "_bundle_roots", recording)
    results = both(r, fit, graph, 40.0)  # every bundle fits
    assert_identical(results)
    assert visited[0] == ["V2"]  # V0 and V1 were skipped
    first = results["production"].stages[0]
    assert (first.structures, first.benefit, first.space) == (("V2", "I2"), 24.0, 4.0)


def test_root_without_positive_index_is_never_visited(monkeypatch):
    """A view whose indexes all have zero benefit roots nothing.  The
    pass leaves it out before any product: here its running maximum is
    0 and its smallest positive index space is inf, and 0 · inf is NaN.
    """
    g = QueryViewGraph()
    g.add_view("V", 4)
    g.add_index("V", "I", 4)
    g.add_view("W", 2)
    g.add_query("q", 10.0)
    g.add_edge("q", "V", 10.0)  # no gain over the default
    g.add_edge("q", "I", 10.0)
    g.add_edge("q", "W", 1.0)
    calls = []
    monkeypatch.setattr(
        RGreedy, "_subtree_pruned", lambda *args: calls.append(args) or False
    )
    with np.errstate(all="raise"):
        result = RGreedy(2).run(g, 8.0)
    assert result.selected == ("W",)
    assert calls == []
