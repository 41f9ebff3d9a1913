"""The live edge store behind the maintained single-benefit cache.

The cache runs on a copy of the CSR/CSC store from which every *dead*
edge — cost at or above its query's current best cost — is dropped once
at least half the stored edges are dead.  A dead edge adds exactly +0.0
to its row's sum, now and after every later commit, so every cached
value must stay bitwise equal to a full recompute over the full store.
Reads that take a caller's base cost vector, or that describe the
instance, must keep seeing every edge; a reset or a restore, after
which best costs may rise again, must bring dropped edges back.

The graphs here are built for the edge cases of "dead": costs tied with
a query's best (``c == best``, including ``c == default``), zero-cost
edges, queries of frequency zero and parallel edges.
"""

import numpy as np
import pytest

from repro.algorithms import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.runtime.faults import _cube_graph, smoke_budget, top_view_of
from tests.algorithms.eager_reference import full_singles

SEEDS = range(10)


def tie_graph(seed: int) -> QueryViewGraph:
    """A seeded graph whose edge costs are small integers drawn from
    ``[0, default]``, so that ties with the best cost, zero costs and
    edges dead from the start are common; some queries weigh zero and
    some edges are given twice (the engine keeps the minimum)."""
    rng = np.random.default_rng(seed)
    g = QueryViewGraph()
    names = []
    for v in range(int(rng.integers(3, 7))):
        g.add_view(f"V{v}", float(rng.integers(1, 6)))
        names.append(f"V{v}")
        for i in range(int(rng.integers(0, 4))):
            g.add_index(f"V{v}", f"I{v}.{i}", float(rng.integers(1, 6)))
            names.append(f"I{v}.{i}")
    position = {name: pos for pos, name in enumerate(names)}
    parallel = ([], [], [])
    for q in range(int(rng.integers(8, 24))):
        default = int(rng.integers(4, 12))
        g.add_query(f"q{q}", float(default), frequency=float(rng.integers(0, 4)))
        for name in names:
            if rng.random() < 0.5:
                cost = float(rng.integers(0, default + 1))
                g.add_edge(f"q{q}", name, cost)
                if rng.random() < 0.2:
                    parallel[0].append(q)
                    parallel[1].append(position[name])
                    parallel[2].append(float(rng.integers(0, default + 1)))
    g.add_edges_bulk(*(np.array(column) for column in parallel))
    return g


def hexes(values) -> list:
    return [float(v).hex() for v in values]


class CheckedEngine(BenefitEngine):
    """An engine that checks its cache against the full store after
    every commit: exact (by ``float.hex``) for the structures a stage
    can pick, an upper bound for pending indexes of unselected views."""

    def __init__(self, graph):
        super().__init__(graph)
        self.checks = 0
        self.smallest_live = self.nnz

    def commit(self, ids):
        benefit = super().commit(ids)
        exact = full_singles(self)
        cached = self.single_benefit_bounds()
        pickable = self.is_view | self.selected_mask[self.view_id_of]
        assert hexes(cached[pickable]) == hexes(exact[pickable])
        assert np.all(cached[~pickable] >= exact[~pickable])
        self.checks += 1
        self.smallest_live = min(self.smallest_live, self._live.row_vals.size)
        return benefit


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_cache_equals_full_store_after_every_commit(r, seed):
    graph = tie_graph(seed)
    engine = CheckedEngine(graph)
    space = 0.6 * sum(s.space for s in graph.structures)
    result = RGreedy(r).run(engine, space)
    assert engine.checks == len(result.stages)
    assert hexes(engine.single_benefits()) == hexes(full_singles(engine))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cache_equals_full_store_on_a_cube(r):
    graph = _cube_graph(4)
    engine = CheckedEngine(graph)
    space = smoke_budget(engine, 0.3)
    RGreedy(r).run(engine, space, seed=(top_view_of(engine),))
    # the run did drop edges, so the checks covered the live store
    assert engine.smallest_live < engine.nnz


def test_seeds_drop_edges():
    """The tie graphs do exercise compaction."""
    dropped = 0
    for seed in SEEDS:
        engine = CheckedEngine(tie_graph(seed))
        RGreedy(1).run(engine, 0.6 * float(engine.spaces.sum()))
        dropped += engine.smallest_live < engine.nnz
    assert dropped >= len(SEEDS) // 2


def compacted():
    """An engine whose live store has dropped edges, with the snapshot
    taken before its first commit."""
    engine = BenefitEngine(_cube_graph(4))
    engine.single_benefits()
    snapshot = engine.snapshot()
    for view in engine.view_ids():
        engine.commit([int(view), *engine.index_ids_of(int(view)).tolist()])
        if engine._live.row_vals.size < engine.nnz:
            return engine, snapshot
    raise AssertionError("no commit compacted the live store")


def test_restore_brings_dropped_edges_back():
    engine, snapshot = compacted()
    engine.restore(snapshot)
    assert hexes(engine.single_benefits()) == hexes(full_singles(engine))
    view = int(engine.view_ids()[0])
    engine.commit([view])
    assert hexes(engine.single_benefits()) == hexes(full_singles(engine))


def test_reset_brings_dropped_edges_back():
    engine, _snapshot = compacted()
    engine.reset()
    assert hexes(engine.single_benefits()) == hexes(full_singles(engine))


def test_invalidate_keeps_the_cache_exact():
    engine, _snapshot = compacted()
    engine.invalidate()
    assert hexes(engine.single_benefits()) == hexes(full_singles(engine))


def test_reads_with_a_callers_base_count_every_edge():
    """``gains_for``, ``minimum_with``, ``min_cost_over`` and the
    instance descriptions read the full store, whatever was dropped."""
    engine, _snapshot = compacted()
    fresh = BenefitEngine(_cube_graph(4))
    everything = np.arange(engine.n_structures)
    above = engine.defaults * 2.0  # a base above every best cost
    assert hexes(engine.gains_for(everything, above)) == hexes(
        fresh.gains_for(everything, above)
    )
    assert hexes(engine.gains_for(everything, engine.defaults)) == hexes(
        fresh.gains_for(everything, fresh.defaults)
    )
    for sid in range(engine.n_structures):
        assert np.array_equal(
            engine.minimum_with(above, sid), fresh.minimum_with(above, sid)
        )
        assert np.array_equal(engine.cost_row(sid), fresh.cost_row(sid))
    assert np.array_equal(
        engine.min_cost_over(everything), fresh.min_cost_over(everything)
    )
    some = everything[::7].tolist()
    assert engine.absolute_benefit(some) == fresh.absolute_benefit(some)
    assert engine.max_achievable_benefit() == fresh.max_achievable_benefit()
    assert engine.fingerprint() == fresh.fingerprint()
    assert engine.nnz == fresh.nnz
    assert engine.cost_store_bytes() == fresh.cost_store_bytes()
