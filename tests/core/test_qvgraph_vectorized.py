"""The bitmask fast path of :meth:`QueryViewGraph.from_cube` and the bulk
edge-block storage behind it.

The per-edge loop (``QueryViewGraph._from_cube_per_edge``, the path for
inputs the fast path cannot take) is the reference; the fast path must
produce a node-for-node, edge-for-edge, value-identical graph.
"""

import numpy as np
import pytest

from repro.core.benefit import BenefitEngine
from repro.core.costmodel import LinearCostModel
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import QueryViewGraph, _index_enumerator
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.estimation.sizes import analytical_lattice


def lattice_of(n_dims: int) -> CubeLattice:
    cards = [3 + 2 * i for i in range(n_dims)]
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
    )
    return analytical_lattice(schema, max(1.0, 0.1 * schema.dense_cells))


def per_edge(
    lat: CubeLattice,
    queries=None,
    frequencies=None,
    index_universe: str = "fat",
    skip_useless_index_edges: bool = True,
) -> QueryViewGraph:
    """The per-edge loop on ``from_cube``'s default inputs."""
    if queries is None:
        queries = list(enumerate_slice_queries(lat.schema.names))
    return QueryViewGraph._from_cube_per_edge(
        lat,
        list(queries),
        dict(frequencies or {}),
        LinearCostModel(lat),
        _index_enumerator(index_universe),
        skip_useless_index_edges,
    )


def graphs_equal(a: QueryViewGraph, b: QueryViewGraph) -> None:
    assert [q.name for q in a.queries] == [q.name for q in b.queries]
    assert [(q.default_cost, q.frequency) for q in a.queries] == [
        (q.default_cost, q.frequency) for q in b.queries
    ]
    assert [(s.name, s.kind, s.space, s.view_name) for s in a.structures] == [
        (s.name, s.kind, s.space, s.view_name) for s in b.structures
    ]
    assert a.n_edges == b.n_edges
    ea = sorted(a.edges())
    eb = sorted(b.edges())
    assert ea == eb  # exact float equality included


@pytest.mark.parametrize("n_dims", [1, 2, 3])
@pytest.mark.parametrize("index_universe", ["fat", "all", "none"])
def test_fast_path_identical_to_reference(n_dims, index_universe):
    lat = lattice_of(n_dims)
    fast = QueryViewGraph.from_cube(lat, index_universe=index_universe)
    graphs_equal(fast, per_edge(lat, index_universe=index_universe))


def test_fast_path_identical_with_frequencies_and_subset_of_queries():
    lat = lattice_of(3)
    queries = list(enumerate_slice_queries(lat.schema.names))[::3]
    freqs = {q: 1.0 + (i % 4) for i, q in enumerate(queries)}
    fast = QueryViewGraph.from_cube(lat, queries, frequencies=freqs)
    graphs_equal(fast, per_edge(lat, queries, frequencies=freqs))


def test_fast_path_identical_without_useless_edge_skip():
    lat = lattice_of(2)
    fast = QueryViewGraph.from_cube(lat, skip_useless_index_edges=False)
    graphs_equal(fast, per_edge(lat, skip_useless_index_edges=False))


def test_fast_path_identical_when_empty_view_has_two_rows():
    # an index with no usable prefix scans the whole view (|V| rows),
    # whatever size the lattice gives the empty view
    schema = CubeSchema([Dimension("p", 4), Dimension("s", 6), Dimension("c", 9)])
    sizes = {
        View(attrs): rows
        for attrs, rows in [
            ("psc", 150), ("ps", 24), ("pc", 30), ("sc", 40),
            ("p", 4), ("s", 6), ("c", 9), ("", 2),
        ]
    }
    lat = CubeLattice(schema, sizes)
    for skip in (True, False):
        graphs_equal(
            QueryViewGraph.from_cube(lat, skip_useless_index_edges=skip),
            per_edge(lat, skip_useless_index_edges=skip),
        )


def test_compiled_engines_identical():
    lat = lattice_of(3)
    fast = BenefitEngine(QueryViewGraph.from_cube(lat))
    slow = BenefitEngine(per_edge(lat))
    assert fast.n_structures == slow.n_structures
    for sid in range(fast.n_structures):
        assert np.array_equal(fast.cost_row(sid), slow.cost_row(sid))
    assert np.array_equal(fast.defaults, slow.defaults)
    assert np.array_equal(fast.frequencies, slow.frequencies)
    assert np.array_equal(fast.spaces, slow.spaces)


def test_subclassed_cost_model_falls_back_silently(monkeypatch):
    """A subclassed cost model, or a subclassed query, takes the per-edge
    loop and still builds the same graph."""
    lat = lattice_of(2)

    class OddModel(LinearCostModel):
        pass

    class OddQuery(SliceQuery):
        pass

    ref = QueryViewGraph.from_cube(lat)

    def no_fast_path(*args):
        raise AssertionError("a subclassed input took the fast path")

    monkeypatch.setattr(QueryViewGraph, "_from_cube_vectorized", no_fast_path)
    odd = [
        OddQuery(q.groupby, q.selection)
        for q in enumerate_slice_queries(lat.schema.names)
    ]
    graphs_equal(ref, QueryViewGraph.from_cube(lat, cost_model=OddModel(lat)))
    graphs_equal(ref, QueryViewGraph.from_cube(lat, odd))


class TestBulkEdges:
    def graph(self) -> QueryViewGraph:
        g = QueryViewGraph()
        g.add_view("v", 10)
        g.add_view("w", 5)
        g.add_query("q0", 100)
        g.add_query("q1", 50)
        return g

    def test_bulk_edges_visible_to_readers(self):
        g = self.graph()
        g.add_edges_bulk(
            np.array([0, 1]), np.array([0, 1]), np.array([4.0, 2.0])
        )
        assert g.n_edges == 2
        assert g.edge_cost("q0", "v") == 4.0
        assert g.edge_cost("q1", "w") == 2.0
        assert sorted(g.edges()) == [("q0", "v", 4.0), ("q1", "w", 2.0)]
        g.validate()

    def test_parallel_edges_resolve_to_minimum(self):
        g = self.graph()
        g.add_edge("q0", "v", 9.0)
        g.add_edges_bulk(np.array([0, 0]), np.array([0, 0]), np.array([7.0, 3.0]))
        assert g.edge_cost("q0", "v") == 3.0
        q_idx, s_idx, costs = g.edge_arrays()
        engine = BenefitEngine(g)
        assert engine.edge_cost_by_id(0, 0) == 3.0

    def test_misaligned_arrays_rejected(self):
        g = self.graph()
        with pytest.raises(ValueError):
            g.add_edges_bulk(np.array([0]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_out_of_range_positions_rejected(self):
        g = self.graph()
        with pytest.raises(ValueError):
            g.add_edges_bulk(np.array([5]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            g.add_edges_bulk(np.array([0]), np.array([9]), np.array([1.0]))

    def test_negative_costs_rejected(self):
        g = self.graph()
        for cost in (-1.0, np.nan):
            with pytest.raises(ValueError, match="edge cost"):
                g.add_edges_bulk(np.array([0, 1]), np.array([0, 1]), np.array([1.0, cost]))
        assert g.n_edges == 0

    def test_empty_block_is_noop(self):
        g = self.graph()
        g.add_edges_bulk(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert g.n_edges == 0

    def test_edge_arrays_mix_dict_and_blocks(self):
        g = self.graph()
        g.add_edge("q1", "v", 8.0)
        g.add_edges_bulk(np.array([0]), np.array([1]), np.array([2.5]))
        q_idx, s_idx, costs = g.edge_arrays()
        triples = sorted(zip(q_idx.tolist(), s_idx.tolist(), costs.tolist()))
        assert triples == [(0, 1, 2.5), (1, 0, 8.0)]
