"""The bitmask fast path of :meth:`QueryViewGraph.from_cube` and the bulk
edge-block storage behind it.

The reference per-edge loop is kept verbatim; the fast path must produce a
node-for-node, edge-for-edge, value-identical graph.
"""

import numpy as np
import pytest

from repro.core.benefit import BenefitEngine
from repro.core.costmodel import LinearCostModel
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import QueryViewGraph
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
    slow = QueryViewGraph.from_cube(
        lat, index_universe=index_universe, vectorized=False
    )
    graphs_equal(fast, slow)


def test_fast_path_identical_with_frequencies_and_subset_of_queries():
    lat = lattice_of(3)
    queries = list(enumerate_slice_queries(lat.schema.names))[::3]
    freqs = {q: 1.0 + (i % 4) for i, q in enumerate(queries)}
    fast = QueryViewGraph.from_cube(lat, queries, frequencies=freqs)
    slow = QueryViewGraph.from_cube(
        lat, queries, frequencies=freqs, vectorized=False
    )
    graphs_equal(fast, slow)


def test_fast_path_identical_without_useless_edge_skip():
    lat = lattice_of(2)
    fast = QueryViewGraph.from_cube(lat, skip_useless_index_edges=False)
    slow = QueryViewGraph.from_cube(
        lat, skip_useless_index_edges=False, vectorized=False
    )
    graphs_equal(fast, slow)


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
            QueryViewGraph.from_cube(
                lat, skip_useless_index_edges=skip, vectorized=False
            ),
        )


def test_compiled_engines_identical():
    lat = lattice_of(3)
    fast = BenefitEngine(QueryViewGraph.from_cube(lat))
    slow = BenefitEngine(QueryViewGraph.from_cube(lat, vectorized=False))
    assert fast.n_structures == slow.n_structures
    for sid in range(fast.n_structures):
        assert np.array_equal(fast.cost_row(sid), slow.cost_row(sid))
    assert np.array_equal(fast.defaults, slow.defaults)
    assert np.array_equal(fast.frequencies, slow.frequencies)
    assert np.array_equal(fast.spaces, slow.spaces)


def test_vectorized_true_rejects_foreign_queries():
    lat = lattice_of(2)

    class OddQuery(SliceQuery):
        pass

    # a subclassed query disables the fast path
    odd = [SliceQuery.__new__(OddQuery)]
    with pytest.raises(ValueError):
        QueryViewGraph.from_cube(lat, odd, vectorized=True)


def test_vectorized_true_rejects_foreign_cost_model():
    lat = lattice_of(2)

    class OddModel(LinearCostModel):
        pass

    with pytest.raises(ValueError):
        QueryViewGraph.from_cube(lat, cost_model=OddModel(lat), vectorized=True)


def test_subclassed_cost_model_falls_back_silently():
    lat = lattice_of(2)

    class OddModel(LinearCostModel):
        pass

    ref = QueryViewGraph.from_cube(lat, vectorized=False)
    fallback = QueryViewGraph.from_cube(lat, cost_model=OddModel(lat))
    graphs_equal(ref, fallback)


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
