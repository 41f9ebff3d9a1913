"""The graph's one edge store.

``add_edge`` and ``add_edges_bulk`` append to the same position-indexed
store, which the graph puts into CSR order once, each parallel pair at
its minimum cost; ``n_edges``, ``edges()``, ``edge_cost``,
``edge_arrays()`` and the benefit engine all read that one edge set.
"""

import numpy as np
import pytest

from repro.core.benefit import INF, BenefitEngine
from repro.core.hierarchy import hierarchical_lattice_graph
from repro.core.qvgraph import QueryViewGraph
from repro.cube.query_log import generate_query_log, pattern_counts
from repro.datasets.adversarial import one_greedy_trap, r_greedy_stress
from repro.datasets.paper_figure2 import figure2_graph
from repro.datasets.tpcd import tpcd_graph
from repro.datasets.tpcd_hierarchical import tpcd_hierarchical_cube
from repro.io import graph_from_dict, graph_to_dict
from repro.mining import mine_candidates
from tests.algorithms.test_rgreedy import cube_lattice


def parallel_graph() -> QueryViewGraph:
    """Parallel edges added through both adders, out of CSR order."""
    g = QueryViewGraph()
    for name, cost in (("q0", 100), ("q1", 80), ("q2", 60)):
        g.add_query(name, cost)
    g.add_view("v", 10)
    g.add_index("v", "i")
    g.add_view("w", 5)
    g.add_edge("q2", "w", 7.0)
    g.add_edge("q0", "v", 9.0)
    g.add_edges_bulk(np.array([0, 0, 1, 2]), np.array([0, 0, 1, 2]), np.array([7.0, 3.0, 4.0, 6.5]))
    g.add_edge("q1", "i", 2.0)
    g.add_edge("q1", "v", 10.0)
    g.add_edges_bulk(np.array([2]), np.array([2]), np.array([8.0]))
    return g


def assert_one_edge_set(graph: QueryViewGraph) -> BenefitEngine:
    engine = BenefitEngine(graph)
    assert graph.n_edges == engine.nnz
    q, s, c = graph.edge_arrays()
    assert q.size == s.size == c.size == engine.nnz
    order = np.lexsort((q, s))
    assert np.array_equal(order, np.arange(q.size))
    assert not np.any((s[1:] == s[:-1]) & (q[1:] == q[:-1]))
    return engine


def test_parallel_edges_through_both_adders():
    g = parallel_graph()
    engine = assert_one_edge_set(g)
    assert g.n_edges == engine.nnz == 4
    assert list(g.edges()) == [
        ("q0", "v", 3.0),
        ("q1", "v", 10.0),
        ("q1", "i", 2.0),
        ("q2", "w", 6.5),
    ]
    for query in g.queries:
        for structure in g.structures:
            got = g.edge_cost(query.name, structure.name)
            expected = engine.edge_cost_by_id(
                engine.structure_id(structure.name), engine.query_id(query.name)
            )
            assert (INF if got is None else got) == expected
    # graph documents write the same resolved set, in CSR order
    assert [(e["query"], e["structure"], e["cost"]) for e in graph_to_dict(g)["edges"]] == list(
        g.edges()
    )


def test_adding_after_a_read_resolves_again():
    g = parallel_graph()
    assert g.n_edges == 4
    g.add_edge("q0", "w", 1.0)
    g.add_edge("q0", "v", 0.5)
    assert g.n_edges == BenefitEngine(g).nnz == 5
    assert g.edge_cost("q0", "v") == 0.5
    assert g.edge_cost("q0", "w") == 1.0


def mined_graph(n_dims):
    lattice = cube_lattice(n_dims)
    counts = pattern_counts(generate_query_log(lattice.schema, 2000, rng=7))
    mined = mine_candidates(counts, lattice.schema.names)
    mined.ensure_structures([lattice.label(lattice.top)])
    return QueryViewGraph.from_mined(lattice, mined)


BUILDERS = {
    **{f"tpcd-{u}": (lambda u=u: tpcd_graph(index_universe=u)) for u in ("fat", "all", "none")},
    "figure2": figure2_graph,
    "figure2-document": lambda: graph_from_dict(graph_to_dict(figure2_graph())),
    "one_greedy_trap": lambda: one_greedy_trap(3),
    "r_greedy_stress": lambda: r_greedy_stress(3),
    "tpcd-hierarchical": lambda: hierarchical_lattice_graph(
        tpcd_hierarchical_cube(), max_fat_indexes_per_view=4
    ),
    **{f"from_cube-d{d}": (lambda d=d: QueryViewGraph.from_cube(cube_lattice(d))) for d in (3, 4, 5, 6)},
    **{f"from_mined-d{d}": (lambda d=d: mined_graph(d)) for d in (3, 4, 5, 6)},
}


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builder_reads_one_edge_set(name):
    assert_one_edge_set(BUILDERS[name]())
