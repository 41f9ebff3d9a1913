"""The per-edge loop ``QueryViewGraph.from_cube`` used to keep beside its
bitmask kernel: one ``LinearCostModel`` call and one ``add_edge`` per
(query, structure) pair.  ``tests/core/test_qvgraph_vectorized.py``
compares ``from_cube`` against it with exact equality.
"""

from repro.core.costmodel import LinearCostModel
from repro.core.index import enumerate_all_indexes, enumerate_fat_indexes
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import enumerate_slice_queries

INDEX_UNIVERSES = {
    "fat": enumerate_fat_indexes,
    "all": enumerate_all_indexes,
    "none": lambda view: iter(()),
}


def reference_from_cube(lattice, queries=None, frequencies=None, index_universe="fat"):
    """``from_cube``'s graph, built one edge at a time.  Index edges that
    do not beat the plain view scan are left out, as ``from_cube`` does."""
    cost_model = LinearCostModel(lattice)
    if queries is None:
        queries = list(enumerate_slice_queries(lattice.schema.names))
    frequencies = dict(frequencies or {})
    index_enum = INDEX_UNIVERSES[index_universe]

    graph = QueryViewGraph()
    for query in queries:
        graph.add_query(
            str(query),
            default_cost=cost_model.default_cost(query),
            frequency=frequencies.get(query, 1.0),
            payload=query,
        )

    for view in lattice.views():
        view_name = lattice.label(view)
        view_rows = lattice.size(view)
        graph.add_view(view_name, space=view_rows, payload=view)
        answerable = [q for q in queries if q.answerable_by(view)]
        for query in answerable:
            graph.add_edge(str(query), view_name, cost_model.cost(query, view))
        for index in index_enum(view):
            index_name = lattice.index_label(index)
            graph.add_index(view_name, index_name, payload=index)
            for query in answerable:
                cost = cost_model.cost(query, view, index)
                if cost < view_rows:
                    graph.add_edge(str(query), index_name, cost)
    return graph
