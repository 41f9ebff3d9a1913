"""Tests for repro.core.qvgraph."""

import math

import numpy as np
import pytest

from repro.core.index import count_fat_indexes
from repro.core.qvgraph import QueryViewGraph
from repro.core.view import View


class TestManualConstruction:
    def test_duplicate_query_rejected(self):
        g = QueryViewGraph()
        g.add_query("q", 10)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_query("q", 5)

    def test_duplicate_structure_rejected(self):
        g = QueryViewGraph()
        g.add_view("v", 1)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_view("v", 2)

    def test_index_requires_existing_view(self):
        g = QueryViewGraph()
        with pytest.raises(ValueError, match="unknown view"):
            g.add_index("v", "i")

    def test_index_name_cannot_collide_with_view(self):
        g = QueryViewGraph()
        g.add_view("v", 1)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_index("v", "v")

    def test_index_space_defaults_to_view_space(self):
        g = QueryViewGraph()
        g.add_view("v", 7)
        idx = g.add_index("v", "i")
        assert idx.space == 7

    def test_edge_endpoints_must_exist(self):
        g = QueryViewGraph()
        g.add_query("q", 10)
        g.add_view("v", 1)
        with pytest.raises(ValueError):
            g.add_edge("q", "nope", 1)
        with pytest.raises(ValueError):
            g.add_edge("nope", "v", 1)

    def test_parallel_edges_keep_min(self):
        g = QueryViewGraph()
        g.add_query("q", 10)
        g.add_view("v", 1)
        g.add_edge("q", "v", 5)
        g.add_edge("q", "v", 3)
        g.add_edge("q", "v", 8)
        assert g.edge_cost("q", "v") == 3

    def test_negative_cost_rejected(self):
        g = QueryViewGraph()
        g.add_query("q", 10)
        g.add_view("v", 1)
        for cost in (-1, math.nan):
            with pytest.raises(ValueError, match="edge cost"):
                g.add_edge("q", "v", cost)
        assert g.n_edges == 0

    def test_nonpositive_space_rejected(self):
        g = QueryViewGraph()
        for space in (0, -1, math.nan):
            with pytest.raises(ValueError, match="space must be > 0"):
                g.add_view("v", space)
        g.add_view("v", 1)
        with pytest.raises(ValueError, match="space must be > 0"):
            g.add_index("v", "i", math.nan)

    def test_negative_default_cost_rejected(self):
        g = QueryViewGraph()
        for cost in (-1, math.nan):
            with pytest.raises(ValueError, match="default cost"):
                g.add_query("q", cost)
        for frequency in (-1, math.nan):
            with pytest.raises(ValueError, match="frequency"):
                g.add_query("q", 10, frequency=frequency)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda g: g.add_query("q1", math.inf), "default cost"),
            (lambda g: g.add_query("q1", 10, frequency=math.inf), "frequency"),
            (lambda g: g.add_view("w", math.inf), "space"),
            (lambda g: g.add_index("v", "i", math.inf), "space"),
            (lambda g: g.add_edge("q", "v", math.inf), "edge cost"),
            (
                lambda g: g.add_edges_bulk(
                    np.array([0]), np.array([0]), np.array([math.inf])
                ),
                "edge cost",
            ),
        ],
        ids=["default_cost", "frequency", "view_space", "index_space", "edge", "bulk_edge"],
    )
    def test_infinite_input_rejected(self, build, field):
        # inf − inf and 0 · inf are NaN: a cached single benefit would be
        # NaN and never re-scored
        g = QueryViewGraph()
        g.add_query("q", 10)
        g.add_view("v", 1)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(g)
        assert g.n_edges == 0 and g.n_queries == 1 and g.n_structures == 1

    def test_graph_with_an_infinite_default_cost_is_refused(self):
        g = QueryViewGraph()
        with pytest.raises(ValueError, match="'q1': default cost must be finite"):
            g.add_query("q1", math.inf)
            g.add_query("q2", 100)
            g.add_view("v", 5)
            g.add_view("w", 5)
            g.add_edge("q1", "v", math.inf)
            g.add_edge("q2", "v", 50)
            g.add_edge("q1", "w", 200)

    def test_totals(self):
        g = QueryViewGraph()
        g.add_query("q1", 10, frequency=2.0)
        g.add_query("q2", 5)
        g.add_view("v", 3)
        g.add_index("v", "i")
        assert g.total_space() == 6
        assert g.total_default_cost() == 25
        assert g.n_structures == 2

    def test_indexes_of(self):
        g = QueryViewGraph()
        g.add_view("v", 1)
        g.add_index("v", "i1")
        g.add_index("v", "i2")
        assert g.indexes_of("v") == ["i1", "i2"]

    def test_validate_passes_on_good_graph(self, fig2_g):
        fig2_g.validate()


class TestFromCube:
    def test_tpcd_counts(self, tpcd_g):
        assert tpcd_g.n_queries == 27
        assert len(tpcd_g.views) == 8
        assert len(tpcd_g.indexes) == count_fat_indexes(3)

    def test_view_spaces_match_lattice(self, tpcd_g, tpcd_lat):
        for view in tpcd_lat.views():
            assert tpcd_g.structure(tpcd_lat.label(view)).space == tpcd_lat.size(view)

    def test_index_space_equals_view_space(self, tpcd_g):
        for idx in tpcd_g.indexes:
            assert idx.space == tpcd_g.structure(idx.view_name).space

    def test_default_costs_are_top_size(self, tpcd_g):
        for q in tpcd_g.queries:
            assert q.default_cost == 6_000_000

    def test_view_edges_cover_answerable_queries(self, tpcd_g):
        # the top view answers every query at full-scan cost
        for q in tpcd_g.queries:
            assert tpcd_g.edge_cost(q.name, "psc") == 6_000_000

    def test_useless_index_edges_skipped(self, tpcd_g):
        # subcube query γ(psc)σ() has no index edges at all
        q_name = "γ(cps)σ()"
        index_edges = [
            s for (qn, s, c) in tpcd_g.edges()
            if qn == q_name and tpcd_g.structure(s).is_index
        ]
        assert index_edges == []

    def test_index_universe_none(self, tpcd_lat):
        g = QueryViewGraph.from_cube(tpcd_lat, index_universe="none")
        assert g.indexes == []

    def test_index_universe_all(self, tpcd_lat):
        from repro.core.index import count_all_indexes

        g = QueryViewGraph.from_cube(tpcd_lat, index_universe="all")
        assert len(g.indexes) == count_all_indexes(3)

    def test_index_universe_invalid(self, tpcd_lat):
        with pytest.raises(ValueError, match="index_universe"):
            QueryViewGraph.from_cube(tpcd_lat, index_universe="bogus")

    def test_frequencies_applied(self, tpcd_lat):
        from repro.core.query import enumerate_slice_queries

        queries = list(enumerate_slice_queries(tpcd_lat.schema.names))
        freqs = {queries[0]: 5.0}
        g = QueryViewGraph.from_cube(tpcd_lat, queries=queries, frequencies=freqs)
        assert g.query(str(queries[0])).frequency == 5.0
        assert g.query(str(queries[1])).frequency == 1.0

    def test_payloads_preserved(self, tpcd_g):
        struct = tpcd_g.structure("ps")
        assert struct.payload == View.of("p", "s")
