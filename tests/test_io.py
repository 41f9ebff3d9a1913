"""Tests for JSON persistence (repro.io)."""

import json

import pytest

from repro.core.view import View
from repro.io import (
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    round_trip_lattice,
    save_lattice,
    save_selection,
    selection_to_dict,
)


class TestLatticeRoundTrip:
    def test_exact_sizes_preserved(self, tpcd_lat):
        restored = round_trip_lattice(tpcd_lat)
        for view in tpcd_lat.views():
            assert restored.size(view) == tpcd_lat.size(view)

    def test_schema_preserved(self, tpcd_lat):
        restored = round_trip_lattice(tpcd_lat)
        assert restored.schema.names == tpcd_lat.schema.names
        assert restored.schema.measure == tpcd_lat.schema.measure

    def test_word_attribute_names_round_trip(self):
        """``store`` is the view {store}, not {s, t, o, r, e}."""
        from repro.cube.schema import CubeSchema, Dimension
        from repro.estimation.sizes import analytical_lattice

        schema = CubeSchema(
            [Dimension("store", 30), Dimension("item", 80), Dimension("week", 20)]
        )
        lattice = analytical_lattice(schema, 0.15 * schema.dense_cells)
        restored = round_trip_lattice(lattice)
        assert restored.sizes() == lattice.sizes()
        assert restored.size(View.of("week")) == lattice.size(View.of("week"))

    def test_file_round_trip(self, tpcd_lat, tmp_path):
        path = tmp_path / "cube.json"
        save_lattice(tpcd_lat, path)
        restored = load_lattice(path)
        assert restored.sizes() == tpcd_lat.sizes()

    def test_document_is_plain_json(self, tpcd_lat, tmp_path):
        path = tmp_path / "cube.json"
        save_lattice(tpcd_lat, path)
        with open(path) as f:
            doc = json.load(f)
        assert doc["dimensions"] == {"p": 200_000, "s": 10_000, "c": 100_000}
        assert doc["view_rows"]["psc"] == 6_000_000


class TestLatticeFromDict:
    def test_analytical_fallback(self):
        doc = {"dimensions": {"a": 10, "b": 20}, "raw_rows": 150}
        lattice = lattice_from_dict(doc)
        assert lattice.size(lattice.top) <= 150
        assert len(lattice) == 4

    def test_missing_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            lattice_from_dict({"raw_rows": 10})

    def test_missing_sizes_rejected(self):
        with pytest.raises(ValueError, match="view_rows"):
            lattice_from_dict({"dimensions": {"a": 10}})

    def test_unknown_view_dimension_rejected(self):
        doc = {
            "dimensions": {"a": 10},
            "view_rows": {"a": 10, "none": 1, "z": 5},
        }
        with pytest.raises(ValueError, match="unknown dimensions"):
            lattice_from_dict(doc)

    def test_incomplete_view_rows_rejected(self):
        doc = {"dimensions": {"a": 10, "b": 5}, "view_rows": {"a": 10, "none": 1}}
        with pytest.raises(ValueError, match="missing"):
            lattice_from_dict(doc)

    def test_default_measure(self):
        doc = {"dimensions": {"a": 10}, "raw_rows": 10}
        assert lattice_from_dict(doc).schema.measure == "sales"


class TestSelectionSerialization:
    @pytest.fixture
    def result(self, fig2_g):
        from repro.algorithms import FIT_PAPER, RGreedy

        return RGreedy(2, fit=FIT_PAPER).run(fig2_g, 7)

    def test_headline_fields(self, result):
        doc = selection_to_dict(result)
        assert doc["algorithm"] == "2-greedy"
        assert doc["benefit"] == 194
        assert doc["selected"][0] == "V1"

    def test_stages_serialized(self, result):
        doc = selection_to_dict(result)
        assert doc["stages"][0]["structures"] == ["V1", "I1,1"]
        assert doc["stages"][0]["benefit"] == 90

    def test_save_is_valid_json(self, result, tmp_path):
        path = tmp_path / "sel.json"
        save_selection(result, path)
        with open(path) as f:
            doc = json.load(f)
        assert doc["space_used"] == 7


class TestGraphDocuments:
    def test_round_trip_figure2(self, fig2_g):
        from repro.io import graph_from_dict, graph_to_dict

        doc = graph_to_dict(fig2_g)
        restored = graph_from_dict(doc)
        assert restored.n_queries == fig2_g.n_queries
        assert restored.n_structures == fig2_g.n_structures
        assert restored.n_edges == fig2_g.n_edges
        # anchor preserved: 2-greedy still finds 194
        from repro.algorithms import FIT_PAPER, RGreedy

        assert RGreedy(2, fit=FIT_PAPER).run(restored, 7).benefit == 194

    def test_frequencies_survive(self, fig2_g):
        from repro.core.qvgraph import QueryViewGraph
        from repro.io import graph_from_dict, graph_to_dict

        g = QueryViewGraph()
        g.add_query("q", 10, frequency=2.5)
        g.add_view("v", 1)
        g.add_edge("q", "v", 1)
        restored = graph_from_dict(graph_to_dict(g))
        assert restored.query("q").frequency == 2.5

    def test_missing_sections_rejected(self):
        from repro.io import graph_from_dict

        with pytest.raises(ValueError, match="queries"):
            graph_from_dict({"views": []})

    def test_handwritten_document(self):
        from repro.io import graph_from_dict

        doc = {
            "queries": [{"name": "q1", "default_cost": 100}],
            "views": [
                {"name": "v", "space": 2,
                 "indexes": [{"name": "i", "space": 1}]}
            ],
            "edges": [{"query": "q1", "structure": "i", "cost": 1}],
        }
        graph = graph_from_dict(doc)
        assert graph.structure("i").space == 1
        assert graph.edge_cost("q1", "i") == 1

    def test_cli_advise_on_graph_document(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.paper_figure2 import figure2_graph
        from repro.io import graph_to_dict

        path = tmp_path / "fig2.json"
        path.write_text(json.dumps(graph_to_dict(figure2_graph())))
        rc = main(
            ["advise", "--lattice", str(path), "--space", "7",
             "--algorithm", "2greedy", "--fit", "paper"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "benefit 194" in out or "V1" in out


class TestFiniteValidation:
    """NaN/inf inputs are rejected at load with the offending field named
    (``NaN <= x`` is always false, so they would otherwise silently
    disable every budget comparison downstream)."""

    def test_nan_view_rows_rejected(self):
        doc = {
            "dimensions": {"a": 4, "b": 6},
            "view_rows": {"ab": float("nan"), "a": 4, "b": 6, "none": 1},
        }
        with pytest.raises(ValueError, match=r"view_rows\['ab'\]"):
            lattice_from_dict(doc)

    def test_inf_raw_rows_rejected(self):
        doc = {"dimensions": {"a": 4}, "raw_rows": float("inf")}
        with pytest.raises(ValueError, match="raw_rows"):
            lattice_from_dict(doc)

    def test_non_numeric_raw_rows_rejected(self):
        doc = {"dimensions": {"a": 4}, "raw_rows": "lots"}
        with pytest.raises(ValueError, match="raw_rows"):
            lattice_from_dict(doc)

    def test_nan_survives_json_parse_but_not_load(self, tmp_path):
        """Python's json module accepts the non-standard NaN token; the
        loader must still reject it."""
        from repro.io import load_lattice

        path = tmp_path / "nan.json"
        path.write_text('{"dimensions": {"a": 4}, "raw_rows": NaN}')
        with pytest.raises(ValueError, match="finite"):
            load_lattice(path)

    def test_hierarchical_nan_raw_rows_rejected(self):
        from repro.io import hierarchical_cube_from_dict

        doc = {
            "hierarchies": {"a": [["a", 5]]},
            "raw_rows": float("nan"),
        }
        with pytest.raises(ValueError, match="raw_rows"):
            hierarchical_cube_from_dict(doc)

    @pytest.mark.parametrize(
        "patch, field",
        [
            (("queries", 0, "default_cost"), "default_cost"),
            (("queries", 0, "frequency"), "frequency"),
            (("views", 0, "space"), r"views\['v'\].space"),
            (("views", 0, "indexes", 0, "space"), r"indexes\['i'\].space"),
            (("edges", 0, "cost"), "cost"),
        ],
    )
    def test_nan_graph_fields_rejected(self, patch, field):
        from repro.io import graph_from_dict

        doc = {
            "queries": [{"name": "q", "default_cost": 10, "frequency": 1}],
            "views": [
                {"name": "v", "space": 2,
                 "indexes": [{"name": "i", "space": 1}]}
            ],
            "edges": [{"query": "q", "structure": "i", "cost": 1}],
        }
        target = doc
        for key in patch[:-1]:
            target = target[key]
        target[patch[-1]] = float("nan")
        with pytest.raises(ValueError, match=field):
            graph_from_dict(doc)


class TestIterQueryLog:
    """Streaming JSONL loading (the miner's O(1)-RSS input path)."""

    @pytest.fixture
    def schema(self):
        from repro.cube.schema import CubeSchema, Dimension

        return CubeSchema([Dimension("a", 4), Dimension("b", 3)])

    @pytest.fixture
    def log_file(self, schema, tmp_path):
        from repro.cube.query_log import generate_query_log
        from repro.io import save_query_log

        path = tmp_path / "log.jsonl"
        save_query_log(generate_query_log(schema, 25, rng=1), path)
        return path

    def test_streams_same_entries_as_load(self, schema, log_file):
        from repro.io import iter_query_log, load_query_log

        assert list(iter_query_log(log_file, schema)) == load_query_log(
            log_file, schema
        )

    def test_is_lazy(self, schema, log_file):
        from repro.io import iter_query_log

        iterator = iter_query_log(log_file, schema)
        first = next(iterator)
        assert first.query is not None

    def test_empty_file_is_empty_iterator(self, schema, tmp_path):
        from repro.io import iter_query_log

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(iter_query_log(path, schema)) == []

    def test_blank_lines_skipped(self, schema, log_file):
        from repro.io import iter_query_log, load_query_log

        padded = log_file.parent / "padded.jsonl"
        padded.write_text("\n" + log_file.read_text().replace("\n", "\n\n"))
        assert list(iter_query_log(padded, schema)) == load_query_log(
            log_file, schema
        )

    def test_invalid_json_names_file_and_line(self, schema, tmp_path):
        from repro.io import iter_query_log

        path = tmp_path / "bad.jsonl"
        path.write_text('{"groupby": ["a"], "selection": []}\n{oops\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2.*invalid JSON"):
            list(iter_query_log(path, schema))

    def test_invalid_record_names_file_and_line(self, schema, tmp_path):
        from repro.io import iter_query_log

        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"groupby": ["a"], "selection": []}\n'
            '{"groupby": ["zz"], "selection": []}\n'
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            list(iter_query_log(path, schema))
