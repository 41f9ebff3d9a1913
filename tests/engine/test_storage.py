"""Tests for catalog persistence (save/load round trip)."""

import json

import numpy as np
import pytest

from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.storage import load_catalog, save_catalog


@pytest.fixture
def catalog():
    schema = CubeSchema(
        [Dimension("a", 15), Dimension("b", 9), Dimension("c", 4)],
        measure="revenue",
    )
    fact = generate_fact_table(schema, 600, rng=8)
    catalog = Catalog(fact)
    for attrs in ((), ("a",), ("a", "b"), ("a", "b", "c")):
        catalog.materialize(View(attrs))
    catalog.materialize(View.of("b"), agg="count")
    catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
    catalog.build_index(Index(View.of("a", "b", "c"), ("c", "a", "b")))
    return catalog


class TestRoundTrip:
    def test_fact_table_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.n_rows == catalog.fact.n_rows
        for name in catalog.fact.schema.names:
            assert np.array_equal(loaded.fact.column(name), catalog.fact.column(name))
        assert np.array_equal(loaded.fact.measures, catalog.fact.measures)

    def test_schema_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.schema.names == catalog.fact.schema.names
        assert loaded.fact.schema.measure == "revenue"

    def test_views_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert set(loaded.views()) == set(catalog.views())
        for view in catalog.views():
            original = list(catalog.view_table(view).iter_rows())
            restored = list(loaded.view_table(view).iter_rows())
            assert original == restored

    def test_aggregate_kind_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.view_table(View.of("b")).agg == "count"

    def test_indexes_rebuilt(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert set(loaded.indexes()) == set(catalog.indexes())
        for index in catalog.indexes():
            saved = catalog.sorted_index(index)
            reloaded = loaded.sorted_index(index)
            assert reloaded.rows.tolist() == saved.rows.tolist()
            assert [k.tolist() for k in reloaded.keys] == [
                k.tolist() for k in saved.keys
            ]

    def test_query_results_identical(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        query = SliceQuery(groupby=("a",), selection=("b",))
        value = int(catalog.fact.column("b")[0])
        before = Executor(catalog).execute(query, {"b": value})
        after = Executor(loaded).execute(query, {"b": value})
        assert before.groups == after.groups
        assert before.rows_processed == after.rows_processed

    def test_space_accounting_identical(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.total_rows() == catalog.total_rows()


class TestFormat:
    def test_manifest_is_json(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        with open(tmp_path / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["format_version"] == 1
        assert len(manifest["views"]) == 5
        assert len(manifest["indexes"]) == 2

    def test_unknown_format_version_rejected(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            load_catalog(tmp_path)

    def test_save_creates_directory(self, catalog, tmp_path):
        target = tmp_path / "nested" / "catalog"
        save_catalog(catalog, target)
        assert (target / "manifest.json").exists()

    def test_views_whose_names_collide_get_their_own_files(self, tmp_path):
        """Views {a, b} and {a_b} both spell ``a_b`` once punctuation is
        replaced; each must still be saved and reloaded."""
        schema = CubeSchema(
            [Dimension("a", 4), Dimension("b", 3), Dimension("a_b", 5)]
        )
        catalog = Catalog(generate_fact_table(schema, 80, rng=3))
        for attrs in (("a", "b"), ("a_b",)):
            catalog.materialize(View(attrs))
        catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        for view in catalog.views():
            assert list(loaded.view_table(view).iter_rows()) == list(
                catalog.view_table(view).iter_rows()
            )
        assert loaded.total_rows() == catalog.total_rows()

    def test_earlier_file_names_still_load(self, catalog, tmp_path):
        """A directory whose views are saved as ``view_<attrs>.npz`` (the
        earlier naming) loads: file names come from the manifest."""
        save_catalog(catalog, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["views"]:
            label = "_".join(entry["attrs"]) or "none"
            (tmp_path / entry["file"]).rename(tmp_path / f"view_{label}.npz")
            entry["file"] = f"view_{label}.npz"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_catalog(tmp_path)
        for view in catalog.views():
            assert list(loaded.view_table(view).iter_rows()) == list(
                catalog.view_table(view).iter_rows()
            )

    def test_save_load_after_maintenance(self, catalog, tmp_path):
        """Persistence composes with the refresh path."""
        from repro.engine.maintenance import apply_delta

        schema = catalog.fact.schema
        delta = generate_fact_table(schema, 50, rng=99)
        # only sum/count views survive refresh; this catalog qualifies
        apply_delta(catalog, delta.columns, delta.measures)
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.n_rows == catalog.fact.n_rows
        for view in catalog.views():
            assert list(loaded.view_table(view).iter_rows()) == list(
                catalog.view_table(view).iter_rows()
            )


class TestViewFileChecks:
    """A view file's key columns are outside input: ``load_catalog``
    checks them as ``FactTable`` checks fact columns, and their rows must
    strictly ascend in key order."""

    @pytest.fixture
    def saved(self, tmp_path):
        from repro.cube.generator import dense_fact_table

        schema = CubeSchema([Dimension("a", 4), Dimension("b", 3)])
        catalog = Catalog(dense_fact_table(schema, rng=0))
        for attrs in (("a",), ("a", "b"), ()):
            catalog.materialize(View(attrs))
        save_catalog(catalog, tmp_path)
        return catalog, tmp_path

    @staticmethod
    def rewrite(directory, attrs, name, values):
        """Replace array ``name`` of the view file holding ``attrs``."""
        manifest = json.loads((directory / "manifest.json").read_text())
        (entry,) = [e for e in manifest["views"] if tuple(e["attrs"]) == attrs]
        path = directory / entry["file"]
        with np.load(path) as arrays:
            stored = dict(arrays)
        stored[name] = np.asarray(values)
        np.savez(path, **stored)
        return entry["file"]

    def test_valid_catalog_round_trips(self, saved):
        catalog, directory = saved
        loaded = load_catalog(directory)
        for view in catalog.views():
            assert list(loaded.view_table(view).iter_rows()) == list(
                catalog.view_table(view).iter_rows()
            )

    @pytest.mark.parametrize(
        "attrs, name, values, message",
        [
            (("a",), "key_a", [3, 0, 3, 9], r"key_a of .* has values outside \[0, 4\)"),
            (("a",), "key_a", [-1, 0, 1, 2], r"key_a of .* values outside \[0, 4\)"),
            (("a",), "key_a", [0.5, 1, 2, 3], "key_a of .* non-integral"),
            (("a",), "key_a", [0, 1, 2, np.nan], "key_a of .* non-finite"),
            (("a",), "key_a", [[0, 1], [2, 3]], "key_a of .* must be 1-D"),
            (("a",), "key_a", [0, 1, 1, 3], r"keys of \('a',\) do not strictly ascend"),
            (("a",), "key_a", [1, 0, 2, 3], r"keys of \('a',\) do not strictly ascend"),
            (("a",), "key_a", [0, 1, 2], "key and value columns differ in length"),
            (
                ("a", "b"), "key_b", [0, 1, 2] * 3 + [2, 1, 0],
                r"keys of \('a', 'b'\) do not strictly ascend",
            ),
            ((), "values", [1.0, 2.0], r"keys of \(\) do not strictly ascend"),
        ],
        ids=[
            "repro", "negative", "float", "nan", "2-d", "duplicate", "unsorted",
            "short", "pair-unsorted", "grand-total-twice",
        ],
    )
    def test_bad_view_file_rejected(self, saved, attrs, name, values, message):
        __, directory = saved
        file = self.rewrite(directory, attrs, name, values)
        with pytest.raises(ValueError, match=message) as raised:
            load_catalog(directory)
        assert file in str(raised.value)
        assert "\n" not in str(raised.value)

    def test_unknown_aggregate_rejected(self, saved):
        """A manifest ``agg`` outside the engine's aggregates fails at
        load, naming the view file, instead of answering stored sums
        under another aggregate's name."""
        __, directory = saved
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        (entry,) = [e for e in manifest["views"] if e["attrs"] == ["a"]]
        entry["agg"] = "median"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'median' is not one of") as raised:
            load_catalog(directory)
        assert entry["file"] in str(raised.value)
        assert "\n" not in str(raised.value)
