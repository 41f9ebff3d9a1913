"""Parsing selection labels back into views and indexes."""

import pytest

from repro.core.index import Index
from repro.core.view import View
from repro.serve import parse_structure, resolve_selection

NAMES = ["part", "supplier", "customer"]


class TestParseStructure:
    def test_char_view(self):
        assert parse_structure("psc", "psc") == View.of("p", "s", "c")

    def test_comma_view(self):
        assert parse_structure("part,customer", NAMES) == View.of("part", "customer")

    def test_none_view(self):
        assert parse_structure("none", "psc") == View.none()

    def test_char_index(self):
        index = parse_structure("I_sp(ps)", "psc")
        assert isinstance(index, Index)
        assert index.view == View.of("p", "s")
        assert index.key == ("s", "p")

    def test_comma_index(self):
        index = parse_structure("I_part,customer(part,customer)", NAMES)
        assert index.key == ("part", "customer")
        assert index.view == View.of("part", "customer")

    def test_round_trips_lattice_labels(self, serve_model4):
        """Every label the lattice emits parses back to its object."""
        from repro.core.index import enumerate_fat_indexes

        lattice = serve_model4.lattice
        names = lattice.schema.names
        for view in lattice.views():
            assert parse_structure(lattice.label(view), names) == view
            for index in enumerate_fat_indexes(view):
                assert parse_structure(lattice.index_label(index), names) == index

    def test_malformed_index_rejected(self):
        with pytest.raises(ValueError, match="malformed index label"):
            parse_structure("I_sp", "psc")

    def test_index_on_empty_view_rejected(self):
        with pytest.raises(ValueError, match="I_"):
            parse_structure("I_()", "psc")


class TestResolveSelection:
    def test_splits_and_preserves_order(self):
        views, indexes = resolve_selection(["psc", "ps", "I_sp(ps)", "p"], "psc")
        assert views == [View.of("p", "s", "c"), View.of("p", "s"), View.of("p")]
        assert indexes == [Index(View.of("p", "s"), ("s", "p"))]

    def test_index_without_view_rejected(self):
        with pytest.raises(ValueError, match="without its view"):
            resolve_selection(["psc", "I_sp(ps)"], "psc")
