"""Tests for repro.core.view."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.view import View, parse_view

ATTRS = st.sets(st.sampled_from("abcdefgh"), max_size=6)


class TestViewBasics:
    def test_equality_ignores_order(self):
        assert View(["p", "s"]) == View(["s", "p"])

    def test_of_constructor(self):
        assert View.of("p", "s") == View(["p", "s"])

    def test_none_view_is_empty(self):
        assert len(View.none()) == 0
        assert View.none().attrs == frozenset()

    def test_hashable_and_interchangeable_in_sets(self):
        assert len({View.of("a", "b"), View.of("b", "a")}) == 1

    def test_str_single_char_attrs_concatenated(self):
        assert str(View.of("s", "p")) == "ps"  # sorted

    def test_str_multichar_attrs_comma_separated(self):
        assert str(View.of("part", "customer")) == "customer,part"

    def test_str_empty_is_none(self):
        assert str(View.none()) == "none"

    def test_repr_contains_label(self):
        assert "ps" in repr(View.of("p", "s"))

    def test_rejects_empty_attr(self):
        with pytest.raises(ValueError):
            View([""])

    def test_rejects_non_string_attr(self):
        with pytest.raises(ValueError):
            View([1, 2])

    def test_iter_yields_sorted(self):
        assert list(View.of("c", "a", "b")) == ["a", "b", "c"]

    def test_contains(self):
        assert "a" in View.of("a", "b")
        assert "z" not in View.of("a", "b")


class TestViewOrder:
    def test_le_is_subset(self):
        assert View.of("p") <= View.of("p", "c")
        assert not View.of("p") <= View.of("c")

    def test_lt_strict(self):
        assert View.of("p") < View.of("p", "c")
        assert not View.of("p") < View.of("p")

    def test_ge_gt(self):
        assert View.of("p", "c") >= View.of("p")
        assert View.of("p", "c") > View.of("p")

    def test_incomparable_views(self):
        p, c = View.of("p"), View.of("c")
        assert not p <= c and not c <= p

    def test_can_compute(self):
        assert View.of("p", "c").can_compute(View.of("p"))
        assert not View.of("p").can_compute(View.of("c"))

    def test_none_computable_from_everything(self):
        assert View.of("a").can_compute(View.none())

    def test_union_is_join(self):
        assert View.of("a").union(View.of("b")) == View.of("a", "b")

    def test_intersection_is_meet(self):
        assert View.of("a", "b").intersection(View.of("b", "c")) == View.of("b")

    @given(ATTRS, ATTRS)
    def test_order_matches_set_inclusion(self, a, b):
        assert (View(a) <= View(b)) == (a <= b)

    @given(ATTRS, ATTRS)
    def test_union_intersection_lattice_laws(self, a, b):
        va, vb = View(a), View(b)
        assert va.union(vb) >= va
        assert va.intersection(vb) <= va
        # absorption
        assert va.union(va.intersection(vb)) == va
        assert va.intersection(va.union(vb)) == va


class TestParseView:
    def test_parse_compact(self):
        assert parse_view("ps", "psc") == View.of("p", "s")

    def test_parse_comma(self):
        names = ["part", "supplier", "customer"]
        assert parse_view("part,customer", names) == View.of("part", "customer")

    def test_parse_none(self):
        assert parse_view("none", "psc") == View.none()
        assert parse_view("", "psc") == View.none()

    def test_parse_strips_whitespace(self):
        names = ["part", "customer"]
        assert parse_view(" part , customer ", names) == View.of("part", "customer")

    def test_roundtrip_single_char(self):
        view = View.of("x", "y", "z")
        assert parse_view(str(view), "xyz") == view

    def test_label_naming_one_attribute_is_that_attribute(self):
        names = ["store", "item", "week"]
        assert parse_view("week", names) == View.of("week")
        assert parse_view("store,week", names) == View.of("store", "week")
        for view in (View.of("store"), View.of("item", "week"), View.none()):
            assert parse_view(str(view), names) == view

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match=r"unknown dimensions \['x'\]"):
            parse_view("px", "psc")
