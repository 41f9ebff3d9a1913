"""Tests for repro.core.query."""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import query as query_module
from repro.core.query import (
    SliceQuery,
    count_slice_queries,
    enumerate_slice_queries,
    queries_for_view,
)
from repro.core.view import View, join_attrs


class SubQuery(SliceQuery):
    """A subclass at module level, so that pickle can find it."""


class TestSliceQuery:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            SliceQuery(groupby=["a"], selection=["a"])

    def test_view_is_union(self):
        q = SliceQuery(groupby=["c"], selection=["p", "s"])
        assert q.view == View.of("p", "s", "c")

    def test_subcube_query(self):
        q = SliceQuery(groupby=["a", "b"])
        assert q.is_subcube_query
        assert q.selection == frozenset()

    def test_empty_query_is_grand_total(self):
        q = SliceQuery()
        assert q.view == View.none()
        assert q.is_subcube_query

    def test_answerable_by_superset_views(self):
        q = SliceQuery(groupby=["a"], selection=["b"])
        assert q.answerable_by(View.of("a", "b"))
        assert q.answerable_by(View.of("a", "b", "c"))
        assert not q.answerable_by(View.of("a"))

    def test_equality_and_hash(self):
        q1 = SliceQuery(groupby=["a"], selection=["b"])
        q2 = SliceQuery(groupby=["a"], selection=["b"])
        q3 = SliceQuery(groupby=["b"], selection=["a"])
        assert q1 == q2 and hash(q1) == hash(q2)
        assert q1 != q3

    def test_str_format(self):
        q = SliceQuery(groupby=["c"], selection=["p", "s"])
        assert str(q) == "γ(c)σ(ps)"

    def test_str_empty_parts(self):
        assert str(SliceQuery()) == "γ()σ()"


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (2, 9), (3, 27), (6, 729)])
    def test_count_formula(self, n, expected):
        assert count_slice_queries(n) == expected

    def test_count_negative_raises(self):
        with pytest.raises(ValueError):
            count_slice_queries(-1)

    @pytest.mark.parametrize("dims", [["a"], ["a", "b"], ["a", "b", "c"]])
    def test_enumeration_matches_count(self, dims):
        queries = list(enumerate_slice_queries(dims))
        assert len(queries) == count_slice_queries(len(dims))

    def test_enumeration_has_no_duplicates(self):
        queries = list(enumerate_slice_queries(["a", "b", "c"]))
        assert len(set(queries)) == len(queries)

    def test_enumeration_rejects_duplicate_dims(self):
        with pytest.raises(ValueError):
            list(enumerate_slice_queries(["a", "a"]))

    def test_every_attr_in_exactly_one_role(self):
        for q in enumerate_slice_queries(["a", "b"]):
            assert q.groupby & q.selection == frozenset()
            assert q.groupby | q.selection <= {"a", "b"}

    def test_enumeration_is_deterministic(self):
        a = list(enumerate_slice_queries(["x", "y", "z"]))
        b = list(enumerate_slice_queries(["x", "y", "z"]))
        assert a == b


class TestQueriesForView:
    def test_r_dim_view_has_2_to_r_queries(self):
        view = View.of("a", "b", "c")
        assert len(list(queries_for_view(view))) == 8

    def test_all_queries_use_exactly_view_attrs(self):
        view = View.of("a", "b")
        for q in queries_for_view(view):
            assert q.attrs == view.attrs

    def test_union_over_views_is_full_enumeration(self):
        dims = ["a", "b", "c"]
        from itertools import chain, combinations

        views = [
            View(c) for r in range(4) for c in combinations(dims, r)
        ]
        via_views = set(chain.from_iterable(queries_for_view(v) for v in views))
        assert via_views == set(enumerate_slice_queries(dims))

    @given(st.sets(st.sampled_from("abcde"), min_size=0, max_size=5))
    def test_smallest_view_property(self, attrs):
        view = View(attrs)
        for q in queries_for_view(view):
            assert q.answerable_by(view)
            # no strictly smaller view answers it
            for attr in attrs:
                smaller = View(attrs - {attr})
                assert not q.answerable_by(smaller)


def former_label(query: SliceQuery) -> str:
    """``SliceQuery.__str__`` before labels were kept on the query."""
    groupby = join_attrs(sorted(query.groupby))
    return f"γ({groupby})σ({join_attrs(sorted(query.selection))})"


class TestInterning:
    """Equal queries of one class are one object, whichever way they
    were built; a new query validates and builds its view once."""

    DIMS = ("p", "s", "c")

    def test_equal_queries_are_one_object(self):
        q = SliceQuery(groupby=["c"], selection=["p", "s"])
        assert SliceQuery(groupby=("c",), selection={"s", "p"}) is q
        assert SliceQuery(frozenset("c"), frozenset("ps")) is q
        assert SliceQuery() is SliceQuery((), ())
        assert SliceQuery(groupby=["s"], selection=["p", "c"]) is not q

    def test_enumeration_returns_the_interned_objects(self):
        first = list(enumerate_slice_queries(self.DIMS))
        again = list(enumerate_slice_queries(self.DIMS))
        assert all(a is b for a, b in zip(first, again))
        for q in first:
            assert SliceQuery(sorted(q.groupby), sorted(q.selection)) is q

    def test_queries_for_view_returns_the_interned_objects(self):
        canonical = {q: q for q in enumerate_slice_queries(self.DIMS)}
        view = View.of(*self.DIMS)
        for q in queries_for_view(view):
            assert canonical[q] is q

    def test_log_entry_from_dict_returns_the_interned_object(self):
        from repro.cube.schema import CubeSchema, Dimension
        from repro.io import log_entry_from_dict, log_entry_to_dict

        schema = CubeSchema([Dimension("p", 4), Dimension("s", 3), Dimension("c", 2)])
        q = SliceQuery(groupby=["p"], selection=["s", "c"])
        document = {
            "groupby": ["p"],
            "selection": ["c", "s"],
            "values": {"s": 1, "c": 0},
        }
        entry = log_entry_from_dict(document, schema)
        assert entry.query is q
        again = log_entry_from_dict(log_entry_to_dict(entry), schema)
        assert again.query is q

    def test_parse_query_returns_the_interned_object(self):
        from repro.cube.schema import CubeSchema, Dimension
        from repro.sql import parse_query

        schema = CubeSchema([Dimension("p", 4), Dimension("s", 3)])
        parsed = parse_query(
            "SELECT p, SUM(sales) FROM cube WHERE s = 2 GROUP BY p", schema=schema
        )
        assert parsed.query is SliceQuery(groupby=["p"], selection=["s"])
        assert parse_query("SELECT SUM(sales) FROM cube", schema).query is SliceQuery()

    def test_navigation_returns_the_interned_objects(self):
        from repro.cube.generator import generate_fact_table
        from repro.cube.schema import CubeSchema, Dimension
        from repro.engine.catalog import Catalog
        from repro.engine.executor import Executor
        from repro.engine.navigate import dice, drill_down, roll_up, slice_

        schema = CubeSchema([Dimension("a", 4), Dimension("b", 3)])
        catalog = Catalog(generate_fact_table(schema, 40, rng=0))
        catalog.materialize(View.of("a", "b"))
        executor = Executor(catalog)
        start = SliceQuery(groupby=["a"])
        refined, __ = drill_down(executor, start, {}, "b")
        assert refined is SliceQuery(groupby=["a", "b"])
        coarser, __ = roll_up(executor, refined, {}, "a")
        assert coarser is SliceQuery(groupby=["b"])
        sliced, __ = slice_(executor, start, {}, "b", 1)
        assert sliced is SliceQuery(groupby=["a"], selection=["b"])
        diced, __ = dice(executor, sliced, {"b": 1}, "b", 2)
        assert diced is sliced

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_interned_object(self, protocol):
        for q in enumerate_slice_queries(self.DIMS):
            assert pickle.loads(pickle.dumps(q, protocol)) is q
        sub = SubQuery(groupby=["p"], selection=["s"])
        assert pickle.loads(pickle.dumps(sub, protocol)) is sub

    def test_copy_and_deepcopy_return_the_interned_object(self):
        q = SliceQuery(groupby=["c"], selection=["p"])
        assert copy.copy(q) is q
        assert copy.deepcopy(q) is q
        held = copy.deepcopy({q: [q]})
        assert next(iter(held)) is q and held[q][0] is q
        # a copy never rewrites the canonical object's fields
        assert q.groupby == {"c"} and q.selection == {"p"}

    def test_subclass_keeps_its_own_instances(self):
        base = SliceQuery(groupby=["p"], selection=["s"])
        sub = SubQuery(groupby=["p"], selection=["s"])
        assert type(sub) is SubQuery and type(base) is SliceQuery
        assert sub is not base
        assert SubQuery(groupby=["p"], selection=["s"]) is sub
        assert sub == base and hash(sub) == hash(base)
        assert copy.deepcopy(sub) is sub

    def test_threads_building_a_new_query_get_one_object(self):
        attrs = [f"thread_attr_{n}" for n in range(3)]
        barrier = threading.Barrier(8)
        built = [None] * 8

        def build(slot):
            barrier.wait()
            built[slot] = SliceQuery(groupby=attrs[:1], selection=attrs[1:])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert built[0] is not None
        assert all(q is built[0] for q in built)
        assert SliceQuery(groupby=attrs[:1], selection=attrs[1:]) is built[0]

    def test_hash_is_the_attribute_sets_hash(self):
        for q in enumerate_slice_queries(self.DIMS):
            assert hash(q) == hash((q.groupby, q.selection))

    def test_rebuilding_does_not_grow_the_table(self):
        dims = ("grow_a", "grow_b", "grow_c")
        SliceQuery()  # the one query these dimensions share with others
        before = len(query_module._INTERNED)
        first = list(enumerate_slice_queries(dims))
        grown = len(query_module._INTERNED)
        assert grown - before == count_slice_queries(len(dims)) - 1
        list(enumerate_slice_queries(dims))
        for q in first:
            SliceQuery(q.groupby, q.selection)
            pickle.loads(pickle.dumps(q))
        assert len(query_module._INTERNED) == grown

    def test_rejected_query_is_not_interned(self):
        before = len(query_module._INTERNED)
        with pytest.raises(ValueError, match="disjoint"):
            SliceQuery(groupby=["reject_a"], selection=["reject_a"])
        with pytest.raises(ValueError, match="non-empty strings"):
            SliceQuery(groupby=[""])
        assert len(query_module._INTERNED) == before

    @pytest.mark.parametrize(
        "dims", [("p", "s", "c"), ("part", "supplier", "customer")]
    )
    def test_str_and_repr_unchanged(self, dims):
        for q in enumerate_slice_queries(dims):
            assert str(q) == former_label(q)
            assert repr(q) == f"SliceQuery({former_label(q)})"
