"""Tests for the reference B+tree of the executor tests, including
property-based checks against a sorted-list reference implementation."""

import bisect
import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.engine import btree
from tests.engine.btree import BPlusTree

KEYS = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), unique=True, max_size=200
)


def reference_pairs(keys):
    return sorted((k, i) for i, k in enumerate(keys))


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search((1,)) is None
        assert list(tree.items()) == []

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert((i,), i * 2)
        assert len(tree) == 100
        for i in range(100):
            assert tree.search((i,)) == i * 2
        assert tree.search((200,)) is None

    def test_duplicate_key_rejected(self):
        tree = BPlusTree()
        tree.insert((1,), "a")
        with pytest.raises(KeyError):
            tree.insert((1,), "b")

    def test_non_tuple_key_rejected(self):
        tree = BPlusTree()
        with pytest.raises(TypeError):
            tree.insert(1, "a")

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for i in [5, 2, 8, 1, 9, 3]:
            tree.insert((i,), i)
        assert [k for k, __ in tree.items()] == [(i,) for i in [1, 2, 3, 5, 8, 9]]

    def test_height_grows_logarithmically(self):
        tree = BPlusTree(order=4)
        for i in range(1000):
            tree.insert((i,), i)
        assert 3 <= tree.height <= 8

    def test_n_leaves_counts_chain(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert((i,), i)
        assert tree.n_leaves >= 100 // 5


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        t = BPlusTree(order=4)
        for i in range(0, 100, 2):  # even numbers
            t.insert((i,), i)
        return t

    def test_half_open(self, tree):
        got = [k[0] for k, __ in tree.range_scan((10,), (20,))]
        assert got == [10, 12, 14, 16, 18]

    def test_inclusive_high(self, tree):
        got = [k[0] for k, __ in tree.range_scan((10,), (20,), inclusive_high=True)]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_empty_range(self, tree):
        assert list(tree.range_scan((11,), (12,))) == []

    def test_range_past_end(self, tree):
        got = [k[0] for k, __ in tree.range_scan((96,), (1000,))]
        assert got == [96, 98]


class TestPrefixScan:
    @pytest.fixture
    def tree(self):
        t = BPlusTree(order=4)
        for a in range(5):
            for b in range(4):
                t.insert((a, b), a * 10 + b)
        return t

    def test_prefix_matches_exactly(self, tree):
        got = [k for k, __ in tree.prefix_scan((2,))]
        assert got == [(2, 0), (2, 1), (2, 2), (2, 3)]

    def test_full_key_prefix(self, tree):
        got = list(tree.prefix_scan((3, 1)))
        assert got == [((3, 1), 31)]

    def test_empty_prefix_scans_everything(self, tree):
        assert len(list(tree.prefix_scan(()))) == 20

    def test_missing_prefix(self, tree):
        assert list(tree.prefix_scan((9,))) == []

    def test_non_tuple_prefix_rejected(self, tree):
        with pytest.raises(TypeError):
            list(tree.prefix_scan(2))


class TestBulkLoad:
    def test_roundtrip(self):
        entries = [((i,), i * i) for i in range(500)]
        tree = BPlusTree.bulk_load(entries, order=8)
        assert len(tree) == 500
        assert list(tree.items()) == entries

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([((1,), 0), ((1,), 1)])
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([((2,), 0), ((1,), 1)])

    def test_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0

    def test_single_entry(self):
        tree = BPlusTree.bulk_load([((1,), "x")])
        assert tree.search((1,)) == "x"

    def test_search_after_bulk_load(self):
        entries = [((i, i % 3), i) for i in range(200)]
        entries.sort()
        tree = BPlusTree.bulk_load(entries, order=6)
        for key, value in entries:
            assert tree.search(key) == value

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 100])
    @pytest.mark.parametrize("order", [3, 4, 32])
    def test_various_sizes_and_orders(self, n, order):
        entries = [((i,), i) for i in range(n)]
        tree = BPlusTree.bulk_load(entries, order=order)
        assert list(tree.items()) == entries


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(KEYS)
    def test_insert_matches_reference(self, keys):
        tree = BPlusTree(order=4)
        for i, k in enumerate(keys):
            tree.insert(k, i)
        assert list(tree.items()) == reference_pairs(keys)

    @settings(max_examples=80, deadline=None)
    @given(KEYS, st.tuples(st.integers(0, 50), st.integers(0, 50)),
           st.tuples(st.integers(0, 50), st.integers(0, 50)))
    def test_range_scan_matches_reference(self, keys, low, high):
        tree = BPlusTree(order=4)
        pairs = reference_pairs(keys)
        for k, v in pairs:
            tree.insert(k, v)
        expected = [(k, v) for k, v in pairs if low <= k < high]
        assert list(tree.range_scan(low, high)) == expected

    @settings(max_examples=80, deadline=None)
    @given(KEYS, st.integers(0, 50))
    def test_prefix_scan_matches_reference(self, keys, prefix_val):
        tree = BPlusTree(order=4)
        pairs = reference_pairs(keys)
        for k, v in pairs:
            tree.insert(k, v)
        expected = [(k, v) for k, v in pairs if k[0] == prefix_val]
        assert list(tree.prefix_scan((prefix_val,))) == expected

    @settings(max_examples=50, deadline=None)
    @given(KEYS)
    def test_bulk_load_equals_insertion(self, keys):
        pairs = reference_pairs(keys)
        inserted = BPlusTree(order=4)
        for k, v in pairs:
            inserted.insert(k, v)
        bulk = BPlusTree.bulk_load(pairs, order=4)
        assert list(inserted.items()) == list(bulk.items())

    @settings(max_examples=50, deadline=None)
    @given(KEYS, st.tuples(st.integers(0, 50), st.integers(0, 50)))
    def test_search_matches_reference(self, keys, probe):
        tree = BPlusTree(order=3)
        pairs = reference_pairs(keys)
        for k, v in pairs:
            tree.insert(k, v)
        expected = dict(pairs).get(probe)
        assert tree.search(probe) == expected


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(KEYS)
    def test_node_occupancy_bound(self, keys):
        """No node ever exceeds the order."""
        tree = BPlusTree(order=4)
        for i, k in enumerate(keys):
            tree.insert(k, i)
        self._check_node(tree._root, tree.order)

    def _check_node(self, node, order):
        assert len(node.keys) <= order
        if hasattr(node, "children"):
            assert len(node.children) == len(node.keys) + 1
            for child in node.children:
                self._check_node(child, order)

    @settings(max_examples=40, deadline=None)
    @given(KEYS)
    def test_leaf_chain_covers_all_entries(self, keys):
        tree = BPlusTree(order=4)
        for i, k in enumerate(keys):
            tree.insert(k, i)
        assert sum(1 for __ in tree.items()) == len(keys)


class TestDelete:
    def test_delete_and_search(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert((i,), i)
        for i in range(0, 50, 2):
            tree.delete((i,))
        assert len(tree) == 25
        for i in range(50):
            expected = None if i % 2 == 0 else i
            assert tree.search((i,)) == expected

    def test_delete_missing_key_raises(self):
        tree = BPlusTree()
        tree.insert((1,), "a")
        with pytest.raises(KeyError):
            tree.delete((2,))

    def test_delete_non_tuple_rejected(self):
        tree = BPlusTree()
        with pytest.raises(TypeError):
            tree.delete(1)

    def test_delete_everything(self):
        tree = BPlusTree(order=3)
        for i in range(40):
            tree.insert((i,), i)
        for i in range(40):
            tree.delete((i,))
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_root_collapses(self):
        tree = BPlusTree(order=3)
        for i in range(30):
            tree.insert((i,), i)
        height_before = tree.height
        for i in range(28):
            tree.delete((i,))
        assert tree.height < height_before

    def test_delete_from_bulk_loaded_tree(self):
        entries = [((i,), i) for i in range(100)]
        tree = BPlusTree.bulk_load(entries, order=6)
        for i in range(0, 100, 3):
            tree.delete((i,))
        remaining = [k[0] for k, __ in tree.items()]
        assert remaining == [i for i in range(100) if i % 3 != 0]

    def test_prefix_scan_after_deletes(self):
        tree = BPlusTree(order=4)
        for a in range(6):
            for b in range(5):
                tree.insert((a, b), a * 10 + b)
        for b in range(5):
            tree.delete((3, b))
        assert list(tree.prefix_scan((3,))) == []
        assert len(list(tree.prefix_scan((2,)))) == 5

    @settings(max_examples=60, deadline=None)
    @given(KEYS, st.data())
    def test_random_deletes_match_reference(self, keys, data):
        tree = BPlusTree(order=4)
        pairs = reference_pairs(keys)
        for k, v in pairs:
            tree.insert(k, v)
        to_delete = data.draw(
            st.lists(st.sampled_from(sorted(keys)), unique=True)
        ) if keys else []
        surviving = dict(pairs)
        for k in to_delete:
            tree.delete(k)
            surviving.pop(k)
        assert list(tree.items()) == sorted(surviving.items())

    @settings(max_examples=40, deadline=None)
    @given(KEYS, st.data())
    def test_occupancy_invariant_after_deletes(self, keys, data):
        tree = BPlusTree(order=4)
        for i, k in enumerate(keys):
            tree.insert(k, i)
        to_delete = data.draw(
            st.lists(st.sampled_from(sorted(keys)), unique=True)
        ) if keys else []
        for k in to_delete:
            tree.delete(k)
        TestInvariants()._check_node(tree._root, tree.order)

    @settings(max_examples=40, deadline=None)
    @given(KEYS, st.data())
    def test_interleaved_insert_delete(self, keys, data):
        tree = BPlusTree(order=3)
        reference = {}
        ops = data.draw(
            st.lists(
                st.tuples(st.booleans(),
                          st.tuples(st.integers(0, 20), st.integers(0, 20))),
                max_size=120,
            )
        )
        for is_insert, key in ops:
            if is_insert and key not in reference:
                tree.insert(key, key[0])
                reference[key] = key[0]
            elif not is_insert and key in reference:
                tree.delete(key)
                del reference[key]
        assert list(tree.items()) == sorted(reference.items())
        assert len(tree) == len(reference)


def test_docstring_examples():
    results = doctest.testmod(btree, verbose=False)
    assert results.attempted and not results.failed
