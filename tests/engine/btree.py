"""A B+tree with prefix range scans: the reference index of the tests.

The paper's indexes are "B-Tree indexes (or variants)" whose search key is
a concatenation of dimension attributes; a query with selection values for
a *prefix* of the key touches only the matching leaf entries.  This module
implements a textbook B+tree (internal nodes route; leaves hold entries
and are chained left-to-right).  The engine keeps an index as a sorted
row permutation instead (:class:`repro.engine.catalog.SortedIndex`); the
per-row reference executor in ``tests/engine/test_executor_reference.py``
reads this tree, so the engine's answers and rows processed are checked
against a structure that shares none of its code.

Keys are tuples of integers (attribute values in key order, optionally
suffixed with a row id to keep keys unique).  Entries are ``(key, value)``
pairs; values are opaque to the tree.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple


class _Node:
    __slots__ = ("keys",)


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        self.keys: List[tuple] = []
        self.values: List = []
        self.next: Optional["_Leaf"] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest
        self.keys: List[tuple] = []
        self.children: List[_Node] = []


class BPlusTree:
    """A B+tree over tuple keys.

    Parameters
    ----------
    order:
        Maximum number of keys per node (≥ 3).  Nodes split at
        ``order + 1`` keys.

    >>> tree = BPlusTree(order=4)
    >>> for i in range(10):
    ...     tree.insert((i,), i * i)
    >>> tree.search((3,))
    9
    >>> [v for __, v in tree.range_scan((2,), (5,))]
    [4, 9, 16]
    """

    def __init__(self, order: int = 32):
        if order < 3:
            raise ValueError(f"order must be >= 3, got {order}")
        self.order = order
        self._root: _Node = _Leaf()
        self._size = 0

    # -------------------------------------------------------------- basics

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf)."""
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
            height += 1
        return height

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes — the paper's index-size measure."""
        leaf = self._leftmost_leaf()
        count = 0
        while leaf is not None:
            count += 1
            leaf = leaf.next
        return count

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    # -------------------------------------------------------------- insert

    def insert(self, key: tuple, value) -> None:
        """Insert an entry.  Duplicate keys are rejected — suffix the key
        with a row id if duplicates are expected."""
        if not isinstance(key, tuple):
            raise TypeError(f"keys must be tuples, got {type(key).__name__}")
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert(self, node: _Node, key: tuple, value):
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                raise KeyError(f"duplicate key {key}")
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        pos = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[pos], key, value)
        if split is not None:
            sep, right = split
            node.keys.insert(pos, sep)
            node.children.insert(pos + 1, right)
            if len(node.keys) > self.order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # ---------------------------------------------------------- bulk load

    @classmethod
    def bulk_load(
        cls, entries: Iterable[Tuple[tuple, object]], order: int = 32
    ) -> "BPlusTree":
        """Build a tree bottom-up from key-sorted unique entries.

        Much faster than repeated :meth:`insert` for large indexes.
        Raises ``ValueError`` if the entries are not strictly increasing.
        """
        tree = cls(order=order)
        entries = list(entries)
        if not entries:
            return tree
        for (a, __), (b, __2) in zip(entries, entries[1:]):
            if a >= b:
                raise ValueError("bulk_load requires strictly increasing keys")

        fill = max(2, (order + 1) // 2 + 1)
        leaves: List[_Leaf] = []
        for start in range(0, len(entries), fill):
            leaf = _Leaf()
            chunk = entries[start : start + fill]
            leaf.keys = [k for k, __ in chunk]
            leaf.values = [v for __, v in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        # avoid an underfull final leaf by rebalancing with its neighbour
        if len(leaves) >= 2 and len(leaves[-1].keys) < 2:
            prev, last = leaves[-2], leaves[-1]
            merged_keys = prev.keys + last.keys
            merged_values = prev.values + last.values
            half = len(merged_keys) // 2
            prev.keys, last.keys = merged_keys[:half], merged_keys[half:]
            prev.values, last.values = merged_values[:half], merged_values[half:]

        level: List[_Node] = list(leaves)
        while len(level) > 1:
            # group children under parents; a trailing singleton group
            # would create a mixed-depth level (fatal for rebalancing on
            # delete), so borrow one child from the previous group.
            groups = [level[start : start + fill] for start in range(0, len(level), fill)]
            if len(groups) >= 2 and len(groups[-1]) == 1:
                groups[-1].insert(0, groups[-2].pop())
            parents: List[_Node] = []
            for group in groups:
                parent = _Internal()
                parent.children = group
                parent.keys = [tree._smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        tree._root = level[0]
        tree._size = len(entries)
        return tree

    def _smallest_key(self, node: _Node) -> tuple:
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0]

    # -------------------------------------------------------------- delete

    def delete(self, key: tuple) -> None:
        """Remove an entry; raises ``KeyError`` if the key is absent.

        Underfull nodes (< ``order // 2`` keys) borrow from or merge with
        a sibling, keeping the tree balanced; the root collapses when it
        has a single child.
        """
        if not isinstance(key, tuple):
            raise TypeError(f"keys must be tuples, got {type(key).__name__}")
        found = self._delete(self._root, key)
        if not found:
            raise KeyError(f"key {key} not found")
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
        self._size -= 1

    @property
    def _min_keys(self) -> int:
        return self.order // 2

    def _delete(self, node: _Node, key: tuple) -> bool:
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.keys, key)
            if pos >= len(node.keys) or node.keys[pos] != key:
                return False
            node.keys.pop(pos)
            node.values.pop(pos)
            return True
        pos = bisect.bisect_right(node.keys, key)
        child = node.children[pos]
        found = self._delete(child, key)
        if found and len(child.keys) < self._min_keys:
            self._rebalance(node, pos)
        return found

    def _rebalance(self, parent: _Internal, pos: int) -> None:
        """Fix an underfull child at ``parent.children[pos]``."""
        child = parent.children[pos]
        left = parent.children[pos - 1] if pos > 0 else None
        right = parent.children[pos + 1] if pos + 1 < len(parent.children) else None

        if left is not None and len(left.keys) > self._min_keys:
            self._borrow_from_left(parent, pos, left, child)
            return
        if right is not None and len(right.keys) > self._min_keys:
            self._borrow_from_right(parent, pos, child, right)
            return
        if left is not None:
            self._merge(parent, pos - 1, left, child)
        elif right is not None:
            self._merge(parent, pos, child, right)

    def _borrow_from_left(self, parent, pos, left, child) -> None:
        if isinstance(child, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[pos - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[pos - 1])
            parent.keys[pos - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent, pos, child, right) -> None:
        if isinstance(child, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[pos] = right.keys[0]
        else:
            child.keys.append(parent.keys[pos])
            parent.keys[pos] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Internal, left_pos: int, left, right) -> None:
        """Fold ``right`` (children[left_pos+1]) into ``left``."""
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            left.keys.append(parent.keys[left_pos])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_pos)
        parent.children.pop(left_pos + 1)

    # -------------------------------------------------------------- search

    def search(self, key: tuple):
        """Return the value for ``key``, or ``None`` if absent."""
        node = self._root
        while isinstance(node, _Internal):
            pos = bisect.bisect_right(node.keys, key)
            node = node.children[pos]
        pos = bisect.bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            return node.values[pos]
        return None

    def _find_leaf(self, key: tuple) -> Tuple[_Leaf, int]:
        """Leaf and in-leaf position of the first entry with key >= key."""
        node = self._root
        while isinstance(node, _Internal):
            pos = bisect.bisect_right(node.keys, key)
            node = node.children[pos]
        return node, bisect.bisect_left(node.keys, key)

    # ---------------------------------------------------------------- scan

    def items(self) -> Iterator[Tuple[tuple, object]]:
        """All entries in key order."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def range_scan(
        self, low: tuple, high: tuple, inclusive_high: bool = False
    ) -> Iterator[Tuple[tuple, object]]:
        """Entries with ``low <= key < high`` (or ``<= high`` if asked)."""
        leaf, pos = self._find_leaf(low)
        while leaf is not None:
            for i in range(pos, len(leaf.keys)):
                key = leaf.keys[i]
                if key > high or (key == high and not inclusive_high):
                    return
                yield key, leaf.values[i]
            leaf = leaf.next
            pos = 0

    def prefix_scan(self, prefix: tuple) -> Iterator[Tuple[tuple, object]]:
        """Entries whose key starts with ``prefix`` — the B-tree access the
        paper's cost formula charges for: only matching rows are touched.

        >>> tree = BPlusTree.bulk_load([((i, j), 0) for i in range(3)
        ...                             for j in range(3)])
        >>> sum(1 for __ in tree.prefix_scan((1,)))
        3
        """
        if not isinstance(prefix, tuple):
            raise TypeError("prefix must be a tuple")
        if not prefix:
            yield from self.items()
            return
        leaf, pos = self._find_leaf(prefix)
        k = len(prefix)
        while leaf is not None:
            for i in range(pos, len(leaf.keys)):
                key = leaf.keys[i]
                head = key[:k]
                if head != prefix:
                    if head > prefix:
                        return
                    continue
                yield key, leaf.values[i]
            leaf = leaf.next
            pos = 0
