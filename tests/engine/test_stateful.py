"""Stateful (model-based) hypothesis tests for the engine.

Two state machines:

* :class:`BPlusTreeMachine` — random interleavings of insert / delete /
  search / scans on the tests' reference B+tree against a plain-dict
  model, checking structural invariants after every step;
* :class:`CatalogMachine` — random interleavings of view
  materialization, index builds, delta batches, and query execution,
  checking that every materialized view always equals a from-scratch
  recomputation over the accumulated facts.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.materialize import materialize_view
from repro.engine.table import FactTable

from tests.engine.btree import BPlusTree

KEY = st.tuples(st.integers(0, 12), st.integers(0, 12))


class BPlusTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model = {}

    @rule(key=KEY, value=st.integers())
    def insert(self, key, value):
        if key in self.model:
            return
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(key=KEY)
    def delete(self, key):
        if key not in self.model:
            return
        self.tree.delete(key)
        del self.model[key]

    @rule(key=KEY)
    def search(self, key):
        assert self.tree.search(key) == self.model.get(key)

    @rule(prefix=st.integers(0, 12))
    def prefix_scan(self, prefix):
        got = list(self.tree.prefix_scan((prefix,)))
        expected = sorted(
            (k, v) for k, v in self.model.items() if k[0] == prefix
        )
        assert got == expected

    @rule(low=KEY, high=KEY)
    def range_scan(self, low, high):
        got = list(self.tree.range_scan(low, high))
        expected = sorted(
            (k, v) for k, v in self.model.items() if low <= k < high
        )
        assert got == expected

    @invariant()
    def size_matches(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def items_sorted_and_complete(self):
        assert list(self.tree.items()) == sorted(self.model.items())

    @invariant()
    def node_occupancy(self):
        self._check(self.tree._root)

    def _check(self, node):
        assert len(node.keys) <= self.tree.order
        if hasattr(node, "children"):
            assert len(node.children) == len(node.keys) + 1
            for child in node.children:
                self._check(child)


TestBPlusTreeStateful = BPlusTreeMachine.TestCase
TestBPlusTreeStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


SCHEMA = CubeSchema([Dimension("x", 6), Dimension("y", 4)])
ALL_VIEWS = [View(()), View.of("x"), View.of("y"), View.of("x", "y")]


class CatalogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)
        columns = {
            "x": np.array([0, 1, 2], dtype=np.int64),
            "y": np.array([0, 1, 0], dtype=np.int64),
        }
        self.catalog = Catalog(
            FactTable(SCHEMA, columns, np.array([1.0, 2.0, 3.0]))
        )

    @rule(view_i=st.integers(0, 3))
    def materialize(self, view_i):
        self.catalog.materialize(ALL_VIEWS[view_i])

    @rule(reverse=st.booleans())
    def build_index(self, reverse):
        view = View.of("x", "y")
        if not self.catalog.has_view(view):
            return
        key = ("y", "x") if reverse else ("x", "y")
        self.catalog.build_index(Index(view, key))

    @rule(n=st.integers(1, 12), seed=st.integers(0, 1000))
    def apply_delta_batch(self, n, seed):
        rng = np.random.default_rng(seed)
        apply_delta(
            self.catalog,
            {
                "x": rng.integers(0, 6, size=n),
                "y": rng.integers(0, 4, size=n),
            },
            rng.uniform(0, 10, size=n),
        )

    @rule(x=st.integers(0, 5))
    def execute_slice(self, x):
        view = View.of("x", "y")
        if not self.catalog.has_view(view):
            return
        executor = Executor(self.catalog)
        query = SliceQuery(groupby=("y",), selection=("x",))
        result = executor.execute(query, {"x": x})
        # brute force over the (current) fact table
        fact = self.catalog.fact
        mask = fact.column("x") == x
        expected = {}
        for row in np.flatnonzero(mask):
            key = (int(fact.column("y")[row]),)
            expected[key] = expected.get(key, 0.0) + float(fact.measures[row])
        assert result.groups.keys() == expected.keys()
        for key, value in expected.items():
            assert abs(result.groups[key] - value) < 1e-6

    @invariant()
    def views_equal_recompute(self):
        for view in self.catalog.views():
            expected = dict(
                materialize_view(self.catalog.fact, view).iter_rows()
            )
            got = dict(self.catalog.view_table(view).iter_rows())
            assert got.keys() == expected.keys()
            for key, value in expected.items():
                assert abs(got[key] - value) < 1e-6

    @invariant()
    def index_entries_match_views(self):
        for index in self.catalog.indexes():
            table = self.catalog.view_table(index.view)
            assert len(self.catalog.sorted_index(index)) == table.n_rows


TestCatalogStateful = CatalogMachine.TestCase
TestCatalogStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
