"""``from_mined`` and ``compute_benefit_bound`` against their per-edge
reference loops.

Both now run on :class:`repro.core.qvgraph.EdgeKernel`, the bitmask
kernel ``from_cube`` uses.  The loops they replaced are kept below
verbatim (one ``LinearCostModel`` call per edge or per query) and must
agree exactly over a seeded sweep of mined sets: graphs node for node
and edge for edge with exact floats and equal engine fingerprints, and
every bound field down to the last bit.
"""

import itertools

import pytest

from repro.core.benefit import BenefitEngine
from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.query_log import generate_query_log, pattern_counts
from repro.cube.schema import CubeSchema, Dimension
from repro.estimation.sizes import analytical_lattice
from repro.mining import MinedCandidates, compute_benefit_bound, mine_candidates
from repro.mining.cluster import query_sort_key


def cube(n_dims):
    cards = [4 + 2 * i for i in range(n_dims)]
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
    )
    return analytical_lattice(schema, 0.1 * schema.dense_cells)


# ---------------------------------------------------------------- references


def reference_from_mined(lattice, mined):
    """The per-edge loop ``QueryViewGraph.from_mined`` used to run (index
    edges that do not beat the view scan left out)."""
    cost_model = LinearCostModel(lattice)
    graph = QueryViewGraph()

    def query_key(query):
        return (
            len(query.attrs),
            tuple(sorted(query.attrs)),
            len(query.selection),
            tuple(sorted(query.selection)),
        )

    queries = sorted(mined.queries, key=query_key)
    by_attrs = {}
    for query in queries:
        graph.add_query(
            str(query),
            default_cost=cost_model.default_cost(query),
            frequency=float(mined.queries[query]),
            payload=query,
        )
        by_attrs.setdefault(query.attrs, []).append(query)

    for attrs in mined.view_attrs:
        view = View(attrs)
        if view not in lattice:
            raise ValueError(f"mined view {view} is not a view of this lattice")
        view_name = lattice.label(view)
        view_rows = lattice.size(view)
        graph.add_view(view_name, space=view_rows, payload=view)
        answerable = []
        for q_attrs, members in by_attrs.items():
            if q_attrs <= attrs:
                answerable.extend(members)
        answerable.sort(key=query_key)
        for query in answerable:
            graph.add_edge(str(query), view_name, cost_model.cost(query, view))
        for key in mined.index_keys.get(attrs, ()):
            index = Index(view, key)
            index_name = lattice.index_label(index)
            graph.add_index(view_name, index_name, payload=index)
            for query in answerable:
                cost = cost_model.cost(query, view, index)
                if cost < view_rows:
                    graph.add_edge(str(query), index_name, cost)
    return graph


def _reference_ideal_cost(query, model):
    view = View(query.attrs)
    if not query.selection or not query.attrs:
        return min(model.cost(query, view), model.default_cost(query))
    key = tuple(sorted(query.selection)) + tuple(sorted(query.attrs - query.selection))
    best = model.cost(query, view, Index(view, key))
    return min(best, model.cost(query, view), model.default_cost(query))


def _reference_kept_cost(query, mined, model):
    best = model.default_cost(query)
    for attrs in mined.view_attrs:
        if not attrs >= query.attrs:
            continue
        view = View(attrs)
        best = min(best, model.cost(query, view))
        for key in mined.index_keys.get(attrs, ()):
            best = min(best, model.cost(query, view, Index(view, key)))
    return best


def reference_bound(mined, lattice):
    """The per-query loop ``compute_benefit_bound`` used to run, as
    ``(ideal_tau, kept_tau, default_tau, total_weight)``."""
    model = LinearCostModel(lattice)
    ideal = kept = default = 0.0
    for query, weight in mined.queries.items():
        ideal += weight * _reference_ideal_cost(query, model)
        kept += weight * _reference_kept_cost(query, mined, model)
        default += weight * model.default_cost(query)
    return ideal, kept, default, mined.total_weight


def reference_closure(mined):
    """The per-pattern upward closure ``mine_candidates`` used to run."""
    top = frozenset(mined.schema_names)
    views = {c.attrs for c in mined.clusters if c.support >= mined.support}
    views.add(top)
    for query in sorted(mined.queries, key=query_sort_key):
        if query.attrs == top:
            continue
        covering = [v for v in views if v >= query.attrs and v != top]
        if not covering:
            views.add(query.attrs)
    return views


# ---------------------------------------------------------------- comparison


def assert_graphs_identical(new, ref):
    assert [
        (q.name, q.default_cost, q.frequency, q.payload) for q in new.queries
    ] == [(q.name, q.default_cost, q.frequency, q.payload) for q in ref.queries]
    assert [
        (s.name, s.kind, s.space, s.view_name, s.payload) for s in new.structures
    ] == [(s.name, s.kind, s.space, s.view_name, s.payload) for s in ref.structures]
    for view in ref.views:
        assert new.indexes_of(view.name) == ref.indexes_of(view.name)
    assert new.n_edges == ref.n_edges
    assert [(q, s, float(c).hex()) for q, s, c in new.edges()] == [
        (q, s, float(c).hex()) for q, s, c in ref.edges()
    ]
    assert BenefitEngine(new).fingerprint() == BenefitEngine(ref).fingerprint()


def assert_bounds_identical(mined, lattice):
    bound = compute_benefit_bound(mined, lattice)
    got = (bound.ideal_tau, bound.kept_tau, bound.default_tau, bound.total_weight)
    assert [float(x).hex() for x in got] == [
        float(x).hex() for x in reference_bound(mined, lattice)
    ]


def assert_identical(lattice, mined):
    assert_graphs_identical(
        QueryViewGraph.from_mined(lattice, mined),
        reference_from_mined(lattice, mined),
    )
    assert_bounds_identical(mined, lattice)


# --------------------------------------------------------------------- sweep


SWEEP = list(
    itertools.product([2, 3, 4, 5, 6], [0.0, 0.01, 0.05], [0, 2, 8, 100])
)


@pytest.fixture(scope="module")
def logs():
    out = {}
    for n_dims in (2, 3, 4, 5, 6):
        lattice = cube(n_dims)
        counts = pattern_counts(
            generate_query_log(lattice.schema, 60 * n_dims, rng=100 + n_dims)
        )
        out[n_dims] = (lattice, counts)
    return out


@pytest.mark.parametrize(
    "n_dims,support,max_indexes", SWEEP,
    ids=[f"d{d}-s{s}-k{k}" for d, s, k in SWEEP],
)
def test_sweep_matches_reference(logs, n_dims, support, max_indexes):
    lattice, counts = logs[n_dims]
    mined = mine_candidates(
        counts, lattice.schema.names,
        support=support, max_indexes_per_view=max_indexes,
    )
    assert set(mined.view_attrs) == reference_closure(mined)
    assert_identical(lattice, mined)


def test_non_fat_key(logs):
    lattice, counts = logs[4]
    mined = mine_candidates(counts, lattice.schema.names, support=0.05)
    mined.ensure_index("abc", ("b",))  # a one-attribute key on a 3-d view
    mined.ensure_index("abcd", ("d", "a"))
    assert ("b",) in mined.index_keys[frozenset("abc")]
    assert_identical(lattice, mined)


def test_empty_workload():
    lattice = cube(3)
    mined = mine_candidates({}, lattice.schema.names)
    assert_identical(lattice, mined)
    assert QueryViewGraph.from_mined(lattice, mined).n_edges == 0


def test_top_view_only_set(logs):
    # the candidate set serve.adaptive.observed_cost prices a selection on
    lattice, counts = logs[4]
    mined = MinedCandidates(
        schema_names=tuple(lattice.schema.names),
        queries={q: float(w) for q, w in counts.items()},
        view_attrs=[],
        index_keys={},
        total_weight=float(sum(counts.values())),
    )
    mined.ensure_view(frozenset(lattice.schema.names))
    assert_identical(lattice, mined)
    mined.ensure_structures(["ab", "I_ba(ab)", "bcd", "I_dcb(bcd)"])
    assert_identical(lattice, mined)


@pytest.mark.parametrize("none_rows", [1, 2])
def test_int_sizes_and_weights(none_rows):
    # a hand-sized lattice (int row counts) with int pattern weights; an
    # empty view of two rows must still price an empty prefix at |V|
    schema = CubeSchema([Dimension("p", 4), Dimension("s", 6), Dimension("c", 9)])
    sizes = {
        View(attrs): rows
        for attrs, rows in [
            ("psc", 150), ("ps", 24), ("pc", 30), ("sc", 40),
            ("p", 4), ("s", 6), ("c", 9), ("", none_rows),
        ]
    }
    lattice = CubeLattice(schema, sizes)
    counts = {
        SliceQuery(groupby=["p"], selection=["s"]): 5,
        SliceQuery(groupby=[], selection=["c", "s"]): 3,
        SliceQuery(groupby=["p", "s", "c"]): 1,
        SliceQuery(): 2,
    }
    mined = mine_candidates(counts, schema.names, support=0.0)
    mined.queries = dict(counts)
    assert_identical(lattice, mined)


class TestValidation:
    def test_view_outside_lattice(self, logs):
        lattice, counts = logs[3]
        mined = mine_candidates(counts, ("a", "b", "c", "z"))
        with pytest.raises(ValueError):
            reference_from_mined(lattice, mined)
        with pytest.raises(ValueError):
            QueryViewGraph.from_mined(lattice, mined)
        with pytest.raises(ValueError):
            compute_benefit_bound(mined, lattice)

    def test_query_outside_schema(self, logs):
        lattice, counts = logs[3]
        mined = mine_candidates(counts, lattice.schema.names)
        mined.queries[SliceQuery(groupby=["a", "z"])] = 1.0
        with pytest.raises(ValueError):
            reference_from_mined(lattice, mined)
        with pytest.raises(ValueError, match="not answerable"):
            QueryViewGraph.from_mined(lattice, mined)
        # (reference_bound raises the lattice's KeyError instead)
        with pytest.raises(ValueError, match="not answerable"):
            compute_benefit_bound(mined, lattice)
