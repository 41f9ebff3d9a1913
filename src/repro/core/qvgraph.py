"""The query-view bipartite multigraph of Section 5.1.

This is the abstraction the selection algorithms actually run on.  It is
deliberately independent of data cubes: nodes are *queries* (with a default
cost ``T_i`` and an optional frequency) and *views* (with a space cost and a
set of *indexes*, each with its own space cost).  An edge ``(q, v)`` labeled
``(k, t)`` says query ``q`` can be answered using view ``v`` with its
``k``-th index at cost ``t``; ``k = 0`` (here: ``index=None``) means using
the plain view.

Graphs come from three places:

* hand construction (e.g. the paper's Figure 2 instance, arbitrary unit
  tests) via :meth:`QueryViewGraph.add_query` / ``add_view`` / ``add_index``
  / ``add_edge``;
* a data cube, via :meth:`QueryViewGraph.from_cube`, which enumerates slice
  queries, fat indexes, and linear-cost-model edges; or
* a mined candidate space (:mod:`repro.mining`), via
  :meth:`QueryViewGraph.from_mined`, which takes its queries, views and
  index keys from a query log instead.

Edges are stored two ways: a ``(query, structure) -> cost`` dict fed by
:meth:`add_edge`, and *bulk blocks* of position-indexed numpy arrays fed by
:meth:`add_edges_bulk`.  The block path exists for scale — ``from_cube`` on
a d=7 fat-index cube emits ~5 million edges, and one dict insert per edge
dominates the build.  :class:`EdgeKernel` computes answerability and
index costs with subset bitmasks over the lattice, one view at a time;
the vectorized ``from_cube`` and :meth:`QueryViewGraph.from_mined` both
append its whole edge arrays, and :meth:`edge_arrays` hands the combined
edge set to the benefit engine without ever materializing per-edge
Python objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_all_indexes, enumerate_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View, join_attrs

VIEW_KIND = "view"
INDEX_KIND = "index"

#: Pair-cell budget per chunk of the vectorized index-edge computation —
#: bounds temporaries to a few tens of MB regardless of cube size.
_VEC_CHUNK_CELLS = 2_000_000


def _index_enumerator(index_universe: str):
    """The per-view index enumerator :meth:`QueryViewGraph.from_cube`
    uses for ``index_universe`` (``"fat"``, ``"all"`` or ``"none"``)."""
    if index_universe == "fat":
        return enumerate_fat_indexes
    if index_universe == "all":
        return enumerate_all_indexes
    if index_universe == "none":
        return lambda view: iter(())
    raise ValueError(
        f"index_universe must be 'fat', 'all' or 'none', got {index_universe!r}"
    )


@dataclass(frozen=True)
class QuerySpec:
    """A query node: name, default (raw-data) cost, and frequency weight."""

    name: str
    default_cost: float
    frequency: float = 1.0
    payload: Any = None

    def __post_init__(self) -> None:
        # written as `not x >= 0` so that NaN fails the check too; an
        # infinite cost or weight would turn a zero gain into NaN
        if not self.default_cost >= 0:
            raise ValueError(f"query {self.name!r}: default cost must be >= 0")
        if not math.isfinite(self.default_cost):
            raise ValueError(f"query {self.name!r}: default cost must be finite")
        if not self.frequency >= 0:
            raise ValueError(f"query {self.name!r}: frequency must be >= 0")
        if not math.isfinite(self.frequency):
            raise ValueError(f"query {self.name!r}: frequency must be finite")


@dataclass(frozen=True)
class Structure:
    """A view or an index — the unit of materialization ("structure").

    For an index, ``view_name`` is the owning view's structure name; for a
    view it is its own name.
    """

    name: str
    kind: str
    space: float
    view_name: str
    payload: Any = None

    def __post_init__(self) -> None:
        if self.kind not in (VIEW_KIND, INDEX_KIND):
            raise ValueError(f"bad structure kind {self.kind!r}")
        if not self.space > 0:
            raise ValueError(f"structure {self.name!r}: space must be > 0")
        if not math.isfinite(self.space):
            raise ValueError(f"structure {self.name!r}: space must be finite")

    @property
    def is_view(self) -> bool:
        return self.kind == VIEW_KIND

    @property
    def is_index(self) -> bool:
        return self.kind == INDEX_KIND


class QueryViewGraph:
    """A mutable query-view graph; compile with
    :class:`repro.core.benefit.BenefitEngine` to run algorithms on it."""

    def __init__(self) -> None:
        self._queries: Dict[str, QuerySpec] = {}
        self._structures: Dict[str, Structure] = {}
        self._view_indexes: Dict[str, list] = {}
        # (query_name, structure_name) -> min cost over parallel edges
        self._edges: Dict[Tuple[str, str], float] = {}
        # bulk edges: (query_positions, structure_positions, costs) arrays,
        # positions being insertion order of the node dicts
        self._edge_blocks: list = []
        self._n_block_edges = 0
        self._block_lookup: Optional[Dict[Tuple[int, int], float]] = None

    # ------------------------------------------------------------ building

    def add_query(
        self,
        name: str,
        default_cost: float,
        frequency: float = 1.0,
        payload: Any = None,
    ) -> QuerySpec:
        """Add a query node.  Names must be unique among queries."""
        if name in self._queries:
            raise ValueError(f"duplicate query name {name!r}")
        spec = QuerySpec(name, default_cost, frequency, payload)
        self._queries[name] = spec
        return spec

    def add_view(self, name: str, space: float, payload: Any = None) -> Structure:
        """Add a view structure.  Names must be unique among structures."""
        if name in self._structures:
            raise ValueError(f"duplicate structure name {name!r}")
        spec = Structure(name, VIEW_KIND, space, name, payload)
        self._structures[name] = spec
        self._view_indexes[name] = []
        return spec

    def add_index(
        self,
        view_name: str,
        name: str,
        space: Optional[float] = None,
        payload: Any = None,
    ) -> Structure:
        """Add an index on an existing view.

        ``space`` defaults to the owning view's space, per the paper's
        index-size model (Section 4.2.2).
        """
        if name in self._structures:
            raise ValueError(f"duplicate structure name {name!r}")
        view = self._structures.get(view_name)
        if view is None or not view.is_view:
            raise ValueError(f"unknown view {view_name!r} for index {name!r}")
        spec = Structure(
            name, INDEX_KIND, view.space if space is None else space, view_name, payload
        )
        self._structures[name] = spec
        self._view_indexes[view_name].append(name)
        return spec

    def add_edge(
        self,
        query_name: str,
        structure_name: str,
        cost: float,
    ) -> None:
        """Record that the query can be answered via the structure at
        ``cost`` rows.  For an index structure, the edge implicitly
        requires the owning view to be materialized too.

        Parallel edges keep only the minimum cost.
        """
        if query_name not in self._queries:
            raise ValueError(f"unknown query {query_name!r}")
        if structure_name not in self._structures:
            raise ValueError(f"unknown structure {structure_name!r}")
        if not cost >= 0:
            raise ValueError("edge cost must be >= 0")
        if not math.isfinite(cost):
            raise ValueError("edge cost must be finite")
        key = (query_name, structure_name)
        prev = self._edges.get(key)
        if prev is None or cost < prev:
            self._edges[key] = cost

    def add_edges_bulk(
        self,
        query_positions: np.ndarray,
        structure_positions: np.ndarray,
        costs: np.ndarray,
    ) -> None:
        """Append a block of edges given by *node positions* (insertion
        order of queries / structures) instead of names.

        This is the scale path: a block is stored as three aligned numpy
        arrays, so millions of edges cost three array appends.  Parallel
        edges across blocks (or against :meth:`add_edge`) are resolved to
        the minimum cost at read time (``edge_cost``) and at engine
        compile time.
        """
        q = np.ascontiguousarray(query_positions, dtype=np.int64)
        s = np.ascontiguousarray(structure_positions, dtype=np.int64)
        c = np.ascontiguousarray(costs, dtype=np.float64)
        if not (q.ndim == s.ndim == c.ndim == 1 and q.size == s.size == c.size):
            raise ValueError("bulk edge arrays must be 1-D and aligned")
        if q.size == 0:
            return
        if int(q.min()) < 0 or int(q.max()) >= len(self._queries):
            raise ValueError("bulk edge query position out of range")
        if int(s.min()) < 0 or int(s.max()) >= len(self._structures):
            raise ValueError("bulk edge structure position out of range")
        if not np.all(c >= 0):
            raise ValueError("edge cost must be >= 0")
        if not np.all(np.isfinite(c)):
            raise ValueError("edge cost must be finite")
        self._edge_blocks.append((q, s, c))
        self._n_block_edges += int(q.size)
        self._block_lookup = None

    # ------------------------------------------------------------ reading

    @property
    def queries(self) -> list:
        return list(self._queries.values())

    @property
    def structures(self) -> list:
        return list(self._structures.values())

    @property
    def views(self) -> list:
        return [s for s in self._structures.values() if s.is_view]

    @property
    def indexes(self) -> list:
        return [s for s in self._structures.values() if s.is_index]

    def query(self, name: str) -> QuerySpec:
        return self._queries[name]

    def structure(self, name: str) -> Structure:
        return self._structures[name]

    def indexes_of(self, view_name: str) -> list:
        """Names of the indexes registered on a view."""
        return list(self._view_indexes[view_name])

    def edges(self) -> Iterable:
        """Yield ``(query_name, structure_name, cost)`` triples."""
        for (q, s), cost in self._edges.items():
            yield q, s, cost
        if self._edge_blocks:
            query_names = list(self._queries)
            structure_names = list(self._structures)
            for q, s, c in self._edge_blocks:
                for qi, si, ci in zip(q.tolist(), s.tolist(), c.tolist()):
                    yield query_names[qi], structure_names[si], ci

    def _block_lookup_map(self) -> Dict[Tuple[int, int], float]:
        """Lazy ``(query_pos, structure_pos) -> min cost`` map over the
        bulk blocks — only for name-based point lookups; the engine reads
        blocks via :meth:`edge_arrays` and never builds this."""
        if self._block_lookup is None:
            lookup: Dict[Tuple[int, int], float] = {}
            for q, s, c in self._edge_blocks:
                for qi, si, ci in zip(q.tolist(), s.tolist(), c.tolist()):
                    key = (qi, si)
                    prev = lookup.get(key)
                    if prev is None or ci < prev:
                        lookup[key] = ci
            self._block_lookup = lookup
        return self._block_lookup

    def edge_cost(self, query_name: str, structure_name: str) -> Optional[float]:
        """Cost of the edge, or ``None`` if absent (min over parallel
        edges, across both the dict and bulk stores)."""
        best = self._edges.get((query_name, structure_name))
        if self._edge_blocks:
            qpos = list(self._queries).index(query_name) if query_name in self._queries else -1
            spos = (
                list(self._structures).index(structure_name)
                if structure_name in self._structures
                else -1
            )
            if qpos >= 0 and spos >= 0:
                block = self._block_lookup_map().get((qpos, spos))
                if block is not None and (best is None or block < best):
                    best = block
        return best

    def edge_arrays(self) -> tuple:
        """All edges as ``(query_positions, structure_positions, costs)``
        int64/int64/float64 arrays (dict edges first, then bulk blocks;
        parallel edges are *not* merged here — the benefit engine keeps
        the minimum)."""
        query_pos = {name: i for i, name in enumerate(self._queries)}
        structure_pos = {name: i for i, name in enumerate(self._structures)}
        q_parts = [
            np.fromiter(
                (query_pos[q] for (q, _s) in self._edges), dtype=np.int64, count=len(self._edges)
            )
        ]
        s_parts = [
            np.fromiter(
                (structure_pos[s] for (_q, s) in self._edges),
                dtype=np.int64,
                count=len(self._edges),
            )
        ]
        c_parts = [np.fromiter(self._edges.values(), dtype=np.float64, count=len(self._edges))]
        for q, s, c in self._edge_blocks:
            q_parts.append(q)
            s_parts.append(s)
            c_parts.append(c)
        return (
            np.concatenate(q_parts),
            np.concatenate(s_parts),
            np.concatenate(c_parts),
        )

    @property
    def n_queries(self) -> int:
        return len(self._queries)

    @property
    def n_structures(self) -> int:
        return len(self._structures)

    @property
    def n_edges(self) -> int:
        return len(self._edges) + self._n_block_edges

    def total_space(self) -> float:
        """Space needed to materialize every structure."""
        return sum(s.space for s in self._structures.values())

    def total_default_cost(self) -> float:
        """Frequency-weighted cost of answering everything from raw data."""
        return sum(q.frequency * q.default_cost for q in self._queries.values())

    def validate(self) -> None:
        """Check invariants: index edges never cost more than the owning
        view's scan edge would allow to be useful, every index has an owner,
        edge endpoints exist.  Raises ``ValueError`` on violation."""
        for (q, s), cost in self._edges.items():
            if q not in self._queries:
                raise ValueError(f"edge references unknown query {q!r}")
            if s not in self._structures:
                raise ValueError(f"edge references unknown structure {s!r}")
            if not cost >= 0:
                raise ValueError(f"edge ({q}, {s}) has negative cost")
        for q, s, c in self._edge_blocks:
            if q.size and (int(q.min()) < 0 or int(q.max()) >= len(self._queries)):
                raise ValueError("bulk edge references unknown query position")
            if s.size and (int(s.min()) < 0 or int(s.max()) >= len(self._structures)):
                raise ValueError("bulk edge references unknown structure position")
            if not np.all(c >= 0):
                raise ValueError("bulk edge has negative cost")
        for name, struct in self._structures.items():
            if struct.is_index and struct.view_name not in self._structures:
                raise ValueError(f"index {name!r} has unknown view {struct.view_name!r}")

    def __repr__(self) -> str:
        return (
            f"QueryViewGraph(queries={self.n_queries}, views={len(self.views)}, "
            f"indexes={len(self.indexes)}, edges={self.n_edges})"
        )

    # ------------------------------------------------------------ from cube

    @classmethod
    def from_cube(
        cls,
        lattice: CubeLattice,
        queries: Optional[Sequence[SliceQuery]] = None,
        frequencies: Optional[Mapping[SliceQuery, float]] = None,
        cost_model: Optional[LinearCostModel] = None,
        index_universe: str = "fat",
        skip_useless_index_edges: bool = True,
    ) -> "QueryViewGraph":
        """Build the query-view graph of a data cube.

        The bitmask fast path builds it whenever the inputs allow (plain
        :class:`LinearCostModel` over this lattice, plain
        :class:`SliceQuery` queries, at most 20 dimensions); any other
        input goes through the per-edge loop.  Both paths produce
        node-for-node, edge-for-edge identical graphs.

        Parameters
        ----------
        lattice:
            The cube's view lattice with sizes.
        queries:
            The query population; defaults to all ``3^n`` slice queries.
        frequencies:
            Optional per-query weights (default: equiprobable, weight 1).
        cost_model:
            Defaults to :class:`LinearCostModel` over ``lattice`` with the
            top view as the raw data.
        index_universe:
            ``"fat"`` (default) enumerates only fat indexes per the
            pruning argument of Section 4.2.2; ``"all"`` enumerates every
            ordering of every non-empty attribute subset (for the pruning
            ablation); ``"none"`` adds no indexes (the [HRU96] setting).
        skip_useless_index_edges:
            When True (default), index edges that do not beat the plain
            view scan are omitted — they can never influence a selection.
        """
        if cost_model is None:
            cost_model = LinearCostModel(lattice)
        if queries is None:
            queries = list(enumerate_slice_queries(lattice.schema.names))
        else:
            queries = list(queries)
        frequencies = dict(frequencies or {})
        index_enum = _index_enumerator(index_universe)

        if (
            type(cost_model) is LinearCostModel
            and cost_model.lattice is lattice
            and isinstance(lattice, CubeLattice)
            and lattice.schema.n_dims <= 20
            and cost_model.default_view.attrs <= set(lattice.schema.names)
            and all(type(q) is SliceQuery for q in queries)
        ):
            return cls._from_cube_vectorized(
                lattice, queries, frequencies, cost_model.default_view,
                index_enum, skip_useless_index_edges,
            )
        return cls._from_cube_per_edge(
            lattice, queries, frequencies, cost_model,
            index_enum, skip_useless_index_edges,
        )

    @classmethod
    def _from_cube_per_edge(
        cls,
        lattice: CubeLattice,
        queries: Sequence[SliceQuery],
        frequencies: Mapping[SliceQuery, float],
        cost_model: LinearCostModel,
        index_enum,
        skip_useless_index_edges: bool,
    ) -> "QueryViewGraph":
        """Per-edge loop of :meth:`from_cube`: one ``cost_model.cost``
        call and one :meth:`add_edge` per (query, structure) pair.  The
        only path for a subclassed cost model, non-:class:`SliceQuery`
        queries, and more than 20 dimensions."""
        graph = cls()
        for query in queries:
            graph.add_query(
                str(query),
                default_cost=cost_model.default_cost(query),
                frequency=frequencies.get(query, 1.0),
                payload=query,
            )

        for view in lattice.views():
            view_name = lattice.label(view)
            graph.add_view(view_name, space=lattice.size(view), payload=view)
            answerable = [q for q in queries if q.answerable_by(view)]
            for query in answerable:
                graph.add_edge(str(query), view_name, cost_model.cost(query, view))
            for index in index_enum(view):
                index_name = lattice.index_label(index)
                graph.add_index(view_name, index_name, payload=index)
                view_rows = lattice.size(view)
                for query in answerable:
                    cost = cost_model.cost(query, view, index)
                    if skip_useless_index_edges and cost >= view_rows:
                        continue
                    graph.add_edge(str(query), index_name, cost)
        return graph

    @classmethod
    def from_mined(
        cls,
        lattice: CubeLattice,
        mined,
        skip_useless_index_edges: bool = True,
    ) -> "QueryViewGraph":
        """Build the graph of a *mined* candidate space (see
        :mod:`repro.mining`).

        Unlike :meth:`from_cube`, this never enumerates the lattice's
        ``3^n`` query universe or the ``~2·n!`` fat-index universe —
        query nodes, view nodes, and index nodes all come from the mined
        attribute sets alone, so a d=9–10 cube whose full graph cannot
        even be built compiles in seconds.  Edges come from the same
        :class:`EdgeKernel` as :meth:`from_cube`'s fast path, under the
        linear cost model with the top view as the raw data.

        ``mined`` is duck-typed (a
        :class:`repro.mining.candidates.MinedCandidates`, kept out of
        the core package's imports): it must expose ``queries`` (a
        ``{SliceQuery: weight}`` mapping), ``view_attrs`` (kept views as
        attribute frozensets) and ``index_keys`` (``{view_attrs: [key
        tuple, ...]}``).  Query nodes are sorted by (attribute count,
        attributes, selection count, selection); structure order follows
        the mined view order — lattice order — so greedy argmax
        tie-breaks match a :meth:`from_cube` graph restricted to the
        same structures.  Raises ``ValueError`` for a mined view outside
        the lattice or a query over attributes outside the schema.
        """
        graph = cls()

        def query_key(query):
            return (
                len(query.attrs),
                tuple(sorted(query.attrs)),
                len(query.selection),
                tuple(sorted(query.selection)),
            )

        queries = sorted(mined.queries, key=query_key)
        kernel = EdgeKernel(lattice, queries)
        for query in queries:
            graph.add_query(
                str(query),
                default_cost=kernel.default_cost,
                frequency=float(mined.queries[query]),
                payload=query,
            )
        for attrs in mined.view_attrs:
            view = View(attrs)
            indexes = [Index(view, key) for key in mined.index_keys.get(attrs, ())]
            graph._add_view_edges(kernel, view, indexes, skip_useless_index_edges)
        return graph

    @classmethod
    def _from_cube_vectorized(
        cls,
        lattice: CubeLattice,
        queries: Sequence[SliceQuery],
        frequencies: Mapping[SliceQuery, float],
        default_view: View,
        index_enum,
        skip_useless_index_edges: bool,
    ) -> "QueryViewGraph":
        """Bitmask fast path of :meth:`from_cube`: every lattice view and
        its enumerated indexes through :class:`EdgeKernel`.  Emits
        node-for-node, edge-for-edge the same graph as the reference
        loop."""
        graph = cls()
        kernel = EdgeKernel(lattice, queries, default_view)
        for query in queries:
            graph.add_query(
                str(query),
                default_cost=kernel.default_cost,
                frequency=frequencies.get(query, 1.0),
                payload=query,
            )
        for view in lattice.views():
            graph._add_view_edges(
                kernel, view, list(index_enum(view)), skip_useless_index_edges
            )
        return graph

    def _add_view_edges(
        self,
        kernel: "EdgeKernel",
        view: View,
        indexes: Sequence[Index],
        skip_useless_index_edges: bool,
    ) -> None:
        """Add ``view``, its ``indexes``, and their kernel edge blocks."""
        blocks = kernel.edge_blocks(
            view, indexes, skip_useless_index_edges, view_pos=self.n_structures
        )
        lattice = kernel.lattice
        view_name = lattice.label(view)
        self.add_view(view_name, space=lattice.size(view), payload=view)
        for index in indexes:
            # index_label's name, without re-deriving the view's label
            name = f"I_{join_attrs(index.key)}({view_name})"
            self.add_index(view_name, name, payload=index)
        for query_pos, structure_pos, costs in blocks:
            self.add_edges_bulk(query_pos, structure_pos, costs)


class EdgeKernel:
    """The linear cost model (:class:`LinearCostModel`) evaluated on
    attribute bitmasks over a fixed query list — the edge computation
    shared by :meth:`QueryViewGraph.from_cube`'s fast path,
    :meth:`QueryViewGraph.from_mined` and
    :func:`repro.mining.bound.compute_benefit_bound`.

    Every view and every query attribute set becomes an ``n``-bit mask;
    a view answers a query iff ``attrs & ~view == 0``.  An index's
    usable prefix is the longest key prefix inside the query's selection
    mask, found by counting cumulative-prefix-mask subset tests
    (monotone in the prefix length), and ``max(1, |V| / |E|)`` is
    evaluated on whole (index × distinct selection mask) blocks: a d=6
    view answers up to 729 queries, but at most 64 masks decide their
    costs.

    Construction raises ``ValueError`` for a query the default view
    (the raw data; the lattice's top by default) cannot answer, as
    :meth:`LinearCostModel.default_cost` does.
    """

    def __init__(
        self,
        lattice: CubeLattice,
        queries: Sequence[SliceQuery],
        default_view: Optional[View] = None,
    ):
        if default_view is None:
            default_view = lattice.top
        self.lattice = lattice
        names = tuple(lattice.schema.names)
        self._bit = {attr: 1 << i for i, attr in enumerate(names)}
        n_masks = 1 << len(names)
        # row count of every view, indexed by its mask
        self._size_by_mask = np.ones(n_masks, dtype=np.float64)
        for view in lattice.views():
            self._size_by_mask[self._mask_of(view.attrs)] = float(lattice.size(view))
        # divisor for a usable prefix: the empty prefix scans the view
        self._prefix_rows = self._size_by_mask.copy()
        self._prefix_rows[0] = 1.0
        # impossible prefix: a bit no selection mask has
        self._sentinel = np.int64(n_masks)
        self.default_cost = lattice.size(default_view)

        self.attr_masks = np.empty(len(queries), dtype=np.int64)
        self.sel_masks = np.empty(len(queries), dtype=np.int64)
        for qi, query in enumerate(queries):
            if not query.attrs <= default_view.attrs:
                raise ValueError(
                    f"{query} is not answerable by the default view {default_view}"
                )
            self.attr_masks[qi] = self._mask_of(query.attrs)
            self.sel_masks[qi] = self._mask_of(query.selection)

    def _mask_of(self, attrs) -> int:
        """The bitmask of an attribute set (``KeyError`` outside the schema)."""
        mask = 0
        for attr in attrs:
            mask |= self._bit[attr]
        return mask

    def index_cost(self, view_masks, prefix_masks) -> np.ndarray:
        """``c(Q, V, J) = max(1, |V| / |E|)`` elementwise over view and
        usable-prefix masks; an empty prefix (mask 0) costs ``|V|``."""
        costs = self._size_by_mask[view_masks] / self._prefix_rows[prefix_masks]
        return np.maximum(costs, 1.0, out=costs)

    def edge_blocks(
        self,
        view: View,
        indexes: Sequence[Index],
        skip_useless_index_edges: bool = True,
        view_pos: int = 0,
    ) -> list:
        """Edges of ``view`` and its ``indexes`` as ``(query_positions,
        structure_positions, costs)`` array blocks.

        The view sits at structure position ``view_pos`` and
        ``indexes[i]`` at ``view_pos + 1 + i``; blocks are
        structure-major with ascending query positions within a
        structure.  With ``skip_useless_index_edges`` an index edge is
        dropped unless it beats the view scan.  Raises ``ValueError``
        for a view outside the lattice.
        """
        if view not in self.lattice:
            raise ValueError(f"view {view} is not a view of this lattice")
        view_mask = self._mask_of(view.attrs)
        view_rows = self._size_by_mask[view_mask]
        ans = np.flatnonzero((self.attr_masks & ~np.int64(view_mask)) == 0)
        if not ans.size:
            return []
        blocks = [
            (ans, np.full(ans.size, view_pos, dtype=np.int64), np.full(ans.size, view_rows))
        ]
        if not indexes:
            return blocks

        # an index's usable prefix depends on the query's selection mask
        # alone: price each distinct mask of the answering queries once,
        # then gather the costs back to the queries
        sel_masks, sel_of = np.unique(self.sel_masks[ans], return_inverse=True)
        not_sel = ~sel_masks  # high bits (incl. sentinel) set
        kmax = max(len(index.key) for index in indexes)
        chunk_rows = max(1, _VEC_CHUNK_CELLS // int(ans.size))
        for lo in range(0, len(indexes), chunk_rows):
            chunk = indexes[lo : lo + chunk_rows]
            # cumulative prefix masks; sentinel past the key's end
            prefix_masks = np.full((len(chunk), kmax + 1), self._sentinel, dtype=np.int64)
            prefix_masks[:, 0] = 0
            for i, index in enumerate(chunk):
                mask = 0
                for j, attr in enumerate(index.key, start=1):
                    mask |= self._bit[attr]
                    prefix_masks[i, j] = mask
            # usable prefix length: prefix_j usable iff its mask is a
            # subset of the selection mask; usability is monotone in j
            usable_len = np.zeros((len(chunk), sel_masks.size), dtype=np.int64)
            for j in range(1, kmax + 1):
                usable_len += (prefix_masks[:, j : j + 1] & not_sel[None, :]) == 0
            pair_prefix = np.take_along_axis(prefix_masks, usable_len, axis=1)
            costs = self.index_cost(view_mask, pair_prefix)
            if skip_useless_index_edges:
                keep = (costs < view_rows)[:, sel_of]
            else:
                keep = np.ones((len(chunk), ans.size), dtype=bool)
            ii, aa = np.nonzero(keep)
            if ii.size:
                blocks.append((ans[aa], view_pos + 1 + lo + ii, costs[ii, sel_of[aa]]))
        return blocks
