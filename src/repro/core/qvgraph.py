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

Edges live in one store: position-indexed ``(query, structure, cost)``
arrays (positions being the insertion order of the query and structure
nodes).  :meth:`~QueryViewGraph.add_edge` appends one edge to it and
:meth:`~QueryViewGraph.add_edges_bulk` a whole block; the first read puts
the store into CSR order (structure-major, queries ascending within a
structure) with each parallel pair at its minimum cost, so
:meth:`~QueryViewGraph.edge_cost`, :meth:`~QueryViewGraph.edges`,
:attr:`~QueryViewGraph.n_edges`, :meth:`~QueryViewGraph.edge_arrays` and
the benefit engine all read one resolved edge set.  Both cube builders
compile through :class:`EdgeKernel`, which computes answerability and
index costs with subset bitmasks over the lattice, one view at a time,
and appends whole edge blocks already in CSR order: ``from_cube`` on a
d=7 fat-index cube emits ~5 million edges without a per-edge Python
object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

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
        # node positions (insertion order), which the edge store holds
        self._query_pos: Dict[str, int] = {}
        self._structure_pos: Dict[str, int] = {}
        # the edge store: (query_positions, structure_positions, costs)
        # blocks, plus the single edges add_edge has appended since the
        # last block; _csr is the resolved store, None after an append
        self._edge_blocks: list = []
        self._edge_buffer: list = []
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

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
        self._query_pos[name] = len(self._queries)
        self._queries[name] = spec
        return spec

    def _add_structure(self, spec: Structure) -> Structure:
        if spec.name in self._structures:
            raise ValueError(f"duplicate structure name {spec.name!r}")
        self._structure_pos[spec.name] = len(self._structures)
        self._structures[spec.name] = spec
        return spec

    def add_view(self, name: str, space: float, payload: Any = None) -> Structure:
        """Add a view structure.  Names must be unique among structures."""
        spec = self._add_structure(Structure(name, VIEW_KIND, space, name, payload))
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
        view = self._structures.get(view_name)
        if view is None or not view.is_view:
            raise ValueError(f"unknown view {view_name!r} for index {name!r}")
        spec = self._add_structure(
            Structure(
                name, INDEX_KIND, view.space if space is None else space, view_name, payload
            )
        )
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
        query_pos = self._query_pos.get(query_name)
        if query_pos is None:
            raise ValueError(f"unknown query {query_name!r}")
        structure_pos = self._structure_pos.get(structure_name)
        if structure_pos is None:
            raise ValueError(f"unknown structure {structure_name!r}")
        if not cost >= 0:
            raise ValueError("edge cost must be >= 0")
        if not math.isfinite(cost):
            raise ValueError("edge cost must be finite")
        self._edge_buffer.append((query_pos, structure_pos, cost))
        self._csr = None

    def add_edges_bulk(
        self,
        query_positions: np.ndarray,
        structure_positions: np.ndarray,
        costs: np.ndarray,
    ) -> None:
        """Append a block of edges given by *node positions* (insertion
        order of queries / structures) instead of names.

        Millions of edges cost three array appends.  Parallel edges,
        within the block or against earlier ones, keep only the minimum
        cost, as with :meth:`add_edge`.
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
        self._close_edge_buffer()
        self._edge_blocks.append((q, s, c))
        self._csr = None

    def _close_edge_buffer(self) -> None:
        """Turn the single edges appended since the last block into one."""
        if self._edge_buffer:
            q, s, c = zip(*self._edge_buffer)
            self._edge_blocks.append(
                (
                    np.array(q, dtype=np.int64),
                    np.array(s, dtype=np.int64),
                    np.array(c, dtype=np.float64),
                )
            )
            self._edge_buffer = []

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

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge store as read-only ``(query_positions,
        structure_positions, costs)`` int64/int64/float64 arrays in CSR
        order (structure-major, queries strictly ascending within a
        structure), each parallel pair at its minimum cost.

        Resolved once after the last append; the builders' blocks arrive
        in CSR order, so only hand-built graphs pay the sort."""
        if self._csr is None:
            self._close_edge_buffer()
            if self._edge_blocks:
                # a copy even of one block: the store owns its arrays
                q, s, c = (np.concatenate(parts) for parts in zip(*self._edge_blocks))
            else:
                q = s = np.empty(0, dtype=np.int64)
                c = np.empty(0, dtype=np.float64)
            self._csr = _csr_order(q, s, c)
            self._edge_blocks = [self._csr]
        return self._csr

    def edges(self) -> Iterable:
        """Yield ``(query_name, structure_name, cost)`` triples in CSR
        order, each (query, structure) pair once."""
        q, s, c = self.edge_arrays()
        query_names = list(self._queries)
        structure_names = list(self._structures)
        for qi, si, ci in zip(q.tolist(), s.tolist(), c.tolist()):
            yield query_names[qi], structure_names[si], ci

    def edge_cost(self, query_name: str, structure_name: str) -> Optional[float]:
        """Cost of the edge (the minimum over parallel edges), or ``None``
        if absent."""
        query_pos = self._query_pos.get(query_name)
        structure_pos = self._structure_pos.get(structure_name)
        if query_pos is None or structure_pos is None:
            return None
        q, s, c = self.edge_arrays()
        lo, hi = np.searchsorted(s, (structure_pos, structure_pos + 1))
        pos = lo + int(np.searchsorted(q[lo:hi], query_pos))
        if pos < hi and q[pos] == query_pos:
            return float(c[pos])
        return None

    @property
    def n_queries(self) -> int:
        return len(self._queries)

    @property
    def n_structures(self) -> int:
        return len(self._structures)

    @property
    def n_edges(self) -> int:
        """Number of (query, structure) pairs with an edge."""
        return int(self.edge_arrays()[2].size)

    def total_space(self) -> float:
        """Space needed to materialize every structure."""
        return sum(s.space for s in self._structures.values())

    def total_default_cost(self) -> float:
        """Frequency-weighted cost of answering everything from raw data."""
        return sum(q.frequency * q.default_cost for q in self._queries.values())

    def validate(self) -> None:
        """Check that every index has an owning view.  Raises
        ``ValueError`` on violation.  (Edge endpoints and costs are
        checked as the edges are added.)"""
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
        index_universe: str = "fat",
    ) -> "QueryViewGraph":
        """Build the query-view graph of a data cube: every lattice view
        and its enumerated indexes, priced by :class:`EdgeKernel` under
        the linear cost model with the top view as the raw data.  An
        index edge that does not beat the view scan is left out — it can
        never influence a selection.

        Parameters
        ----------
        lattice:
            The cube's view lattice with sizes.
        queries:
            The query population; defaults to all ``3^n`` slice queries.
        frequencies:
            Optional per-query weights (default: equiprobable, weight 1).
        index_universe:
            ``"fat"`` (default) enumerates only fat indexes per the
            pruning argument of Section 4.2.2; ``"all"`` enumerates every
            ordering of every non-empty attribute subset (for the pruning
            ablation); ``"none"`` adds no indexes (the [HRU96] setting).
        """
        if queries is None:
            queries = list(enumerate_slice_queries(lattice.schema.names))
        else:
            queries = list(queries)
        frequencies = dict(frequencies or {})
        index_enum = _index_enumerator(index_universe)
        return cls._compile(
            lattice,
            queries,
            [frequencies.get(query, 1.0) for query in queries],
            ((view, list(index_enum(view))) for view in lattice.views()),
        )

    @classmethod
    def from_mined(cls, lattice: CubeLattice, mined) -> "QueryViewGraph":
        """Build the graph of a *mined* candidate space (see
        :mod:`repro.mining`).

        Unlike :meth:`from_cube`, this never enumerates the lattice's
        ``3^n`` query universe or the ``~2·n!`` fat-index universe —
        query nodes, view nodes, and index nodes all come from the mined
        attribute sets alone, so a d=9–10 cube whose full graph cannot
        even be built compiles in seconds.  Edges come from the same
        :class:`EdgeKernel` as :meth:`from_cube`'s.

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

        def query_key(query):
            return (
                len(query.attrs),
                tuple(sorted(query.attrs)),
                len(query.selection),
                tuple(sorted(query.selection)),
            )

        queries = sorted(mined.queries, key=query_key)
        return cls._compile(
            lattice,
            queries,
            [float(mined.queries[query]) for query in queries],
            (
                (view, [Index(view, key) for key in mined.index_keys.get(view.attrs, ())])
                for view in map(View, mined.view_attrs)
            ),
        )

    @classmethod
    def _compile(
        cls,
        lattice: CubeLattice,
        queries: Sequence[SliceQuery],
        frequencies: Sequence[float],
        structures: Iterable[Tuple[View, Sequence[Index]]],
    ) -> "QueryViewGraph":
        """The graph of ``queries`` (weighted by ``frequencies``, in
        order) and ``structures``, ``(view, indexes)`` pairs in structure
        order, with every edge block from one :class:`EdgeKernel`."""
        graph = cls()
        kernel = EdgeKernel(lattice, queries)
        for query, frequency in zip(queries, frequencies):
            graph.add_query(
                str(query),
                default_cost=kernel.default_cost,
                frequency=frequency,
                payload=query,
            )
        for view, indexes in structures:
            blocks = kernel.edge_blocks(view, indexes, view_pos=graph.n_structures)
            view_name = lattice.label(view)
            graph.add_view(view_name, space=lattice.size(view), payload=view)
            for index in indexes:
                # index_label's name, without re-deriving the view's label
                name = f"I_{join_attrs(index.key)}({view_name})"
                graph.add_index(view_name, name, payload=index)
            for query_pos, structure_pos, costs in blocks:
                graph.add_edges_bulk(query_pos, structure_pos, costs)
        return graph


def _csr_order(
    q: np.ndarray, s: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges in CSR order with each parallel pair at its minimum cost,
    as read-only arrays.  Edges already in strict CSR order (what the
    builders emit) skip the ``O(E log E)`` sort."""
    same_row = s[1:] == s[:-1]
    ordered = bool(np.all(s[1:] >= s[:-1])) and bool(
        np.all(q[1:][same_row] > q[:-1][same_row])
    )
    if not ordered:
        order = np.lexsort((q, s))
        q, s, c = q[order], s[order], c[order]
        first = np.ones(q.size, dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (q[1:] != q[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            c = np.minimum.reduceat(c, starts)
            q, s = q[starts], s[starts]
    for arr in (q, s, c):
        arr.flags.writeable = False
    return q, s, c


class EdgeKernel:
    """The linear cost model
    (:class:`~repro.core.costmodel.LinearCostModel`) evaluated on
    attribute bitmasks over a fixed query list — the edge computation
    shared by :meth:`QueryViewGraph.from_cube`,
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

    Construction raises ``ValueError`` for a query the top view (the
    raw data) cannot answer, as ``LinearCostModel.default_cost`` does.
    """

    def __init__(self, lattice: CubeLattice, queries: Sequence[SliceQuery]):
        top = lattice.top
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
        self.default_cost = lattice.size(top)

        self.attr_masks = np.empty(len(queries), dtype=np.int64)
        self.sel_masks = np.empty(len(queries), dtype=np.int64)
        for qi, query in enumerate(queries):
            if not query.attrs <= top.attrs:
                raise ValueError(f"{query} is not answerable by the top view {top}")
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
        self, view: View, indexes: Sequence[Index], view_pos: int = 0
    ) -> list:
        """Edges of ``view`` and its ``indexes`` as ``(query_positions,
        structure_positions, costs)`` array blocks.

        The view sits at structure position ``view_pos`` and
        ``indexes[i]`` at ``view_pos + 1 + i``; blocks are
        structure-major with ascending query positions within a
        structure.  An index edge is dropped unless it beats the view
        scan.  Raises ``ValueError`` for a view outside the lattice.
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
            ii, aa = np.nonzero((costs < view_rows)[:, sel_of])
            if ii.size:
                blocks.append((ans[aa], view_pos + 1 + lo + ii, costs[ii, sel_of[aa]]))
        return blocks
