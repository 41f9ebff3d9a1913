"""Benefit evaluation for sets of structures (Section 5.2 of the paper).

Given a query-view graph ``G`` and a set ``M`` of materialized structures,
the total query cost is

    τ(G, M) = Σ_i f_i · min(T_i, min over usable (view, index) in M of t)

and the *benefit* of a candidate set ``C`` w.r.t. ``M`` is
``B(C, M) = τ(G, M) − τ(G, M ∪ C)``.  Every selection algorithm in
:mod:`repro.algorithms` evaluates thousands of such benefits, so this
module compiles the graph once and keeps the current per-query best cost
as state, making a benefit evaluation a single vectorized pass.

The cost store holds only the edges: CSR (per-structure) plus CSC
(per-query) arrays, a missing edge meaning ``inf``.  No ``(n_structures ×
n_queries)`` matrix is ever built, which is what makes 7–9 dimension
cubes compilable at all.

On top of the store the engine maintains *incremental single-structure
benefits*: after a :meth:`commit`, only queries whose best cost dropped
(the *dirty columns*) can change any candidate's standalone benefit, so
only structures with an edge into a dirty column (the *stale rows*) can
change.  Of those, only the ones a stage can pick — views, and indexes of
selected views — are re-scored at once.  A stale index of an unselected
view is left *pending*: its cached value is an upper bound on its benefit
until its view is committed or a caller reads it through
:meth:`single_benefits`, which re-score it.  :meth:`best_single`
exploits this — a greedy stage costs ``O(stale pickable edges)`` instead
of ``O(n_structures · n_queries)`` — :meth:`single_benefit_bounds` hands
the bounds to subtree prunes as they stand, and :meth:`invalidate` drops
the cache.  Every read equals a full recompute bitwise; the tests keep
the former full-rescan stage loops as the reference the stage loops
must match with ``==``.

The cache runs on a *live* copy of the store without the *dead* edges,
those whose cost is at or above their query's current best cost.  A
dead edge adds ``f · max(best − c, 0) = ±0.0`` to its row's sum now and
after every later commit (best costs only fall), and a ±0.0 addend
leaves a sum that starts at +0.0 bitwise unchanged.  Commits count the
edges they kill; once at least half the live edges are dead, CSR and CSC
are compacted together, in order, which keeps a run's compaction work
under twice the edge count.  Only the cache's own reads use the live
store: its full pass, its row re-scores and the dirty-column gather of a
commit.  Every read that takes a caller's base cost vector or describes
the instance (:meth:`gains_for`, :meth:`minimum_with`,
:meth:`min_cost_over`, :meth:`benefit_of`, :meth:`fingerprint`, ...)
reads the full store, and :meth:`reset` and :meth:`restore`, after which
best costs may rise, put the cache back on it.

An index is *usable* only when its owning view is materialized; the engine
exposes :meth:`BenefitEngine.is_admissible` so algorithms can enforce the
rule, and raises on attempts to commit an index without its view.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.core.qvgraph import QueryViewGraph

INF = float("inf")

#: Relative tolerance of the canonical greedy tie-break: a candidate only
#: displaces the incumbent when its ratio exceeds the incumbent's by this
#: factor.  Shared by every stage loop and the tests' reference loops.
RATIO_RTOL = 1e-12


def _row_ids(row_ptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR/CSC store, from its pointer."""
    return np.repeat(np.arange(row_ptr.size - 1, dtype=np.int64), np.diff(row_ptr))


def _gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` for all i,
    concatenated in order — the multi-slice gather used for CSR/CSC rows."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    return np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)


def csr_gains(
    row_ptr: np.ndarray,
    row_cols: np.ndarray,
    row_vals: np.ndarray,
    frequencies: np.ndarray,
    base: np.ndarray,
    ids,
) -> np.ndarray:
    """Frequency-weighted positive gain of each structure in ``ids``
    against the per-query cost vector ``base``, over a CSR edge store.

    This is the batched gain kernel behind :class:`BenefitEngine`'s
    ``gains_for`` and subset single-benefit refresh.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    starts = row_ptr[arr]
    lengths = row_ptr[arr + 1] - starts
    flat = _gather_ranges(starts, lengths)
    cols = row_cols[flat]
    contrib = base[cols] - row_vals[flat]
    np.maximum(contrib, 0.0, out=contrib)
    contrib *= frequencies[cols]
    local = np.repeat(np.arange(arr.size, dtype=np.int64), lengths)
    return np.bincount(local, weights=contrib, minlength=arr.size)


class _EdgeStore(NamedTuple):
    """CSR (by structure) plus CSC (by query) edge arrays."""

    row_ptr: np.ndarray
    row_cols: np.ndarray
    row_vals: np.ndarray
    col_ptr: np.ndarray
    col_rows: np.ndarray
    col_vals: np.ndarray

    def below(self, best: np.ndarray) -> "_EdgeStore":
        """The edges whose cost is below their query's ``best``, in the
        same order (numpy only)."""
        keep = np.flatnonzero(self.row_vals < best[self.row_cols])
        keep_c = np.flatnonzero(
            self.col_vals < np.repeat(best, np.diff(self.col_ptr))
        )
        return _EdgeStore(
            np.searchsorted(keep, self.row_ptr),
            self.row_cols[keep],
            self.row_vals[keep],
            np.searchsorted(keep_c, self.col_ptr),
            self.col_rows[keep_c],
            self.col_vals[keep_c],
        )


def chain_pick(ratios: np.ndarray, incumbent: Optional[float] = None) -> Optional[int]:
    """Winner of the canonical greedy incumbent chain over ``ratios``.

    The canonical rule (shared by every stage loop): scan candidates in
    order; the incumbent is displaced only by a ratio strictly greater
    than ``incumbent · (1 + RATIO_RTOL)``.  All ratios must be positive.
    ``incumbent`` continues a chain that already holds an incumbent of
    that ratio; the result is then ``None`` when nothing displaces it.

    Vectorized via running prefix maxima (the incumbent's ratio included):
    a candidate strictly above the previous prefix max times the tolerance
    *definitely* displaces, one at or below the prefix max definitely does
    not; the (measure-zero) ambiguous band falls back to the exact Python
    scan, so the result is always identical to the sequential rule.
    """
    n = len(ratios)
    if n == 0:
        return None
    if n == 1 and incumbent is None:
        return 0
    floor = 0.0 if incumbent is None else incumbent
    prev = np.empty(n, dtype=np.float64)
    prev[0] = floor
    np.maximum.accumulate(ratios[:-1], out=prev[1:])
    np.maximum(prev, floor, out=prev)
    definite = ratios > prev * (1.0 + RATIO_RTOL)
    ambiguous = (ratios > prev) & ~definite
    if ambiguous.any():
        best, best_ratio = None, incumbent
        for i in range(n):
            if best_ratio is None or ratios[i] > best_ratio * (1.0 + RATIO_RTOL):
                best = i
                best_ratio = float(ratios[i])
        return best
    hits = np.flatnonzero(definite)
    return int(hits[-1]) if hits.size else None


class BenefitEngine:
    """Compiled, stateful benefit evaluator over a query-view graph.

    The engine assigns every structure an integer id (``0..m-1``) and every
    query an integer id (``0..q-1``).  The cost of answering query ``q``
    via structure ``s`` is an edge of the CSR/CSC store (``inf`` when
    there is no edge).  State is the vector of current best per-query
    costs given the committed selection, initialized to the default costs
    ``T_i``.
    """

    def __init__(self, graph: QueryViewGraph):
        self.graph = graph
        self.query_names = [q.name for q in graph.queries]
        self.structure_names = [s.name for s in graph.structures]
        self._query_id = {name: i for i, name in enumerate(self.query_names)}
        self._structure_id = {name: i for i, name in enumerate(self.structure_names)}

        n_q = len(self.query_names)
        n_s = len(self.structure_names)
        self.defaults = np.array(
            [q.default_cost for q in graph.queries], dtype=np.float64
        )
        self.frequencies = np.array(
            [q.frequency for q in graph.queries], dtype=np.float64
        )
        self.spaces = np.array([s.space for s in graph.structures], dtype=np.float64)
        self.is_view = np.array([s.is_view for s in graph.structures], dtype=bool)
        self.view_id_of = np.array(
            [self._structure_id[s.view_name] for s in graph.structures], dtype=np.int64
        )

        q_idx, s_idx, vals = graph.edge_arrays()
        self._build_sparse(n_s, n_q, s_idx, q_idx, vals)

        self._indexes_of = {
            self._structure_id[v.name]: np.array(
                [self._structure_id[i] for i in graph.indexes_of(v.name)],
                dtype=np.int64,
            )
            for v in graph.views
        }
        self._singles: Optional[np.ndarray] = None
        self._pending: Optional[np.ndarray] = None
        self._singles_fresh = False
        self._stage_candidates: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        self.reset()

    # ----------------------------------------------------------- compilation

    def _build_sparse(self, n_s, n_q, s_idx, q_idx, vals) -> None:
        """Build the CSR (by structure) and CSC (by query) edge stores."""
        s_idx = np.asarray(s_idx, dtype=np.int64)
        q_idx = np.asarray(q_idx, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        # the vectorized from_cube emits edges already in strict CSR order
        # (structure-major, query-minor, no duplicates) — detect that and
        # skip the O(nnz log nnz) sort, which dominates compile time
        if s_idx.size:
            same_row = s_idx[1:] == s_idx[:-1]
            csr_ordered = bool(np.all(s_idx[1:] >= s_idx[:-1])) and bool(
                np.all(q_idx[1:][same_row] > q_idx[:-1][same_row])
            )
        else:
            csr_ordered = True
        if csr_ordered:
            s_sorted, q_sorted, v_sorted = s_idx, q_idx, vals
        else:
            order = np.lexsort((q_idx, s_idx))
            s_sorted, q_sorted, v_sorted = s_idx[order], q_idx[order], vals[order]
            dup = np.zeros(s_sorted.size, dtype=bool)
            dup[1:] = (s_sorted[1:] == s_sorted[:-1]) & (q_sorted[1:] == q_sorted[:-1])
            if dup.any():
                # parallel edges keep the minimum cost, as add_edge does
                firsts = np.flatnonzero(~dup)
                v_sorted = np.minimum.reduceat(v_sorted, firsts)
                s_sorted = s_sorted[firsts]
                q_sorted = q_sorted[firsts]
        self._row_cols = q_sorted.astype(np.int32)
        self._row_vals = v_sorted
        self._row_ptr = np.searchsorted(s_sorted, np.arange(n_s + 1)).astype(
            np.int64, copy=False
        )

        # CSC: the CSR positions ordered stably by query, which is what
        # sorting the packed keys (query << shift) | position in place
        # gives (they fit int64 while queries x edges < 2**62); the
        # positions then gather rows and costs once each.
        shift = int(s_sorted.size).bit_length()
        keys = q_sorted << shift
        keys |= np.arange(s_sorted.size, dtype=np.int64)
        keys.sort()
        self._col_ptr = np.searchsorted(
            keys, np.arange(n_q + 1, dtype=np.int64) << shift
        ).astype(np.int64, copy=False)
        keys &= (1 << shift) - 1
        self._col_rows = s_sorted.astype(np.int32)[keys]
        self._col_vals = v_sorted[keys]
        self._full = _EdgeStore(
            self._row_ptr, self._row_cols, self._row_vals,
            self._col_ptr, self._col_rows, self._col_vals,
        )

    def fingerprint(self) -> str:
        """SHA-256 over the compiled instance (checkpoint identity).

        Covers structure names/spaces/ownership, query names, default
        costs, frequencies, and every cost edge — two engines share a
        fingerprint iff they describe the same selection problem, so a
        checkpoint can never be replayed against a different instance.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for name in self.structure_names:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
            for name in self.query_names:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
            for arr in (
                self.spaces,
                self.is_view,
                self.view_id_of,
                self.defaults,
                self.frequencies,
                _row_ids(self._row_ptr).astype(np.int32),
                self._row_cols,
                self._row_vals,
            ):
                digest.update(np.ascontiguousarray(arr).tobytes())
                digest.update(b"\x01")
            self._fingerprint = "sha256:" + digest.hexdigest()
        return self._fingerprint

    def replay_commit(self, names: Iterable[str]) -> float:
        """Commit structures by name (the checkpoint replay hook).

        Commits are deterministic — per-query best costs only take
        elementwise minima, and the maintained single-benefit cache is
        exact — so replaying a checkpoint's recorded stages in order
        reproduces the original engine state bitwise.  Returns the
        realized benefit of the committed set.
        """
        return self.commit([self.structure_id(name) for name in names])

    @property
    def nnz(self) -> int:
        """Number of stored edges."""
        return int(self._row_vals.size)

    def cost_store_bytes(self) -> int:
        """Actual bytes held by the cost store (CSR + CSC).

        Counts the full store only.  The live store the single-benefit
        cache runs on is the full store itself until the first
        compaction, and afterwards at most half its edges.
        """
        return int(
            self._row_cols.nbytes
            + self._row_vals.nbytes
            + self._row_ptr.nbytes
            + self._col_rows.nbytes
            + self._col_vals.nbytes
            + self._col_ptr.nbytes
        )

    # ------------------------------------------------------------------ ids

    @property
    def n_queries(self) -> int:
        return len(self.query_names)

    @property
    def n_structures(self) -> int:
        return len(self.structure_names)

    def structure_id(self, name: str) -> int:
        return self._structure_id[name]

    def query_id(self, name: str) -> int:
        return self._query_id[name]

    def name_of(self, structure_id: int) -> str:
        return self.structure_names[structure_id]

    def space_of(self, ids: Iterable[int]) -> float:
        ids = np.fromiter(ids, dtype=np.int64)
        return float(self.spaces[ids].sum()) if ids.size else 0.0

    def view_ids(self) -> np.ndarray:
        """Ids of all view structures."""
        return np.flatnonzero(self.is_view)

    def index_ids_of(self, view_id: int) -> np.ndarray:
        """Ids of the indexes owned by the given view."""
        if not self.is_view[view_id]:
            raise ValueError(f"structure {self.name_of(view_id)} is not a view")
        return self._indexes_of[view_id]

    def stage_candidates(self) -> np.ndarray:
        """All structures in the canonical greedy offer order: each view
        followed by its indexes, views in id order.  Cached; combined with
        the admissibility filter in :meth:`best_single` this is the
        static candidate list for single-structure stage scans."""
        if self._stage_candidates is None:
            segments = []
            for view_id in self.view_ids():
                view_id = int(view_id)
                segments.append(np.array([view_id], dtype=np.int64))
                idx = self._indexes_of[view_id]
                if idx.size:
                    segments.append(idx.astype(np.int64, copy=False))
            self._stage_candidates = (
                np.concatenate(segments)
                if segments
                else np.empty(0, dtype=np.int64)
            )
        return self._stage_candidates

    # ------------------------------------------------------------- cost rows

    def cost_row(self, structure_id: int) -> np.ndarray:
        """Per-query cost of one structure (``inf`` where no edge), as a
        new array."""
        row = np.full(self.n_queries, INF, dtype=np.float64)
        lo, hi = self._row_ptr[structure_id], self._row_ptr[structure_id + 1]
        row[self._row_cols[lo:hi]] = self._row_vals[lo:hi]
        return row

    def minimum_with(self, vec: np.ndarray, structure_id: int) -> np.ndarray:
        """``np.minimum(vec, cost_row(structure_id))`` without materializing
        the row.  Returns a new array."""
        out = vec.copy()
        lo, hi = self._row_ptr[structure_id], self._row_ptr[structure_id + 1]
        cols = self._row_cols[lo:hi]
        # fancy-indexed out= would write into a copy; assign instead
        out[cols] = np.minimum(out[cols], self._row_vals[lo:hi])
        return out

    def edge_cost_by_id(self, structure_id: int, query_id: int) -> float:
        """Cost of the (structure, query) edge, ``inf`` when absent."""
        lo, hi = self._row_ptr[structure_id], self._row_ptr[structure_id + 1]
        cols = self._row_cols[lo:hi]
        pos = lo + int(np.searchsorted(cols, query_id))
        if pos < hi and self._row_cols[pos] == query_id:
            return float(self._row_vals[pos])
        return INF

    # ---------------------------------------------------------------- state

    def reset(self) -> None:
        """Forget the committed selection; best costs return to defaults."""
        self._best = self.defaults.copy()
        self._selected: set = set()
        self._selected_mask = np.zeros(self.n_structures, dtype=bool)
        self._use_full_store()

    @property
    def selected_ids(self) -> frozenset:
        return frozenset(self._selected)

    @property
    def selected_mask(self) -> np.ndarray:
        """Boolean mask of selected structures (read-only; do not mutate)."""
        return self._selected_mask

    @property
    def selected_names(self) -> list:
        return [self.structure_names[i] for i in sorted(self._selected)]

    @property
    def best_costs(self) -> np.ndarray:
        """Current per-query best cost (a copy; safe to mutate)."""
        return self._best.copy()

    def space_used(self) -> float:
        return self.space_of(self._selected)

    def tau(self) -> float:
        """Current total (frequency-weighted) query cost τ(G, M)."""
        return float(self.frequencies @ self._best)

    def average_query_cost(self) -> float:
        """τ divided by the total query frequency."""
        total_freq = float(self.frequencies.sum())
        if total_freq == 0:
            return 0.0
        return self.tau() / total_freq

    def is_selected(self, structure_id: int) -> bool:
        return structure_id in self._selected

    # -------------------------------------------------------------- benefit

    def _as_id_array(self, ids: Iterable[int]) -> np.ndarray:
        arr = np.fromiter(ids, dtype=np.int64)
        return arr

    def min_cost_over(self, ids: Iterable[int]) -> np.ndarray:
        """Per-query minimum edge cost over the given structures
        (``inf`` where none of them answers a query)."""
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return np.full(self.n_queries, INF)
        out = np.full(self.n_queries, INF, dtype=np.float64)
        for sid in arr:
            lo, hi = self._row_ptr[sid], self._row_ptr[sid + 1]
            cols = self._row_cols[lo:hi]
            out[cols] = np.minimum(out[cols], self._row_vals[lo:hi])
        return out

    def is_admissible(self, ids: Iterable[int]) -> bool:
        """True iff every index in ``ids`` has its view in ``ids`` or in
        the committed selection."""
        id_set = set(ids)
        for sid in id_set:
            if not self.is_view[sid]:
                owner = int(self.view_id_of[sid])
                if owner not in id_set and owner not in self._selected:
                    return False
        return True

    # ------------------------------------------------- single benefits (m×1)

    def _use_full_store(self) -> None:
        """Run the cache on the full store again: after a reset or a
        restore, best costs may have risen and a dropped edge may count."""
        self._live = self._full
        self._dead = 0
        self._singles_fresh = False

    def _drop_dead_edges(self) -> None:
        """Compact the live store once at least half its edges are dead.

        An edge is *dead* when its cost is at or above its query's best
        cost: its addend ``f · max(best − c, 0)`` is +0.0 now and stays
        +0.0 until a reset or restore (best costs only fall), and a ±0.0
        addend leaves a sequential sum that starts at +0.0 bitwise
        unchanged, so the cached singles read the same without it.
        Compacting at half keeps a run's compaction work under twice the
        edge count.
        """
        if self._dead and 2 * self._dead >= self._live.row_vals.size:
            self._live = self._live.below(self._best)
            self._dead = 0

    def _eager_singles(self, ids) -> np.ndarray:
        """Per-edge gains summed per structure over the live store; the
        full pass (``ids=None``) also counts the live store's dead edges."""
        live = self._live
        if ids is None:
            contrib = self._best[live.row_cols] - live.row_vals
            self._dead = int(np.count_nonzero(contrib <= 0.0))
            np.maximum(contrib, 0.0, out=contrib)
            contrib *= self.frequencies[live.row_cols]
            return np.bincount(
                _row_ids(live.row_ptr), weights=contrib, minlength=self.n_structures
            )
        return csr_gains(
            live.row_ptr,
            live.row_cols,
            live.row_vals,
            self.frequencies,
            self._best,
            ids,
        )

    def _ensure_singles(self) -> np.ndarray:
        if not self._singles_fresh:
            self._singles = self._eager_singles(None)
            self._pending = np.zeros(self.n_structures, dtype=bool)
            self._singles_fresh = True
            self._drop_dead_edges()
        return self._singles

    def _rescore(self, ids: np.ndarray) -> None:
        """Recompute the cached singles of ``ids`` exactly (clears pending)."""
        if ids.size:
            self._singles[ids] = self._eager_singles(ids)
            self._pending[ids] = False

    def _refresh_singles_after(self, old_best: np.ndarray) -> None:
        """Re-score the structures a stage can pick whose standalone
        benefit may have changed since the best-cost vector was
        ``old_best``; defer the rest.

        A structure is stale only when one of its edges into a *dirty*
        query (best cost dropped) was *beating* the old best cost there:
        an edge with ``cost >= old_best`` contributed exactly zero before
        and (the best only drops) still does, so the cached sum — the
        same addends in the same order — is bitwise unchanged.

        Only views and indexes of selected views can be picked (§5: an
        index is usable only with its view).  A stale index of an
        unselected view is marked *pending* instead, and its cached value
        stays an upper bound on its benefit: each addend
        ``f · max(best − c, 0)`` can only fall as ``best`` falls, and a
        sequential float sum of non-negative addends is monotone in them.
        Pending rows are re-scored here once their view is committed.

        The edges that beat ``old_best`` but not the new best are the
        newly dead ones; counting them here drives the live store's
        compaction (:meth:`_drop_dead_edges`).
        """
        stale = self._pending.copy()
        dirty = np.flatnonzero(self._best < old_best)
        if dirty.size:
            live = self._live
            starts = live.col_ptr[dirty]
            lengths = live.col_ptr[dirty + 1] - starts
            flat = _gather_ranges(starts, lengths)
            costs = live.col_vals[flat]
            beating = costs < np.repeat(old_best[dirty], lengths)
            stale[live.col_rows[flat[beating]]] = True
            still_live = costs < np.repeat(self._best[dirty], lengths)
            self._dead += int(np.count_nonzero(beating)) - int(
                np.count_nonzero(still_live)
            )
            self._drop_dead_edges()
        pickable = self.is_view | self._selected_mask[self.view_id_of]
        self._pending = stale & ~pickable
        self._rescore(np.flatnonzero(stale & pickable))

    def invalidate(self, ids=None) -> None:
        """Drop (or selectively refresh) the maintained single-benefit cache.

        ``ids=None`` discards the whole cache — the next read pays a
        full recompute.  With ``ids``, those rows (pending or not) are
        re-scored in place when the cache is live (no-op otherwise).
        Algorithms normally never need this — :meth:`commit`,
        :meth:`reset` and :meth:`restore` keep the cache consistent — but
        external mutations of engine state should call it.  The live
        store stays: best costs are unchanged, so its dropped edges are
        still dead.
        """
        if ids is None:
            self._singles_fresh = False
        elif self._singles_fresh:
            self._rescore(np.asarray(list(ids), dtype=np.int64))

    def single_benefits(self, ids=None) -> np.ndarray:
        """Benefit of each structure *alone* w.r.t. the committed selection.

        ``ids`` restricts the computation to the given structure ids
        (array-like); ``None`` evaluates all structures.  Missing edges
        contribute zero, as they must.

        Reads the maintained incremental cache and re-scores the pending
        rows it returns, so it always equals a full recompute bitwise.
        """
        singles = self._ensure_singles()
        if ids is None:
            self._rescore(np.flatnonzero(self._pending))
            return singles.copy()
        arr = np.asarray(ids, dtype=np.int64)
        self._rescore(arr[self._pending[arr]])
        return singles[arr]

    def single_benefit_bounds(self) -> np.ndarray:
        """The maintained single-benefit cache as it stands, without a
        copy and without re-scoring pending rows (read-only).

        Exact for every structure a stage can pick — views and indexes of
        selected views.  A pending row (an index of an unselected view)
        holds an upper bound on its benefit; :meth:`single_benefits`
        re-scores it, in place, when asked for it.
        """
        bounds = self._ensure_singles().view()
        bounds.flags.writeable = False
        return bounds

    def best_single(self, ids, space_left: Optional[float] = None):
        """Canonical single-structure stage pick over ``ids``, from the
        maintained cache.

        Scans ``ids`` with the canonical greedy rule (first candidate at a
        strictly better ratio wins, tolerance :data:`RATIO_RTOL`), skipping
        selected structures, inadmissible indexes (owning view not yet
        selected), non-positive benefits and — when ``space_left`` is
        given — candidates that do not fit.  The read does not re-score
        pending rows: they are never admissible here.
        Returns ``(structure_id, benefit, space, ratio)`` or ``None``.
        """
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return None
        benefits = self._ensure_singles()[arr]
        spaces = self.spaces[arr]
        eligible = (benefits > 0.0) & ~self._selected_mask[arr]
        eligible &= self.is_view[arr] | self._selected_mask[self.view_id_of[arr]]
        if space_left is not None:
            eligible &= spaces <= space_left + 1e-9
        if not eligible.any():
            return None
        pos = np.flatnonzero(eligible)
        ratios = benefits[pos] / spaces[pos]
        win = chain_pick(ratios)
        if win is None:
            return None
        p = pos[win]
        return int(arr[p]), float(benefits[p]), float(spaces[p]), float(ratios[win])

    def gains_for(self, ids, base: np.ndarray) -> np.ndarray:
        """Frequency-weighted positive gain of each structure against the
        per-query cost vector ``base`` (one vectorized pass)."""
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        return csr_gains(
            self._row_ptr, self._row_cols, self._row_vals, self.frequencies, base, arr
        )

    # ---------------------------------------------------------- set benefits

    def benefit_of(self, ids: Iterable[int]) -> float:
        """Benefit of the candidate set w.r.t. the committed selection.

        The caller is responsible for admissibility (use
        :meth:`is_admissible`); the value returned is the τ reduction if
        the whole set were committed now.
        """
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self._best, candidate)
        return float(self.frequencies @ (self._best - improved))

    def benefit_per_space(self, ids: Iterable[int]) -> float:
        """Benefit per unit space of the candidate set w.r.t. selection."""
        ids = list(ids)
        space = self.space_of(ids)
        if space <= 0:
            raise ValueError("candidate set must occupy positive space")
        return self.benefit_of(ids) / space

    def commit(self, ids: Iterable[int]) -> float:
        """Materialize the structures; returns the realized benefit.

        Raises ``ValueError`` if an index would be committed without its
        owning view (either previously selected or in the same call).
        Keeps the maintained single-benefit cache consistent by re-scoring
        only the pickable structures touched by dirty queries, plus the
        pending indexes of views committed now.
        """
        ids = list(ids)
        if not self.is_admissible(ids):
            raise ValueError(
                "cannot commit an index before its view: "
                + ", ".join(self.name_of(i) for i in ids)
            )
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self._best, candidate)
        benefit = float(self.frequencies @ (self._best - improved))
        old_best = self._best
        self._best = improved
        self._selected.update(int(i) for i in arr)
        self._selected_mask[arr] = True
        if self._singles_fresh:
            self._refresh_singles_after(old_best)
        return benefit

    # ---------------------------------------------- snapshots (backtracking)

    def snapshot(self) -> tuple:
        """Capture current state; pass to :meth:`restore` to roll back."""
        return self._best.copy(), set(self._selected)

    def restore(self, snapshot: tuple) -> None:
        best, selected = snapshot
        self._best = best.copy()
        self._selected = set(selected)
        self._selected_mask = np.zeros(self.n_structures, dtype=bool)
        if self._selected:
            self._selected_mask[np.fromiter(self._selected, dtype=np.int64)] = True
        self._use_full_store()

    # ------------------------------------------------------------- reporting

    def absolute_benefit(self, ids: Iterable[int]) -> float:
        """Benefit of the set w.r.t. the *empty* selection, B(C, ∅),
        leaving the engine state untouched."""
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self.defaults, candidate)
        return float(self.frequencies @ (self.defaults - improved))

    def max_achievable_benefit(self) -> float:
        """Benefit of materializing everything — an upper bound for any
        selection (computed against default costs)."""
        floor = np.full(self.n_queries, INF, dtype=np.float64)
        np.minimum.at(floor, self._row_cols, self._row_vals)
        improved = np.minimum(self.defaults, floor)
        return float(self.frequencies @ (self.defaults - improved))

    def __repr__(self) -> str:
        return (
            f"BenefitEngine(structures={self.n_structures}, "
            f"queries={self.n_queries}, edges={self.nnz}, "
            f"selected={len(self._selected)}, "
            f"tau={self.tau():g})"
        )
