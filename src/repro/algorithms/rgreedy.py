"""The r-greedy algorithm (Algorithm 5.1 of the paper).

The algorithm runs in stages.  At each stage it considers every candidate
set ``C`` of at most ``r`` structures of one of two shapes:

* an unselected view together with up to ``r − 1`` of its indexes, or
* a single index whose view was selected at an earlier stage,

and commits the set with the maximum benefit per unit space with respect to
the current selection.  With ``r = 1`` this degenerates to picking one
structure at a time (and therefore can never see the value locked inside a
view's indexes — the failure mode motivating the paper).

Performance guarantee (Theorem 5.1, unit-space structures): the selection
uses at most ``S + r − 1`` units and achieves at least
``1 − e^−(r−1)/r`` of the optimal benefit attainable in the space it used.

The running time is ``O(k · m^r)`` for ``m`` structures and ``k`` stages.
A stage offers its candidates in one canonical view-major order, and
runs of single candidates (bare views, and unselected indexes of selected
views) between two bundle roots go to the incumbent chain as one array
step (:func:`offer_singles`); Python runs once per unselected view that
can root a bundle.  Two layers of pruning keep moderate-to-large
dimensions practical without changing the result:

* the inner subset search prunes with a submodularity-based upper bound
  (sound: individual index gains computed against the stage's base state
  dominate any later marginal gain);
* per-structure benefits come from the engine's incrementally
  maintained cache instead of a full re-scan, and a whole view's index
  subtree is skipped when an upper bound on any bundle ratio cannot
  displace the stage incumbent.  The bound is tried first on the cached
  values, where the indexes of an unselected view may be *pending* upper
  bounds (see :mod:`repro.core.benefit`); only a subtree they fail to
  prune has its pending indexes re-scored, then the exact bound and the
  subset search run.  Candidates are still offered in the canonical
  order with the same tie-break rule, so the stages equal those of an
  unpruned full-rescan loop (the tests keep one as the reference).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import (
    FIT_STRICT,
    SPACE_EPS,
    ChainSink,
    GraphLike,
    RunContext,
    RuntimeStop,
    SelectionAlgorithm,
    StageTracker,
    as_engine,
    check_fit,
    check_space,
)
from repro.core.benefit import BenefitEngine, chain_pick
from repro.core.selection import SelectionResult


def offer_singles(
    best: ChainSink, ids: np.ndarray, benefits: np.ndarray, spaces: np.ndarray
) -> None:
    """Offer ``(id,)`` for each id in ``ids``, in order, to ``best``.

    One vectorized chain step that continues from ``best``'s incumbent:
    the same outcome as one ``best.offer((id,), benefits[id], spaces[id])``
    per entry (spaces are positive).
    """
    values = benefits[ids]
    keep = values > 0.0
    ids, values = ids[keep], values[keep]
    sizes = spaces[ids]
    ratios = values / sizes
    win = chain_pick(ratios, None if best.ids is None else best.ratio)
    if win is not None:
        best.offer((int(ids[win]),), float(values[win]), float(sizes[win]))


class RGreedy(SelectionAlgorithm):
    """r-greedy selection of views and indexes.

    Parameters
    ----------
    r:
        Maximum number of structures committed per stage (``r >= 1``).
    fit:
        ``"paper"`` or ``"strict"`` space semantics (see
        :mod:`repro.algorithms.base`).
    """

    def __init__(self, r: int = 1, fit: str = FIT_STRICT):
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        self.r = int(r)
        self.fit = check_fit(fit)
        self.name = f"{self.r}-greedy"

    def config(self) -> dict:
        return {"class": "RGreedy", "params": {"r": self.r, "fit": self.fit}}

    def run(
        self,
        graph: GraphLike,
        space: float,
        seed=(),
        context: Optional[RunContext] = None,
    ) -> SelectionResult:
        space = check_space(space)
        engine = as_engine(graph)
        tracker = StageTracker(self, engine, space, context)
        try:
            tracker.apply_seed(seed)
            while engine.space_used() < space - SPACE_EPS:
                if tracker.replay_stage() is not None:
                    continue
                candidate = self._best_stage(engine, space)
                if candidate.ids is None:
                    break
                tracker.commit_stage(candidate.ids, stage_space=candidate.space)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    # ------------------------------------------------------------ internals

    def _best_stage(self, engine: BenefitEngine, space: float) -> ChainSink:
        best = ChainSink()
        space_left = space - engine.space_used()
        strict = self.fit == FIT_STRICT
        order = engine.stage_candidates()

        if self.r < 2:
            # pure single-structure stage: one pass over the maintained
            # cache over the static view-major candidate order; the
            # selected/admissible filters inside best_single leave exactly
            # the single candidates below, in the same order
            pick = engine.best_single(order, space_left if strict else None)
            if pick is not None:
                sid, benefit, sid_space, _ratio = pick
                best.offer((sid,), benefit, sid_space)
            return best

        # every structure's standalone benefit, for bare views and single
        # indexes and as the subtree bound: the maintained cache, whose
        # pending rows (indexes of unselected views) are upper bounds
        # until a bundle root re-scores them
        singles = engine.single_benefit_bounds()
        # the single candidates, in the canonical view-major order:
        # unselected views and unselected indexes of selected views
        selected = engine.selected_mask
        is_view = engine.is_view[order]
        single = ~selected[order] & (is_view | selected[engine.view_id_of[order]])
        if strict:
            single &= engine.spaces[order] <= space_left + SPACE_EPS
        # each offered view roots bundles, offered right after it; the
        # singles between two roots go to the sink as one array run
        roots = np.flatnonzero(single & is_view).tolist()
        start = 0
        for pos in roots:
            view_id = int(order[pos])
            idx_ids = engine.index_ids_of(view_id)
            unselected_idx = idx_ids[~selected[idx_ids]]
            if unselected_idx.size == 0:
                continue
            view_benefit = float(singles[view_id])
            view_space = float(engine.spaces[view_id])

            def pruned(idx_singles: np.ndarray) -> bool:
                return self._subtree_pruned(
                    engine, best, view_benefit, view_space,
                    unselected_idx, idx_singles, space_left, strict,
                )

            idx_singles = singles[unselected_idx]
            # offering the run first can only raise the incumbent, so a
            # subtree the cached bounds prune now stays pruned after it
            if pruned(idx_singles):
                continue
            offer_singles(best, order[start : pos + 1][single[start : pos + 1]],
                          singles, engine.spaces)
            start = pos + 1
            if pruned(idx_singles):
                continue
            # re-score the view's pending indexes for the exact prune
            idx_singles = engine.single_benefits(unselected_idx)
            if pruned(idx_singles):
                continue
            self._search_index_subsets(
                engine,
                best,
                view_id,
                view_space,
                view_benefit,
                engine.minimum_with(engine.best_costs, view_id),
                engine.frequencies,
                space_left,
                strict,
                unselected_idx,
                idx_singles,
            )
        offer_singles(best, order[start:][single[start:]], singles, engine.spaces)
        return best

    def _subtree_pruned(
        self,
        engine,
        best,
        view_benefit: float,
        view_space: float,
        unselected_idx: np.ndarray,
        idx_singles: np.ndarray,
        space_left: float,
        strict: bool,
    ) -> bool:
        """True when no ``{view} ∪ T`` bundle can displace the incumbent.

        Upper bound from the index singles (exact or cached upper bounds):
        a ``k``-index bundle's benefit is at most ``view_benefit + (top k
        index singles)`` (subadditivity) and its space at least
        ``view_space + k · min index space``, so if every such ratio fails
        the incumbent's ``(1 + 1e-12)`` displacement threshold the whole
        subtree is a no-op.  Exact — a skipped subtree could never have
        changed the stage outcome.
        """
        positive = idx_singles > 0.0
        if not positive.any():
            # every index gain against the view baseline would be <= 0,
            # so the subset search would find nothing either
            return True
        if best.ids is None:
            return False
        idx_singles = np.sort(idx_singles[positive])[::-1]
        min_space = float(engine.spaces[unselected_idx[positive]].min())
        threshold = best.prune_ratio
        max_extra = min(self.r - 1, idx_singles.size)
        cum_benefit = view_benefit
        for k in range(1, max_extra + 1):
            cum_benefit += float(idx_singles[k - 1])
            bundle_space = view_space + k * min_space
            if strict and bundle_space > space_left + SPACE_EPS:
                break  # larger bundles only need more space
            if cum_benefit > threshold * bundle_space:
                return False
        return True

    def _search_index_subsets(
        self,
        engine,
        best,
        view_id: int,
        view_space: float,
        view_benefit: float,
        base: np.ndarray,
        freq: np.ndarray,
        space_left: float,
        strict: bool,
        unselected_idx: np.ndarray,
        idx_singles: np.ndarray,
    ) -> None:
        """Consider {view} ∪ T for index subsets T, |T| ≤ r − 1.

        Enumerates subsets depth-first, carrying the partial per-query
        minimum.  Branches are pruned with an optimistic bound: the gain of
        any deeper subset is at most the sum of the largest individual
        index gains (computed once against ``base``), because per-query
        minima only shrink as indexes are added.
        """
        # an index with zero standalone benefit has zero gain against the
        # (even lower) view baseline — drop it before touching its row
        candidates = unselected_idx[idx_singles > 0.0]
        if candidates.size == 0:
            return
        # individual gains over the view-scan baseline: one batched pass
        gain_values = engine.gains_for(candidates, base)
        gains = [
            (float(g), int(idx))
            for g, idx in zip(gain_values, candidates.tolist())
            if g > 0.0
        ]
        if not gains:
            return
        gains.sort(key=lambda pair: -pair[0])
        idx_order = [idx for __, idx in gains]
        gain_by_rank = [g for g, __ in gains]
        idx_spaces = engine.spaces[np.array(idx_order, dtype=np.int64)]
        min_idx_space = float(idx_spaces.min())
        max_extra = self.r - 1

        # suffix_top[t][k] = sum of the k largest gains among ranks >= t;
        # since gains are sorted descending this is just the next-k prefix.
        def suffix_top(t: int, k: int) -> float:
            return sum(gain_by_rank[t : t + k])

        def prune(t: int, chosen: int, cur_benefit: float, cur_space: float) -> bool:
            """True if no extension from rank t can beat the best ratio."""
            if best.ids is None:
                return False
            remaining = min(max_extra - chosen, len(idx_order) - t)
            for extra in range(0, remaining + 1):
                ub_benefit = cur_benefit + suffix_top(t, extra)
                ub_space = cur_space + extra * min_idx_space
                if extra == 0 and chosen == 0:
                    continue  # the bare view was already offered
                if best.can_displace(ub_benefit, ub_space):
                    return False
            return True

        def search(t: int, chosen_ids: list, cur_min: np.ndarray, cur_benefit: float,
                   cur_space: float) -> None:
            if len(chosen_ids) >= max_extra:
                return
            for rank in range(t, len(idx_order)):
                if prune(rank, len(chosen_ids), cur_benefit, cur_space):
                    return
                idx = idx_order[rank]
                idx_space = float(engine.spaces[idx])
                new_space = cur_space + idx_space
                if strict and new_space > space_left + SPACE_EPS:
                    continue
                new_min = engine.minimum_with(cur_min, idx)
                new_benefit = view_benefit + float(freq @ (base - new_min))
                chosen_ids.append(idx)
                best.offer((view_id, *chosen_ids), new_benefit, new_space)
                search(rank + 1, chosen_ids, new_min, new_benefit, new_space)
                chosen_ids.pop()

        search(0, [], base, view_benefit, view_space)
