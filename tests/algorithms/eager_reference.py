"""The full-rescan stage loops, kept as the reference for the one stage
loop each selection algorithm runs.

The algorithms used to carry a ``lazy=False`` switch that ran these
loops instead of the maintained-cache loop with its exact prunes.  Each
class here subclasses a production algorithm and overrides only its
stage-selection method with that former full-rescan body:

* every single benefit is a full recompute through the public
  ``engine.gains_for(ids, engine.best_costs)`` (:func:`full_singles`) —
  no read of the engine's maintained cache;
* none of the exact prunes: no r-greedy subtree prune, no inner-level
  view prune, no local-search zero-single skip.

``StageTracker``, seeding and checkpoint replay stay the production
code, so comparing a production run with its reference (``==`` on
selections, benefits, τ and every stage) checks the stage loop alone.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    HRUGreedy,
    InnerLevelGreedy,
    LocalSearchRefiner,
    RGreedy,
    TwoStep,
)
from repro.algorithms.base import (
    FIT_STRICT,
    SPACE_EPS,
    ChainSink,
    RuntimeStop,
    StageTracker,
    as_engine,
    check_space,
)
from repro.algorithms.rgreedy import offer_singles
from repro.core.benefit import BenefitEngine, chain_pick


def full_singles(engine: BenefitEngine, ids=None) -> np.ndarray:
    """Standalone benefit of each structure in ``ids`` (default: all),
    recomputed from the edges against the current best costs."""
    if ids is None:
        ids = np.arange(engine.n_structures)
    return engine.gains_for(ids, engine.best_costs)


def eager_best_single(engine: BenefitEngine, ids, space_left=None):
    """``BenefitEngine.best_single`` on recomputed benefits: the same
    filters and canonical chain, ``(id, benefit, space, ratio)`` or
    ``None``."""
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return None
    benefits = full_singles(engine, arr)
    spaces = engine.spaces[arr]
    selected = engine.selected_mask
    eligible = (benefits > 0.0) & ~selected[arr]
    eligible &= engine.is_view[arr] | selected[engine.view_id_of[arr]]
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


class EagerRGreedy(RGreedy):
    """r-greedy whose stage offers every candidate, no subtree pruned."""

    def _best_stage(self, engine: BenefitEngine, space: float) -> ChainSink:
        best = ChainSink()
        space_left = space - engine.space_used()
        strict = self.fit == FIT_STRICT
        order = engine.stage_candidates()
        singles = full_singles(engine)
        # the single candidates, in the canonical view-major order:
        # unselected views and unselected indexes of selected views
        selected = engine.selected_mask
        is_view = engine.is_view[order]
        single = ~selected[order] & (is_view | selected[engine.view_id_of[order]])
        if strict:
            single &= engine.spaces[order] <= space_left + SPACE_EPS
        # each offered view roots bundles, offered right after it
        roots = np.flatnonzero(single & is_view).tolist() if self.r >= 2 else []
        start = 0
        for pos in roots:
            view_id = int(order[pos])
            idx_ids = engine.index_ids_of(view_id)
            unselected_idx = idx_ids[~selected[idx_ids]]
            if unselected_idx.size == 0:
                continue
            offer_singles(best, order[start : pos + 1][single[start : pos + 1]],
                          singles, engine.spaces)
            start = pos + 1
            self._search_index_subsets(
                engine,
                best,
                view_id,
                float(engine.spaces[view_id]),
                float(singles[view_id]),
                engine.minimum_with(engine.best_costs, view_id),
                engine.frequencies,
                space_left,
                strict,
                unselected_idx,
                singles[unselected_idx],
            )
        offer_singles(best, order[start:][single[start:]], singles, engine.spaces)
        return best


class EagerHRUGreedy(HRUGreedy):
    """HRU greedy whose stage rescans every view."""

    def _stage_loop(self, engine, space, strict, tracker) -> None:
        view_ids = engine.view_ids()
        while engine.space_used() < space - SPACE_EPS:
            if tracker.replay_stage() is not None:
                continue
            space_left = space - engine.space_used()
            pick = eager_best_single(
                engine, view_ids, space_left if strict else None
            )
            if pick is None:
                break
            best_id, best_benefit, best_space, _ratio = pick
            tracker.commit_stage(
                [best_id], stage_space=best_space, stage_benefit=best_benefit
            )


class EagerTwoStep(TwoStep):
    """Two-step whose view step is :class:`EagerHRUGreedy` and whose
    index step rescans every candidate index."""

    def run(self, graph, space, seed=(), context=None):
        space = check_space(space)
        engine = as_engine(graph)
        view_budget = space * self.view_fraction
        tracker = StageTracker(self, engine, space, context, scope="TwoStep.index")
        hru = EagerHRUGreedy(fit=self.fit)
        try:
            step1 = hru.run(engine, view_budget, seed=seed, context=context)
        except RuntimeStop as stop:
            tracker.adopt(stop.result)
            raise tracker.interrupted(stop)
        tracker.adopt(step1)
        if self.index_budget_mode == "remaining":
            index_budget = space - engine.space_used()
        else:
            index_budget = space - view_budget
        try:
            self._index_loop(engine, index_budget, tracker)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    def _index_loop(self, engine, index_budget, tracker) -> None:
        index_used = 0.0
        strict = self.fit == FIT_STRICT
        candidate_indexes = np.asarray(
            [
                int(idx)
                for view_id in engine.view_ids()
                if engine.is_selected(int(view_id))
                for idx in engine.index_ids_of(int(view_id))
            ],
            dtype=np.int64,
        )
        while candidate_indexes.size and index_used < index_budget - SPACE_EPS:
            replayed = tracker.replay_stage()
            if replayed is not None:
                index_used += replayed.space
                continue
            space_left = index_budget - index_used
            pick = eager_best_single(
                engine, candidate_indexes, space_left if strict else None
            )
            if pick is None:
                break
            best_id, best_benefit, best_space, _ratio = pick
            tracker.commit_stage(
                [best_id], stage_space=best_space, stage_benefit=best_benefit
            )
            index_used += best_space


class EagerInnerLevelGreedy(InnerLevelGreedy):
    """Inner-level greedy that grows every unselected view's set."""

    def _best_stage(self, engine: BenefitEngine, space: float):
        strict = self.fit == FIT_STRICT
        space_left = space - engine.space_used()
        ig_cap = space_left if strict else space
        sink = ChainSink()
        best_vec = engine.best_costs
        selected_mask = engine.selected_mask
        view_ids = engine.view_ids()
        # phase 1: the inner greedy of every unselected view
        for view_id in view_ids:
            view_id = int(view_id)
            if selected_mask[view_id]:
                continue
            ig = self._grow_ig(
                engine, view_id, best_vec, engine.frequencies, ig_cap, selected_mask
            )
            if ig is not None:
                ids, benefit, cand_space = ig
                self._offer(sink, ids, benefit, cand_space, space_left, strict)
        # phase 2: single unselected indexes of selected views
        phase2 = [
            int(idx)
            for view_id in view_ids
            if selected_mask[int(view_id)]
            for idx in engine.index_ids_of(int(view_id))
            if not selected_mask[int(idx)]
        ]
        if phase2:
            benefits = full_singles(engine, phase2)
            for pos, idx in enumerate(phase2):
                self._offer(
                    sink,
                    (idx,),
                    float(benefits[pos]),
                    float(engine.spaces[idx]),
                    space_left,
                    strict,
                )
        if sink.ids is None:
            return None
        return sink.ids, sink.space


class EagerLocalSearchRefiner(LocalSearchRefiner):
    """Local search whose add-move scan evaluates every structure.

    The swap moves' refill (``_greedy_fill``) is the production 2-greedy,
    as it always was.
    """

    def _best_add(self, engine, current, space):
        engine.reset()
        engine.commit(self._view_first_order(engine, current))
        space_left = space - engine.space_used()
        best = None
        for sid in range(engine.n_structures):
            if sid in current:
                continue
            if float(engine.spaces[sid]) > space_left + SPACE_EPS:
                continue
            if not engine.is_view[sid] and int(engine.view_id_of[sid]) not in current:
                continue
            gain = engine.benefit_of([sid])
            if gain <= 0:
                continue
            if best is None or gain > best[1]:
                best = (sid, gain)
        return best


class EagerReadEngine(BenefitEngine):
    """An engine whose :meth:`single_benefits` always recomputes — the
    reference for algorithms that read it without a prune of their own
    (maintenance-aware greedy)."""

    def single_benefits(self, ids=None):
        return full_singles(self, ids)


REFERENCES = {
    RGreedy: EagerRGreedy,
    HRUGreedy: EagerHRUGreedy,
    TwoStep: EagerTwoStep,
    InnerLevelGreedy: EagerInnerLevelGreedy,
    LocalSearchRefiner: EagerLocalSearchRefiner,
}


def reference_of(algorithm):
    """The reference twin of a production algorithm, built from its
    checkpoint config (so it runs with the same parameters)."""
    return REFERENCES[type(algorithm)](**algorithm.config()["params"])
