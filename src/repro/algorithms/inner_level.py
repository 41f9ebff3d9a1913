"""The inner-level greedy algorithm (Algorithm 5.2 of the paper).

Each stage has two phases:

* **Phase 1** — for every unselected view ``v_i``, grow a set ``IG_i``
  starting from ``{v_i}`` by repeatedly adding the index of ``v_i`` with
  maximum benefit per unit space w.r.t. ``M ∪ IG_i`` (the *inner* greedy),
  while ``S(IG_i)`` stays below the total budget ``S``.  The best ``IG_i``
  by benefit per unit space becomes the stage candidate ``C``.
* **Phase 2** — the single unselected index (of an already selected view)
  with maximum benefit per unit space challenges ``C``; the better of the
  two is committed.

Stages repeat while ``S(M) < S``; the final selection uses at most ``2·S``
space (Theorem 5.2) and achieves at least ``1 − 1/e^0.63 ≈ 0.467`` of the
optimal benefit attainable in the space it used, in ``O(k²·m²)`` time.

Two inner-growth rules are provided:

``"space"`` (default, the paper's listing)
    grow ``IG_i`` while ``S(IG_i) < S`` (stopping early once no index adds
    positive benefit, which only improves the candidate's ratio);
``"peak"`` (the paper's prose)
    grow the same way but return the prefix of ``IG_i`` at which benefit
    per unit space is maximal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import (
    FIT_PAPER,
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
    resolve_lazy,
)
from repro.core.benefit import BenefitEngine
from repro.core.selection import SelectionResult

IG_SPACE = "space"
IG_PEAK = "peak"


class InnerLevelGreedy(SelectionAlgorithm):
    """Inner-level greedy selection of views and indexes.

    ``lazy=None`` (default) runs lazy: the maintained single-benefit cache
    supplies an upper bound on every view's inner-greedy ratio (a set's
    benefit/space never exceeds the best of its members' standalone
    ratios), so views that cannot displace the stage incumbent skip the
    inner greedy entirely.  Candidate order
    and tie-break match the eager loop, so selections are identical.
    """

    name = "inner-level greedy"

    def __init__(
        self,
        fit: str = FIT_PAPER,
        ig_rule: str = IG_SPACE,
        lazy: Optional[bool] = None,
    ):
        self.fit = check_fit(fit)
        if ig_rule not in (IG_SPACE, IG_PEAK):
            raise ValueError(f"ig_rule must be 'space' or 'peak', got {ig_rule!r}")
        self.ig_rule = ig_rule
        self.lazy = lazy

    def config(self) -> dict:
        return {
            "class": "InnerLevelGreedy",
            "params": {
                "fit": self.fit,
                "ig_rule": self.ig_rule,
                "lazy": self.lazy,
            },
        }

    def run(
        self,
        graph: GraphLike,
        space: float,
        seed=(),
        context: Optional[RunContext] = None,
    ) -> SelectionResult:
        space = check_space(space)
        engine = as_engine(graph)
        lazy = resolve_lazy(self.lazy)
        tracker = StageTracker(self, engine, space, context)
        try:
            tracker.apply_seed(seed)
            while engine.space_used() < space - SPACE_EPS:
                if tracker.replay_stage() is not None:
                    continue
                candidate = self._best_stage(engine, space, lazy)
                if candidate is None:
                    break
                ids, cand_space = candidate
                tracker.commit_stage(ids, stage_space=cand_space)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    # ------------------------------------------------------------ internals

    def _best_stage(self, engine: BenefitEngine, space: float, lazy: bool):
        """Return ``(ids, space)`` of the stage's winning set, or ``None``."""
        strict = self.fit == FIT_STRICT
        space_left = space - engine.space_used()
        ig_cap = space_left if strict else space
        sink = ChainSink()
        singles = engine.single_benefits(lazy=True) if lazy else None
        view_ids = engine.view_ids()
        self._scan_phase1(
            engine, view_ids, sink, singles, space_left, ig_cap, strict
        )
        self._scan_phase2(engine, view_ids, sink, space_left, strict, lazy)
        if sink.ids is None:
            return None
        return sink.ids, sink.space

    @staticmethod
    def _offer(sink, ids, benefit, cand_space, space_left, strict) -> None:
        """The stage's offer rule: strict fit filter, then the sink's
        chain (the sink already rejects non-positive benefit/space)."""
        if strict and cand_space > space_left + SPACE_EPS:
            return
        sink.offer(ids, benefit, cand_space)

    def _scan_phase1(
        self, engine, view_ids, sink, singles, space_left, ig_cap, strict
    ) -> None:
        """Phase 1 over ``view_ids``: per-view inner greedy.  ``singles``
        is the maintained cache, or ``None`` to disable the lazy prune."""
        best_vec = engine.best_costs
        freq = engine.frequencies
        selected_mask = engine.selected_mask
        for view_id in view_ids:
            view_id = int(view_id)
            if selected_mask[view_id]:
                continue
            if singles is not None and self._view_pruned(
                engine, singles, view_id, selected_mask, sink
            ):
                continue
            ig = self._grow_ig(engine, view_id, best_vec, freq, ig_cap, selected_mask)
            if ig is not None:
                ids, benefit, cand_space = ig
                self._offer(sink, ids, benefit, cand_space, space_left, strict)

    def _scan_phase2(
        self, engine, view_ids, sink, space_left, strict, lazy
    ) -> None:
        """Phase 2 over ``view_ids``: single unselected indexes of
        already-selected views (vectorized benefits)."""
        selected_mask = engine.selected_mask
        phase2 = [
            int(idx)
            for view_id in view_ids
            if selected_mask[int(view_id)]
            for idx in engine.index_ids_of(int(view_id))
            if not selected_mask[int(idx)]
        ]
        if phase2:
            benefits = engine.single_benefits(phase2, lazy=lazy)
            for pos, idx in enumerate(phase2):
                self._offer(
                    sink,
                    (idx,),
                    float(benefits[pos]),
                    float(engine.spaces[idx]),
                    space_left,
                    strict,
                )

    @staticmethod
    def _view_pruned(
        engine,
        singles: np.ndarray,
        view_id: int,
        selected_mask: np.ndarray,
        sink,
    ) -> bool:
        """True when no IG set grown from this view can displace the
        incumbent: a set's benefit/space ratio never exceeds the maximum
        standalone benefit/space ratio of its members (mediant inequality
        plus subadditivity), all of which the maintained cache bounds."""
        ratio_ub = float(singles[view_id]) / float(engine.spaces[view_id])
        idx_ids = engine.index_ids_of(view_id)
        if idx_ids.size:
            idx_ids = idx_ids[~selected_mask[idx_ids]]
        if idx_ids.size:
            idx_ub = float((singles[idx_ids] / engine.spaces[idx_ids]).max())
            ratio_ub = max(ratio_ub, idx_ub)
        if ratio_ub <= 0.0:
            return True  # the grown set's benefit cannot be positive
        if sink.ids is None:
            return False
        return ratio_ub <= sink.prune_ratio

    def _grow_ig(
        self,
        engine: BenefitEngine,
        view_id: int,
        best_vec: np.ndarray,
        freq: np.ndarray,
        ig_cap: float,
        selected_mask: np.ndarray,
    ):
        """Inner greedy for one view: returns ``(ids, benefit, space)`` of
        the grown set (or its peak-ratio prefix), or ``None``."""
        # note: a bare view larger than the growth cap is still offered —
        # Theorem 5.2 assumes no structure exceeds S, and the while-loop
        # below simply adds no indexes in that case.
        view_space = float(engine.spaces[view_id])
        cur_min = engine.minimum_with(best_vec, view_id)
        cur_benefit = float(freq @ (best_vec - cur_min))
        cur_space = view_space
        chosen = [view_id]

        remaining = [
            int(i) for i in engine.index_ids_of(view_id) if not selected_mask[int(i)]
        ]
        history = [(tuple(chosen), cur_benefit, cur_space)]

        while remaining and cur_space < ig_cap - SPACE_EPS:
            # vectorized inner greedy: gain of every remaining index
            # against the growing set's current per-query minimum
            idx_arr = np.asarray(remaining, dtype=np.int64)
            gains = engine.gains_for(idx_arr, cur_min)
            densities = gains / engine.spaces[idx_arr]
            pos = int(np.argmax(densities))
            if gains[pos] <= 0.0:
                break
            best_idx = int(idx_arr[pos])
            best_gain = float(gains[pos])
            best_idx_space = float(engine.spaces[best_idx])
            remaining.remove(best_idx)
            cur_min = engine.minimum_with(cur_min, best_idx)
            cur_benefit += best_gain
            cur_space += best_idx_space
            chosen.append(best_idx)
            history.append((tuple(chosen), cur_benefit, cur_space))

        if self.ig_rule == IG_PEAK:
            best_entry = max(history, key=lambda e: e[1] / e[2])
            ids, benefit, cand_space = best_entry
            return (ids, benefit, cand_space) if benefit > 0 else None
        ids, benefit, cand_space = history[-1]
        return (tuple(ids), benefit, cand_space) if benefit > 0 else None
