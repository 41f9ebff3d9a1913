"""The two-step baseline the paper argues against (Section 2, [MS95]).

Commercial ROLAP practice circa 1996: split the space budget between
summary tables and indexes *a priori*, pick views first (with the [HRU96]
greedy restricted to its share of the space), then pick indexes on the
chosen views (greedily, within the remaining share).

The split fraction is a parameter; the paper's Example 2.1 uses an equal
split and shows the one-step 1-greedy beats it by ~40% because the right
split (about 3/4 to indexes there) cannot be known in advance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import (
    FIT_STRICT,
    SPACE_EPS,
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
from repro.algorithms.hru import HRUGreedy
from repro.core.selection import SelectionResult


class TwoStep(SelectionAlgorithm):
    """Two-step selection: views in ``view_fraction·S``, then indexes.

    Parameters
    ----------
    view_fraction:
        Fraction of the budget reserved for views (default 0.5, the
        "divide equally" strategy of Example 2.1).
    fit:
        Space-fit policy applied to both steps (default strict).
    index_budget_mode:
        ``"fraction"`` (default) gives the index step its fixed
        ``(1 − f)·S`` share — the a-priori split the paper criticizes;
        ``"remaining"`` hands it whatever the view step left unused,
        a mildly smarter variant that still cannot redeem a bad split
        (tests demonstrate both).
    lazy:
        ``None`` (default) and ``True`` run both step loops on the
        maintained single-benefit cache; ``False`` forces eager scans.
        Selections are identical either way.
    """

    def __init__(
        self,
        view_fraction: float = 0.5,
        fit: str = FIT_STRICT,
        index_budget_mode: str = "fraction",
        lazy: Optional[bool] = None,
    ):
        if not 0.0 < view_fraction < 1.0:
            raise ValueError(
                f"view_fraction must be in (0, 1), got {view_fraction}"
            )
        if index_budget_mode not in ("fraction", "remaining"):
            raise ValueError(
                "index_budget_mode must be 'fraction' or 'remaining', "
                f"got {index_budget_mode!r}"
            )
        self.view_fraction = float(view_fraction)
        self.fit = check_fit(fit)
        self.index_budget_mode = index_budget_mode
        self.lazy = lazy
        self.name = f"two-step (views {self.view_fraction:.0%})"

    def config(self) -> dict:
        return {
            "class": "TwoStep",
            "params": {
                "view_fraction": self.view_fraction,
                "fit": self.fit,
                "index_budget_mode": self.index_budget_mode,
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
        view_budget = space * self.view_fraction
        # bind before delegating so the checkpoint names TwoStep (first
        # bind wins); the index loop's stages carry this tracker's scope,
        # distinct from the HRU step's, so resume replays each loop's own
        # stages only
        tracker = StageTracker(self, engine, space, context, scope="TwoStep.index")
        # step 1: [HRU96] greedy over views, within the view share.
        # Running it on the shared engine leaves the chosen views
        # committed, so the index step below starts from that state.
        # The seed (typically the top view) counts against the view
        # share.
        hru = HRUGreedy(fit=self.fit, lazy=lazy)
        try:
            step1 = hru.run(engine, view_budget, seed=seed, context=context)
        except RuntimeStop as stop:
            tracker.adopt(stop.result)
            raise tracker.interrupted(stop)
        tracker.adopt(step1)

        # step 2: greedy single indexes on the selected views, within
        # the index share.
        if self.index_budget_mode == "remaining":
            index_budget = space - engine.space_used()
        else:
            index_budget = space - view_budget
        try:
            self._index_loop(engine, index_budget, lazy, tracker)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    def _index_loop(self, engine, index_budget, lazy, tracker) -> None:
        index_used = 0.0
        strict = self.fit == FIT_STRICT

        # candidate indexes: those of the views picked in step 1, in the
        # deterministic view-then-index order
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
            # one best-single pass over the candidate indexes: same
            # candidate order, filters, and tie-break lazy or eager
            pick = engine.best_single(
                candidate_indexes,
                space_left=space_left if strict else None,
                lazy=lazy,
            )
            if pick is None:
                break
            best_id, best_benefit, best_space, _ratio = pick
            tracker.commit_stage(
                [best_id], stage_space=best_space, stage_benefit=best_benefit
            )
            index_used += best_space
