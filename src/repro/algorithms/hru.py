"""The plain greedy view-selection algorithm of [HRU96] (no indexes).

This is the algorithm the paper builds on: pick, one at a time, the view
with the maximum benefit per unit space with respect to the current
selection, until the space budget is exhausted.  Indexes are ignored
entirely — index edges in the graph play no role.

It is used on its own as a baseline, and as the first step of the
:class:`~repro.algorithms.two_step.TwoStep` strategy the paper argues
against.
"""

from __future__ import annotations

from typing import Optional

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
from repro.core.selection import SelectionResult


class HRUGreedy(SelectionAlgorithm):
    """Greedy selection over views only ([HRU96]).

    ``lazy=None`` (default) reads the incrementally maintained
    single-benefit cache per stage; ``lazy=False`` forces the eager full
    scan.  Both select the same views.
    """

    name = "HRU greedy (views only)"

    def __init__(
        self,
        fit: str = FIT_STRICT,
        lazy: Optional[bool] = None,
    ):
        self.fit = check_fit(fit)
        self.lazy = lazy

    def config(self) -> dict:
        return {
            "class": "HRUGreedy",
            "params": {"fit": self.fit, "lazy": self.lazy},
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
        strict = self.fit == FIT_STRICT
        tracker = StageTracker(self, engine, space, context)
        try:
            tracker.apply_seed(seed)
            self._stage_loop(engine, space, strict, lazy, tracker)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    def _stage_loop(self, engine, space, strict, lazy, tracker) -> None:
        view_ids = engine.view_ids()
        while engine.space_used() < space - SPACE_EPS:
            if tracker.replay_stage() is not None:
                continue
            space_left = space - engine.space_used()
            # one best-single pass over the views: same candidate order,
            # filters, and tie-break on the maintained cache or an eager scan
            pick = engine.best_single(
                view_ids, space_left=space_left if strict else None, lazy=lazy
            )
            if pick is None:
                break
            best_id, best_benefit, best_space, _ratio = pick
            tracker.commit_stage(
                [best_id], stage_space=best_space, stage_benefit=best_benefit
            )
