"""Maintenance-aware greedy selection (the [G97] objective).

The paper optimizes query cost under a space budget; its cited companion
framework [G97] generalizes the objective to *query cost plus update
cost*: every materialized structure must be refreshed when facts arrive,
so a structure's net value is its query benefit minus the maintenance it
induces.

This extension implements a 2-greedy-shaped selection under the
penalized objective

    net(C, M) = B(C, M) − λ · Σ_{s ∈ C} u(s)

where ``u(s)`` is the refresh cost of structure ``s`` per delta batch
(from :func:`repro.engine.maintenance.estimate_refresh_cost`'s model:
``delta_rows + |view|`` for a view, ``|view|`` for an index rebuild) and
``λ`` is the update-to-query rate ratio.  With ``λ = 0`` the algorithm
degenerates to plain 2-greedy, which the tests assert; as ``λ`` grows it
drops the big, hot-to-maintain structures first.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import (
    SPACE_EPS,
    ChainSink,
    GraphLike,
    RunContext,
    RuntimeStop,
    SelectionAlgorithm,
    StageTracker,
    as_engine,
    check_space,
)
from repro.core.benefit import BenefitEngine
from repro.core.selection import SelectionResult


def structure_update_costs(engine, delta_rows: float) -> np.ndarray:
    """Per-structure refresh cost per delta batch, in rows.

    An upper bound on what :func:`repro.engine.maintenance.apply_delta`
    does: a view refresh scans the delta plus the view; an index rebuild
    touches the owning view's rows, and an index whose view gained no
    group is kept.
    """
    if delta_rows < 0:
        raise ValueError("delta_rows must be >= 0")
    costs = np.empty(engine.n_structures, dtype=np.float64)
    for sid in range(engine.n_structures):
        owner_space = float(engine.spaces[int(engine.view_id_of[sid])])
        if engine.is_view[sid]:
            costs[sid] = delta_rows + owner_space
        else:
            costs[sid] = owner_space
    return costs


class MaintenanceAwareGreedy(SelectionAlgorithm):
    """Greedy selection under the query-plus-update objective.

    Parameters
    ----------
    update_weight:
        λ — how many delta batches arrive per unit of query workload.
        ``0`` recovers the plain (2-greedy) behaviour.
    delta_rows:
        Rows per delta batch, for the update-cost model.
    """

    def __init__(
        self,
        update_weight: float = 0.0,
        delta_rows: float = 1000.0,
    ):
        if update_weight < 0:
            raise ValueError("update_weight must be >= 0")
        if delta_rows < 0:
            raise ValueError("delta_rows must be >= 0")
        self.update_weight = float(update_weight)
        self.delta_rows = float(delta_rows)
        self.name = f"maintenance-aware greedy (λ={self.update_weight:g})"

    def config(self) -> dict:
        return {
            "class": "MaintenanceAwareGreedy",
            "params": {
                "update_weight": self.update_weight,
                "delta_rows": self.delta_rows,
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
        update_costs = structure_update_costs(engine, self.delta_rows)
        tracker = StageTracker(self, engine, space, context)
        try:
            tracker.apply_seed(seed)
            while engine.space_used() < space - SPACE_EPS:
                if tracker.replay_stage() is not None:
                    continue
                candidate = self._best_stage(engine, space, update_costs)
                if candidate is None:
                    break
                ids, cand_space = candidate
                tracker.commit_stage(ids, stage_space=cand_space)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        return tracker.finish()

    # ------------------------------------------------------------ internals

    def _best_stage(self, engine: BenefitEngine, space: float, update_costs):
        space_left = space - engine.space_used()
        singles = engine.single_benefits()
        sink = ChainSink()
        self._scan_views(
            engine, engine.view_ids(), sink, space_left, update_costs, singles
        )
        if sink.ids is None:
            return None
        return sink.ids, sink.space

    def _scan_views(
        self, engine, view_ids, sink, space_left, update_costs, singles
    ) -> None:
        """Offer every candidate (with its *net* benefit) rooted at
        ``view_ids`` to ``sink``, in the canonical view-major order."""
        selected = engine.selected_mask

        def offer(ids, benefit):
            cand_space = engine.space_of(ids)
            if cand_space <= 0 or cand_space > space_left + SPACE_EPS:
                return
            net = benefit - self.update_weight * float(
                update_costs[list(ids)].sum()
            )
            sink.offer(tuple(ids), net, cand_space)

        best_vec = engine.best_costs
        for view_id in view_ids:
            view_id = int(view_id)
            if selected[view_id]:
                for idx in engine.index_ids_of(view_id):
                    idx = int(idx)
                    if not selected[idx]:
                        offer([idx], float(singles[idx]))
                continue
            offer([view_id], float(singles[view_id]))
            # 2-greedy shape: the view with its single best index
            base = engine.minimum_with(best_vec, view_id)
            idxs = [
                int(i) for i in engine.index_ids_of(view_id) if not selected[int(i)]
            ]
            if idxs:
                gains = engine.gains_for(np.asarray(idxs, dtype=np.int64), base)
                pos = int(np.argmax(gains))
                offer(
                    [view_id, idxs[pos]],
                    float(singles[view_id]) + float(gains[pos]),
                )
