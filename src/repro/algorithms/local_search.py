"""Local-search refinement of a greedy selection (extension).

The greedy family is provably near-optimal but can leave benefit on the
table when an early pick crowds out a better bundle (Example 5.1's
1-greedy is the extreme case).  :class:`LocalSearchRefiner` takes any
finished selection and hill-climbs with two move kinds until a local
optimum:

* **add** — insert an unselected structure that fits the remaining space
  and has positive marginal benefit;
* **swap** — remove one selected structure (an index, or a view together
  with its selected indexes — removing a view without its indexes would
  be inadmissible) and greedily refill the freed space; keep the result
  only if total benefit strictly improves.

Moves preserve admissibility and the strict space budget.  Every accepted
move strictly increases benefit, and benefit is bounded, so the search
terminates; ``max_rounds`` caps it deterministically anyway.

This is *our* extension (DESIGN.md §7): the paper stops at the greedy
guarantee.  Tests check it never hurts and repairs the Figure 2
1-greedy pathology.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import (
    SPACE_EPS,
    GraphLike,
    RunContext,
    RuntimeStop,
    as_engine,
    check_space,
)
from repro.core.benefit import BenefitEngine
from repro.core.selection import SelectionResult, Stage, make_result
from repro.runtime.checkpoint import CheckpointError, StageRecord

#: Scope tag of local-search move records in checkpoints.  Move records
#: hold human-readable labels, not structure names — they are *not*
#: replayed; resume jumps straight to the checkpointed selection.
MOVE_SCOPE = "move"


class LocalSearchRefiner:
    """Hill-climbing refinement of an existing selection.

    The add-move scan consults the maintained single-benefit cache and
    only evaluates structures whose cached benefit is positive — a
    structure with zero cached benefit has exactly zero marginal gain,
    so the skip never changes a pick.

    Parameters
    ----------
    max_rounds:
        Maximum improvement rounds (each round scans all moves once).
    """

    name = "local search"

    def __init__(self, max_rounds: int = 20):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = int(max_rounds)

    def config(self) -> dict:
        return {
            "class": "LocalSearchRefiner",
            "params": {"max_rounds": self.max_rounds},
        }

    def refine(
        self,
        graph: GraphLike,
        space: float,
        selection: Sequence[str],
        protected: Sequence[str] = (),
        context: Optional[RunContext] = None,
    ) -> SelectionResult:
        """Improve ``selection`` within ``space``; returns a new result.

        ``protected`` names structures that must stay selected (e.g. the
        top view).  The input selection must be admissible and fit.

        With a ``context``, the search checkpoints at *round* boundaries
        (after each improving round) — mid-round resume would reorder
        moves, so resume restores the checkpointed set and benefit and
        continues from the next round, which is bit-identical to the
        uninterrupted run (each round is a pure function of the set and
        the running benefit).
        """
        space = check_space(space)
        engine = as_engine(graph)
        current: Set[int] = {engine.structure_id(name) for name in selection}
        protected_ids = {engine.structure_id(name) for name in protected}
        missing = protected_ids - current
        if missing:
            raise ValueError(
                "protected structures must be part of the selection: "
                + ", ".join(engine.name_of(i) for i in missing)
            )
        if not engine.is_admissible(current):
            raise ValueError("input selection is not admissible")
        if engine.space_of(current) > space + SPACE_EPS:
            raise ValueError("input selection exceeds the space budget")

        if context is not None:
            context.bind(self, engine, space)
        protected_names = sorted(engine.name_of(i) for i in protected_ids)
        moves: List[Stage] = []
        start_round = 0
        resume = context.resume_checkpoint if context is not None else None
        if resume is not None:
            if resume.extra.get("protected", []) != protected_names:
                raise CheckpointError(
                    f"checkpoint protected set {resume.extra.get('protected')} "
                    f"differs from this run's {protected_names}"
                )
            # jump straight to the checkpointed set; past moves come from
            # the records (labels only — moves are not replayed), and the
            # running benefit from the extra block (JSON round-trips
            # floats exactly, so the continuation is bit-identical)
            for record in resume.stages:
                context.replay_next(record.scope)
                context.record_stage(record)
                moves.append(
                    Stage(
                        structures=tuple(record.structures),
                        benefit=record.benefit,
                        space=record.space,
                        tau_after=record.tau_after,
                    )
                )
            current = {engine.structure_id(name) for name in resume.selected}
            start_round = resume.stage_counter
            context.stage_counter = start_round
            best_benefit = float(resume.extra["benefit"])
        else:
            best_benefit = self._benefit(engine, current)

        try:
            for _round in range(start_round, self.max_rounds):
                improved = False

                candidate = self._best_add(engine, current, space)
                if candidate is not None:
                    added, gain = candidate
                    current.add(added)
                    best_benefit += gain
                    move = Stage(
                        structures=(f"+{engine.name_of(added)}",),
                        benefit=gain,
                        space=float(engine.spaces[added]),
                        tau_after=self._tau(engine, current),
                    )
                    moves.append(move)
                    self._record_move(context, move)
                    improved = True

                swap = self._best_swap(
                    engine, current, space, best_benefit, protected_ids
                )
                if swap is not None:
                    removed, added, new_benefit = swap
                    gain = new_benefit - best_benefit
                    current -= removed
                    current |= added
                    best_benefit = new_benefit
                    label = (
                        "swap -{"
                        + ", ".join(sorted(engine.name_of(i) for i in removed))
                        + "} +{"
                        + ", ".join(sorted(engine.name_of(i) for i in added))
                        + "}"
                    )
                    move = Stage(
                        structures=(label,),
                        benefit=gain,
                        space=0.0,
                        tau_after=self._tau(engine, current),
                    )
                    moves.append(move)
                    self._record_move(context, move)
                    improved = True

                if not improved:
                    break
                if context is not None:
                    ordered = self._commit_current(engine, current)
                    context.stage_boundary(
                        engine,
                        selected=[engine.name_of(i) for i in ordered],
                        extra={
                            "benefit": best_benefit,
                            "protected": protected_names,
                        },
                    )
        except RuntimeStop as stop:
            stop.result = self._finish(
                engine, current, moves, space,
                interrupted=True, stop_reason=stop.reason,
            )
            raise

        return self._finish(engine, current, moves, space)

    # ------------------------------------------------------------ helpers

    def _commit_current(
        self, engine: BenefitEngine, current: Set[int]
    ) -> List[int]:
        """Reset the engine to exactly ``current`` committed; return the
        deterministic commit order."""
        engine.reset()
        ordered = self._view_first_order(engine, current)
        engine.commit(ordered)
        return ordered

    def _finish(
        self,
        engine: BenefitEngine,
        current: Set[int],
        moves: List[Stage],
        space: float,
        interrupted: bool = False,
        stop_reason: Optional[str] = None,
    ) -> SelectionResult:
        ordered = self._commit_current(engine, current)
        picked = [engine.name_of(i) for i in ordered]
        return make_result(
            self.name, engine, tuple(moves), space, picked,
            interrupted=interrupted, stop_reason=stop_reason,
        )

    @staticmethod
    def _record_move(context: Optional[RunContext], move: Stage) -> None:
        if context is None:
            return
        context.record_stage(
            StageRecord(
                scope=MOVE_SCOPE,
                structures=tuple(move.structures),
                benefit=move.benefit,
                space=move.space,
                tau_after=move.tau_after,
            )
        )

    @staticmethod
    def _view_first_order(engine: BenefitEngine, ids: Set[int]) -> List[int]:
        views = sorted(i for i in ids if engine.is_view[i])
        indexes = sorted(i for i in ids if not engine.is_view[i])
        return views + indexes

    def _benefit(self, engine: BenefitEngine, ids: Set[int]) -> float:
        engine.reset()
        if not ids:
            return 0.0
        return engine.commit(self._view_first_order(engine, ids))

    def _tau(self, engine: BenefitEngine, ids: Set[int]) -> float:
        engine.reset()
        engine.commit(self._view_first_order(engine, ids))
        return engine.tau()

    def _best_add(
        self, engine: BenefitEngine, current: Set[int], space: float
    ) -> Optional[Tuple[int, float]]:
        """Best single addition that fits; None if nothing helps."""
        engine.reset()
        engine.commit(self._view_first_order(engine, current))
        space_left = space - engine.space_used()
        # a structure whose maintained single benefit is zero has exactly
        # zero marginal gain (the cached value is a sum of the same
        # nonnegative per-query terms), so skipping it cannot change the
        # scan's outcome; surviving candidates still use benefit_of.
        singles = engine.single_benefits()
        best: Optional[Tuple[int, float]] = None
        for sid in range(engine.n_structures):
            if sid in current:
                continue
            if singles[sid] <= 0.0:
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

    def _best_swap(
        self,
        engine: BenefitEngine,
        current: Set[int],
        space: float,
        current_benefit: float,
        protected: Set[int],
    ) -> Optional[Tuple[Set[int], Set[int], float]]:
        """Best remove-and-refill move that strictly improves benefit."""
        best: Optional[Tuple[Set[int], Set[int], float]] = None
        for sid in sorted(current):
            if sid in protected:
                continue
            removal = {sid}
            if engine.is_view[sid]:
                # a view leaves with all its selected indexes
                removal |= {
                    int(i) for i in engine.index_ids_of(sid) if int(i) in current
                }
                if removal & protected:
                    continue
            remainder = current - removal
            refilled, benefit = self._greedy_fill(engine, remainder, space)
            if benefit > current_benefit * (1 + 1e-12) and benefit > current_benefit + 1e-9:
                if best is None or benefit > best[2]:
                    best = (removal, refilled - remainder, benefit)
        return best

    def _greedy_fill(
        self, engine: BenefitEngine, base: Set[int], space: float
    ) -> Tuple[Set[int], float]:
        """Refill the freed space with a strict 2-greedy pass on top of
        ``base``.

        Using r = 2 (not 1) matters: a removed structure's space may be
        best spent on a view whose value lives in its indexes, which a
        1-greedy refill could never see — the very pathology the paper's
        Section 1 describes.
        """
        from repro.algorithms.rgreedy import RGreedy  # local: avoid cycle

        seed_names = [
            engine.name_of(i) for i in self._view_first_order(engine, base)
        ]
        result = RGreedy(2, fit="strict").run(engine, space, seed=seed_names)
        selection = {engine.structure_id(name) for name in result.selected}
        return selection, result.benefit
