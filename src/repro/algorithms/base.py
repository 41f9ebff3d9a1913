"""Common machinery for selection algorithms.

All algorithms consume a :class:`~repro.core.qvgraph.QueryViewGraph` (or a
pre-compiled :class:`~repro.core.benefit.BenefitEngine`, which avoids paying
compilation repeatedly in parameter sweeps) and a space budget ``S``, and
produce a :class:`~repro.core.selection.SelectionResult`.

Two space-fit policies are supported, selected by the ``fit`` parameter:

``"paper"``
    The paper's semantics: keep picking while the space already used is
    below ``S``.  The final pick may overshoot; Theorem 5.1 bounds the
    overshoot by ``r − 1`` structures for r-greedy (unit spaces) and
    Theorem 5.2 by ``2·S`` total for inner-level greedy.

``"strict"``
    Practical semantics: only candidate sets that fit in the remaining
    budget are considered; the selection never exceeds ``S``.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Union

from repro.core.benefit import RATIO_RTOL, BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.core.selection import SelectionResult, Stage, make_result
from repro.runtime.checkpoint import CheckpointError, StageRecord
from repro.runtime.context import SEED_SCOPE, RunContext, RuntimeStop

GraphLike = Union[QueryViewGraph, BenefitEngine]

FIT_PAPER = "paper"
FIT_STRICT = "strict"
_FITS = (FIT_PAPER, FIT_STRICT)

#: Tolerance used in floating-point space-fit comparisons.
SPACE_EPS = 1e-9


def as_engine(graph: GraphLike) -> BenefitEngine:
    """Return a freshly reset engine for the graph (or the engine itself)."""
    if isinstance(graph, BenefitEngine):
        graph.reset()
        return graph
    if isinstance(graph, QueryViewGraph):
        return BenefitEngine(graph)
    raise TypeError(
        f"expected QueryViewGraph or BenefitEngine, got {type(graph).__name__}"
    )


def check_fit(fit: str) -> str:
    if fit not in _FITS:
        raise ValueError(f"fit must be one of {_FITS}, got {fit!r}")
    return fit


def check_space(space: float) -> float:
    space = float(space)
    if not math.isfinite(space):
        raise ValueError(f"space budget must be finite, got {space}")
    if space <= 0:
        raise ValueError(f"space budget must be positive, got {space}")
    return space


def apply_seed(engine: BenefitEngine, seed) -> list:
    """Commit the seed structures (by name) and return their ids.

    The *seed* is the set of structures materialized unconditionally
    before the algorithm runs — the paper's Example 2.1 (following
    [HRU96]) always materializes the top view ``psc``, since the data
    cube's base table cannot be computed from anything else.  Seed space
    counts against the budget.
    """
    ids = [engine.structure_id(name) for name in seed]
    if ids:
        engine.commit(ids)
    return ids


class ChainSink:
    """The canonical greedy incumbent chain.

    Stage scans offer candidates ``(ids, benefit, space)`` in a
    deterministic order; the incumbent is displaced only by a ratio
    strictly greater than ``incumbent · (1 + RATIO_RTOL)``, so the first
    candidate found at a strictly better ratio wins.  Also exposes the
    pruning interface the subset searches use (:attr:`prune_ratio`,
    :meth:`can_displace`).
    """

    __slots__ = ("ratio", "benefit", "space", "ids")

    def __init__(self) -> None:
        self.ratio = 0.0
        self.benefit = 0.0
        self.space = 0.0
        self.ids: Optional[tuple] = None

    def offer(self, ids: tuple, benefit: float, space: float) -> None:
        if benefit <= 0.0 or space <= 0.0:
            return
        ratio = benefit / space
        if self.ids is None or ratio > self.ratio * (1 + RATIO_RTOL):
            self.ratio = ratio
            self.benefit = benefit
            self.space = space
            self.ids = ids

    @property
    def prune_ratio(self) -> float:
        """Ratios at or below this provably cannot displace the incumbent."""
        return self.ratio * (1 + RATIO_RTOL)

    def can_displace(self, ub_benefit: float, ub_space: float) -> bool:
        """Whether a candidate bounded by ``ub_benefit / ub_space`` could
        still displace the incumbent (the subset-search prune test)."""
        return ub_benefit > self.ratio * ub_space * (1 + RATIO_RTOL)


class StageTracker:
    """Stage bookkeeping shared by the selection algorithms, bridging the
    optional :class:`~repro.runtime.context.RunContext`.

    Tracks the stages and pick order of one run, and — when a context is
    present — records every committed stage for checkpointing, enforces
    the context's budgets at each stage boundary, and replays recorded
    stages on resume (cheap commits; the expensive stage searches are
    skipped).  With ``context=None`` it is plain bookkeeping with zero
    overhead beyond list appends.
    """

    #: Relative tolerance when validating a replayed stage's benefit
    #: against the checkpoint record (guards corrupted checkpoints; the
    #: engine replay itself is exact).
    REPLAY_RTOL = 1e-9

    def __init__(
        self,
        algorithm: "SelectionAlgorithm",
        engine: BenefitEngine,
        space: float,
        context: Optional[RunContext] = None,
        scope: Optional[str] = None,
    ):
        self.algorithm = algorithm
        self.engine = engine
        self.space = space
        self.context = context
        self.scope = scope if scope is not None else type(algorithm).__name__
        self.stages: list = []
        self.picked: list = []
        # running space total, mirrored into each checkpoint so the
        # boundary need not re-sum the engine's selection every stage
        self._space_total = float(engine.space_used())
        if context is not None:
            context.bind(algorithm, engine, space)

    # ---------------------------------------------------------------- seed

    def apply_seed(self, seed: Sequence[str]) -> None:
        """Commit the seed structures and record the seed stage.

        On resume the checkpoint's seed record is consumed to keep the
        replay queue aligned; the stage itself is recomputed (the seed
        commit is deterministic, so the values are identical).
        """
        engine = self.engine
        names = tuple(seed)
        if self.context is not None:
            self.context.set_seed(names)
            self.context.replay_next(SEED_SCOPE)
        seed_ids = apply_seed(engine, names)
        if not seed_ids:
            return
        stage_names = tuple(engine.name_of(i) for i in seed_ids)
        stage = Stage(
            structures=stage_names,
            benefit=engine.absolute_benefit(seed_ids),
            space=engine.space_of(seed_ids),
            tau_after=engine.tau(),
        )
        self.picked.extend(stage_names)
        self.stages.append(stage)
        self._notify(stage, SEED_SCOPE)

    # -------------------------------------------------------------- commits

    def commit_stage(
        self,
        ids,
        stage_space: Optional[float] = None,
        stage_benefit: Optional[float] = None,
    ) -> Stage:
        """Commit a stage's structures; record, checkpoint, and enforce
        budgets at the boundary.

        ``stage_space``/``stage_benefit`` preserve the values the stage
        loop computed for the candidate (bit-for-bit) instead of the
        re-derived ones — some loops report the scan's cached benefit,
        which may differ from the commit's in the last float bit.
        """
        engine = self.engine
        ids = [int(i) for i in ids]
        benefit = engine.commit(ids)
        names = tuple(engine.name_of(i) for i in ids)
        if stage_space is None:
            stage_space = engine.space_of(ids)
        stage = Stage(
            structures=names,
            benefit=benefit if stage_benefit is None else float(stage_benefit),
            space=float(stage_space),
            tau_after=engine.tau(),
        )
        self.picked.extend(names)
        self.stages.append(stage)
        self._notify(stage, self.scope)
        return stage

    def replay_stage(self) -> Optional[Stage]:
        """Replay the next checkpointed stage of this tracker's scope.

        Returns the reconstructed :class:`Stage` (already committed to
        the engine), or ``None`` when nothing is left to replay here —
        the caller then falls through to its normal stage search.
        """
        if self.context is None:
            return None
        record = self.context.replay_next(self.scope)
        if record is None:
            return None
        engine = self.engine
        benefit = engine.replay_commit(record.structures)
        tolerance = self.REPLAY_RTOL * max(1.0, abs(record.benefit))
        if abs(benefit - record.benefit) > tolerance:
            raise CheckpointError(
                f"replayed stage {list(record.structures)} yields benefit "
                f"{benefit!r}, but the checkpoint recorded {record.benefit!r}; "
                "the checkpoint does not belong to this instance"
            )
        # the recorded values are authoritative (JSON round-trips floats
        # exactly), so resumed stages match the golden run bit-for-bit
        stage = Stage(
            structures=tuple(record.structures),
            benefit=record.benefit,
            space=record.space,
            tau_after=engine.tau(),
        )
        self.picked.extend(record.structures)
        self.stages.append(stage)
        self._notify(stage, self.scope)
        return stage

    def adopt(self, result: SelectionResult) -> None:
        """Fold a sub-run's stages and picks into this tracker (TwoStep
        adopts its HRU step's output)."""
        self.stages.extend(result.stages)
        self.picked.extend(result.selected)
        self._space_total = float(result.space_used)

    # -------------------------------------------------------------- results

    def finish(
        self, interrupted: bool = False, stop_reason: Optional[str] = None
    ) -> SelectionResult:
        return make_result(
            self.algorithm.name,
            self.engine,
            self.stages,
            self.space,
            self.picked,
            interrupted=interrupted,
            stop_reason=stop_reason,
        )

    def interrupted(self, stop: RuntimeStop) -> RuntimeStop:
        """Attach this run's best-so-far result to a stop and return it.

        Outermost attachment wins: a composite algorithm catches the
        stop from its sub-run and re-attaches the merged result.
        """
        stop.result = self.finish(interrupted=True, stop_reason=stop.reason)
        return stop

    # ------------------------------------------------------------ internals

    def _notify(self, stage: Stage, scope: str) -> None:
        if self.context is None:
            return
        self._space_total += stage.space
        self.context.record_stage(
            StageRecord(
                scope=scope,
                structures=tuple(stage.structures),
                benefit=stage.benefit,
                space=stage.space,
                tau_after=stage.tau_after,
            )
        )
        self.context.stage_boundary(self.engine, space_used=self._space_total)


class SelectionAlgorithm(abc.ABC):
    """Base class: a named algorithm mapping (graph, space) → selection."""

    #: Human-readable algorithm name; subclasses override.
    name: str = "selection"

    @abc.abstractmethod
    def run(
        self,
        graph: GraphLike,
        space: float,
        seed=(),
        context: Optional[RunContext] = None,
    ) -> SelectionResult:
        """Select structures within (about) ``space`` units of space.

        ``seed`` names structures committed up front (e.g. the top view);
        their space counts against the budget.  ``context`` is an
        optional :class:`~repro.runtime.context.RunContext` providing
        deadlines, memory budgets, stage checkpointing, and resume.
        """

    def config(self) -> dict:
        """Checkpointable constructor config; subclasses add ``params``."""
        return {"class": type(self).__name__, "params": {}}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
