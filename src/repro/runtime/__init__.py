"""Resilient selection runtime: budgets, checkpoints, graceful stops.

PR 1 made 7-8 dimension cubes feasible, which means advisor runs now
last minutes.  The greedy algorithms of the paper are naturally
*anytime* — every committed stage is a valid selection with monotonically
growing benefit — so partial work is always salvageable.  This package
builds the salvage path:

:class:`RunContext`
    A cooperative execution context threaded through every selection
    algorithm.  At each committed stage boundary it checkpoints the run
    and enforces wall-clock deadlines, memory budgets, and pending
    SIGINT/SIGTERM requests, raising a typed :class:`RuntimeStop` that
    still carries the best-so-far :class:`~repro.core.selection.SelectionResult`.

:mod:`repro.runtime.checkpoint`
    The JSON checkpoint format: algorithm config, graph fingerprint,
    picked structures stage by stage, and the stage counter.  A resumed
    run replays the recorded picks through the (deterministic)
    :class:`~repro.core.benefit.BenefitEngine` and continues, producing
    selections bit-identical to an uninterrupted run.

:mod:`repro.runtime.faults`
    A deterministic fault-injection harness: kill a run at every stage
    boundary, resume from the checkpoint with the algorithm rebuilt from
    it, and assert the resumed selection equals the golden uninterrupted
    one.
"""

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointError,
    StageRecord,
    algorithm_from_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.context import (
    BudgetExceeded,
    InjectedFault,
    Interrupted,
    RunContext,
    RuntimeStop,
)

__all__ = [
    "BudgetExceeded",
    "Checkpoint",
    "CheckpointError",
    "InjectedFault",
    "Interrupted",
    "RunContext",
    "RuntimeStop",
    "StageRecord",
    "algorithm_from_config",
    "load_checkpoint",
    "save_checkpoint",
]
