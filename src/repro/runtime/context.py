"""The cooperative execution context for long selection runs.

Every selection algorithm accepts an optional :class:`RunContext`.  At
each *stage boundary* — right after a stage's structures are committed —
the context:

1. appends the stage to its record of the run,
2. writes a :class:`~repro.runtime.checkpoint.Checkpoint` (in memory,
   and to ``checkpoint_path`` when configured),
3. fires the injected fault, if one is armed on this boundary (the
   fault-injection harness uses this to kill runs deterministically),
4. enforces the wall-clock deadline, the memory budget, and any pending
   SIGINT/SIGTERM — raising :class:`BudgetExceeded` or
   :class:`Interrupted`.

Checks are *cooperative*: they run between stages, never mid-commit, so
a stop always leaves a consistent, checkpointed selection.  The raised
:class:`RuntimeStop` carries the best-so-far
:class:`~repro.core.selection.SelectionResult` (attached by the
algorithm on the way out) and the last checkpoint.

Resume: construct the context with ``resume_from=<Checkpoint>`` and run
the same algorithm on the same graph and budget.  Recorded stages are
replayed through the engine (cheap commits — the expensive stage
searches are skipped) and the run continues bit-identically.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointError,
    StageRecord,
    algorithm_identity,
    make_checkpoint,
    save_checkpoint,
)

try:  # unavailable on some platforms (Windows); memory budgets degrade
    import resource as _resource
except ImportError:  # pragma: no cover - POSIX containers always have it
    _resource = None

#: Scope label of the seed stage in checkpoint records.
SEED_SCOPE = "seed"

#: Key under which the mining stage's record lives in checkpoint extras.
MINING_EXTRA_KEY = "mining"


class RuntimeStop(Exception):
    """Base of all cooperative stops.

    Attributes
    ----------
    result:
        The best-so-far :class:`~repro.core.selection.SelectionResult`,
        attached by the interrupted algorithm (annotated with
        ``interrupted=True``).  Every committed stage is a valid
        selection, so this is always usable.
    checkpoint:
        The last :class:`~repro.runtime.checkpoint.Checkpoint` taken
        before the stop (``None`` when no stage had committed yet).
    """

    #: Machine-readable stop reason recorded on the partial result.
    reason = "stopped"

    def __init__(self, message: str, checkpoint: Optional[Checkpoint] = None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.result = None


class BudgetExceeded(RuntimeStop):
    """A wall-clock deadline or memory budget ran out."""

    reason = "budget-exceeded"

    def __init__(
        self,
        message: str,
        checkpoint: Optional[Checkpoint] = None,
        budget: str = "deadline",
    ):
        super().__init__(message, checkpoint)
        self.budget = budget


class Interrupted(RuntimeStop):
    """SIGINT/SIGTERM arrived; the in-flight stage was finished first."""

    reason = "interrupted"


class InjectedFault(RuntimeStop):
    """A deterministic fault from the fault-injection harness."""

    reason = "injected-fault"


def max_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes.  Returns 0.0
    where the ``resource`` module is unavailable.
    """
    if _resource is None:  # pragma: no cover - non-POSIX only
        return 0.0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux containers
        return peak / 2**20
    return peak / 1024.0


def check_deadline(deadline: Optional[float]) -> Optional[float]:
    """``deadline`` unchanged when it is ``None`` or >= 0 seconds (``inf``
    included); a negative or NaN deadline raises ``ValueError``."""
    if deadline is not None and not deadline >= 0:
        raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
    return deadline


class RunContext:
    """Budgets, checkpoints, and stop requests for one selection run.

    Parameters
    ----------
    deadline:
        Wall-clock budget in seconds, measured from construction.  Runs
        past it raise :class:`BudgetExceeded` at the next stage boundary.
    memory_limit_mb:
        Peak-RSS budget in MiB, checked cooperatively at stage
        boundaries (peak is monotonic: once exceeded, the run stops at
        the next boundary).
    checkpoint_path:
        Where to write the JSON checkpoint (atomic replace).  ``None``
        keeps checkpoints in memory only (:attr:`last_checkpoint`),
        which the fault harness uses.  On-disk writes are throttled to
        one per ``checkpoint_interval`` seconds so checkpointing stays
        cheap on fast stages; a cooperative stop always flushes the
        current boundary's checkpoint before raising, so at most
        ``checkpoint_interval`` seconds of work are lost to a hard
        crash.
    checkpoint_interval:
        Minimum seconds between on-disk checkpoint writes (default
        0.25; ``0`` writes at every stage boundary).
    resume_from:
        A loaded :class:`Checkpoint` to continue from.  The context
        verifies the algorithm config, graph fingerprint, and budget
        match, then serves the recorded stages for replay.
    fault_stage:
        Arm a deterministic :class:`InjectedFault` at this stage
        boundary (1-based count of boundaries).  Test/harness use only.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        checkpoint_path=None,
        resume_from: Optional[Checkpoint] = None,
        fault_stage: Optional[int] = None,
        clock=time.monotonic,
        checkpoint_interval: float = 0.25,
    ):
        if memory_limit_mb is not None and not memory_limit_mb > 0:
            raise ValueError(
                f"memory_limit_mb must be positive, got {memory_limit_mb}"
            )
        if checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0, got {checkpoint_interval}"
            )
        self.deadline = check_deadline(deadline)
        self.memory_limit_mb = memory_limit_mb
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.fault_stage = fault_stage
        self._clock = clock
        self.started = clock()
        self.stage_counter = 0
        self._resume = resume_from
        self._replay: Deque[StageRecord] = deque(
            resume_from.stages if resume_from is not None else ()
        )
        self._records: List[StageRecord] = []
        self._bound: Optional[Dict] = None
        self._space_budget: Optional[float] = None
        self._seed: tuple = ()
        self._stop_signal: Optional[int] = None
        # the last stage boundary's cheap snapshot; the full Checkpoint
        # is materialized lazily (everything else it needs is static)
        self._boundary: Optional[tuple] = None
        self._materialized: Optional[Checkpoint] = None
        self._last_write: Optional[float] = None
        self._mining_record: Optional[Dict] = None

    # -------------------------------------------------------------- binding

    def bind(self, algorithm, engine, space_budget: float) -> None:
        """Attach the outermost algorithm and its engine to this context.

        The first bind wins: composite algorithms (TwoStep) bind before
        delegating to their sub-algorithms, so the checkpoint names the
        algorithm the operator actually invoked.  When resuming, the
        checkpoint's config, fingerprint, and budget must match.
        """
        if self._bound is not None:
            return
        config = algorithm.config()
        self._bound = config
        self._space_budget = float(space_budget)
        self._engine = engine
        if self._resume is not None:
            recorded = algorithm_identity(self._resume.algorithm)
            if recorded != algorithm_identity(config):
                raise CheckpointError(
                    f"checkpoint was written by {self._resume.algorithm!r}, "
                    f"cannot resume with {config!r}"
                )
            fingerprint = engine.fingerprint()
            if self._resume.fingerprint != fingerprint:
                raise CheckpointError(
                    "checkpoint graph fingerprint does not match this "
                    f"instance ({self._resume.fingerprint[:24]}… vs "
                    f"{fingerprint[:24]}…); was the cube document or "
                    "index universe changed?"
                )
            if self._resume.space_budget != self._space_budget:
                raise CheckpointError(
                    f"checkpoint space budget {self._resume.space_budget:g} "
                    f"differs from this run's {self._space_budget:g}"
                )

    def set_seed(self, seed_names: Sequence[str]) -> None:
        """Record (and on resume, verify) the run's seed structures."""
        names = tuple(seed_names)
        if self._resume is not None and self._resume.seed != names:
            raise CheckpointError(
                f"checkpoint seed {list(self._resume.seed)} differs from "
                f"this run's seed {list(names)}"
            )
        self._seed = names

    @property
    def resume_checkpoint(self) -> Optional[Checkpoint]:
        return self._resume

    # --------------------------------------------------------------- mining

    def mining_boundary(self, record: Dict) -> None:
        """Mark the workload-mining stage of a pruned advise run.

        Called once, after mining and *before* :meth:`bind` (the engine
        does not exist until the mined graph is built).  ``record`` —
        the mined set's fingerprint plus its parameters and log source —
        is carried in every subsequent checkpoint's ``extra`` block, so
        a resumed run can re-mine and *prove* (fingerprint equality,
        verified here) that it rebuilt the identical candidate space
        before any stage replays against the graph fingerprint.

        The mining stage is a first-class kill/resume boundary: it
        counts toward ``fault_stage`` and runs the budget checks, same
        as every stage boundary.  A fault or stop raised here carries no
        checkpoint (nothing has committed yet — the resume protocol for
        this boundary is simply "start over"); such stops are tagged
        ``pre_engine=True`` for the fault harness.
        """
        record = dict(record)
        if self._resume is not None:
            previous = self._resume.extra.get(MINING_EXTRA_KEY)
            if previous != record:
                raise CheckpointError(
                    "checkpoint mining record does not match this run's "
                    f"re-mined candidates ({previous!r} vs {record!r}); "
                    "did the query log or mining parameters change?"
                )
        self._mining_record = record
        self.stage_counter += 1
        if self.fault_stage is not None and self.stage_counter == self.fault_stage:
            fault = InjectedFault(
                f"injected fault at mining boundary {self.stage_counter}",
                self.last_checkpoint,
            )
            fault.pre_engine = self.last_checkpoint is None
            raise fault
        try:
            self.check()
        except RuntimeStop as stop:
            stop.pre_engine = self.last_checkpoint is None
            raise

    @property
    def mining_record(self) -> Optional[Dict]:
        """The mining-stage record, when this run mined its candidates."""
        return self._mining_record

    # --------------------------------------------------------------- replay

    def replay_next(self, scope: str) -> Optional[StageRecord]:
        """Pop the next recorded stage if it belongs to ``scope``.

        Scope-gated so each loop of a composite algorithm consumes
        exactly the stages it originally committed, in order.
        """
        if self._replay and self._replay[0].scope == scope:
            return self._replay.popleft()
        return None

    @property
    def replaying(self) -> bool:
        return bool(self._replay)

    # ------------------------------------------------------ stage boundaries

    def record_stage(self, record: StageRecord) -> None:
        """Append a stage to the run record (no checkpoint/checks yet)."""
        self._records.append(record)

    def stage_boundary(
        self,
        engine,
        selected: Optional[Sequence[str]] = None,
        extra: Optional[Dict] = None,
        space_used: Optional[float] = None,
    ) -> None:
        """Checkpoint the run and enforce the budgets.

        Called after every committed stage.  ``selected`` overrides the
        picked-order derivation from the records (local search passes
        its current set explicitly); ``extra`` is merged into the
        checkpoint's extra block; ``space_used`` lets a caller that
        already tracks its running space total skip the engine re-sum.

        Only a cheap snapshot is taken here; the full
        :class:`Checkpoint` materializes lazily on access or write.  A
        stop raised from this boundary always flushes to disk first.
        """
        if self._bound is None:
            raise RuntimeError("stage_boundary before bind()")
        self.stage_counter += 1
        extra_dict = dict(extra) if extra else {}
        if self._mining_record is not None:
            extra_dict.setdefault(MINING_EXTRA_KEY, self._mining_record)
        self._boundary = (
            self.stage_counter,
            len(self._records),
            float(engine.space_used()) if space_used is None else space_used,
            tuple(selected) if selected is not None else None,
            extra_dict,
        )
        self._engine = engine
        self._materialized = None
        wrote = self._write_checkpoint(force=self.checkpoint_interval == 0)
        try:
            if (
                self.fault_stage is not None
                and self.stage_counter == self.fault_stage
            ):
                raise InjectedFault(
                    f"injected fault at stage boundary {self.stage_counter}",
                    self.last_checkpoint,
                )
            self.check()
        except RuntimeStop:
            if not wrote:
                self._write_checkpoint(force=True)
            raise

    @property
    def last_checkpoint(self) -> Optional[Checkpoint]:
        """The checkpoint of the most recent stage boundary.

        Materialized on demand from the boundary snapshot: the stage
        records up to the boundary are immutable, the name→id mapping
        and graph fingerprint are static, and the boundary's space
        accounting was captured eagerly — so the result is identical no
        matter how far the engine has advanced since.
        """
        if self._boundary is None:
            return None
        if self._materialized is None:
            counter, n_records, space_used, selected, extra = self._boundary
            self._materialized = make_checkpoint(
                self._engine,
                algorithm=self._bound,
                space_budget=self._space_budget,
                seed=self._seed,
                stage_counter=counter,
                records=self._records[:n_records],
                selected=selected,
                extra=extra,
                space_used=space_used,
            )
        return self._materialized

    def _write_checkpoint(self, force: bool) -> bool:
        """Write the current checkpoint if due (or forced); True if written."""
        if self.checkpoint_path is None or self._boundary is None:
            return False
        now = self._clock()
        if (
            not force
            and self._last_write is not None
            and now - self._last_write < self.checkpoint_interval
        ):
            return False
        save_checkpoint(self.last_checkpoint, self.checkpoint_path)
        self._last_write = now
        return True

    # --------------------------------------------------------------- checks

    def elapsed(self) -> float:
        return self._clock() - self.started

    def check(self) -> None:
        """Raise the appropriate :class:`RuntimeStop` if a stop is due."""
        if self._stop_signal is not None:
            name = signal.Signals(self._stop_signal).name
            raise Interrupted(
                f"received {name}; stopping after the in-flight stage",
                self.last_checkpoint,
            )
        if self.deadline is not None:
            elapsed = self.elapsed()
            if elapsed > self.deadline:
                raise BudgetExceeded(
                    f"wall-clock deadline exceeded "
                    f"({elapsed:.2f}s > {self.deadline:g}s)",
                    self.last_checkpoint,
                    budget="deadline",
                )
        if self.memory_limit_mb is not None:
            rss = max_rss_mb()
            if rss > self.memory_limit_mb:
                raise BudgetExceeded(
                    f"memory budget exceeded "
                    f"(peak RSS {rss:.1f} MiB > {self.memory_limit_mb:g} MiB)",
                    self.last_checkpoint,
                    budget="memory",
                )

    # -------------------------------------------------------------- signals

    def request_stop(self, signum: int = signal.SIGINT) -> None:
        """Ask the run to stop at the next stage boundary (thread-safe)."""
        self._stop_signal = int(signum)

    @contextlib.contextmanager
    def handle_signals(self, signums=(signal.SIGINT, signal.SIGTERM)):
        """Install handlers that finish the in-flight stage, checkpoint,
        and stop — instead of dying mid-commit.

        Restores the previous handlers on exit.  Outside the main thread
        (where ``signal.signal`` raises), the context manager degrades
        to a no-op: stops can still be requested via
        :meth:`request_stop`.
        """
        previous = {}
        try:
            for signum in signums:
                previous[signum] = signal.signal(signum, self._on_signal)
        except ValueError:  # not in the main thread
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            previous = {}
        try:
            yield self
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _on_signal(self, signum, frame) -> None:
        self._stop_signal = signum

    def __repr__(self) -> str:
        return (
            f"RunContext(stage={self.stage_counter}, "
            f"deadline={self.deadline}, memory_limit_mb={self.memory_limit_mb}, "
            f"replaying={self.replaying})"
        )
