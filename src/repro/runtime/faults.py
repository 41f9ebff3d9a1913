"""Fault-injection harness: kill a run at every stage boundary, resume,
and assert the resumed selection is bit-identical to the golden run.

The harness is the executable proof behind the checkpoint design:

1. run the algorithm uninterrupted (the *golden* run) under a counting
   :class:`~repro.runtime.context.RunContext` to learn how many stage
   boundaries it crosses;
2. for every boundary ``k``, re-run with ``fault_stage=k`` — the context
   raises :class:`~repro.runtime.context.InjectedFault` right after the
   k-th checkpoint is taken, exactly like a crash between stages;
3. round-trip that checkpoint through JSON (what a real crash leaves on
   disk), rebuild the algorithm from its recorded config, and resume
   with the rebuilt algorithm on a fresh engine state, as
   ``repro resume`` does;
4. compare the resumed result against the golden run — structure ids in
   pick order, total benefit, and τ must match *exactly* (``==`` on
   floats, no tolerance).

The matrix covers every selection algorithm.  Run it from the command
line for the CI smoke::

    PYTHONPATH=src python -m repro.runtime.faults --dims 4 --pruned
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.core.selection import SelectionResult
from repro.runtime.checkpoint import (
    Checkpoint,
    algorithm_from_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.context import InjectedFault, RunContext


@dataclass(frozen=True)
class FaultCase:
    """One kill-and-resume experiment: algorithm × k."""

    algorithm: str
    stage: int
    n_stages: int
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        base = (
            f"[{status}] {self.algorithm} "
            f"killed at {self.stage}/{self.n_stages}"
        )
        return base + (f": {self.detail}" if self.detail else "")


def compare_results(golden: SelectionResult, resumed: SelectionResult) -> str:
    """Empty string when the resumed run is bit-identical, else why not."""
    if resumed.selected != golden.selected:
        return (
            f"selected differ: resumed {list(resumed.selected)} "
            f"vs golden {list(golden.selected)}"
        )
    if resumed.benefit != golden.benefit:
        return (
            f"benefit differs: resumed {resumed.benefit!r} "
            f"vs golden {golden.benefit!r}"
        )
    if resumed.tau != golden.tau:
        return f"tau differs: resumed {resumed.tau!r} vs golden {golden.tau!r}"
    if resumed.space_used != golden.space_used:
        return (
            f"space_used differs: resumed {resumed.space_used!r} "
            f"vs golden {golden.space_used!r}"
        )
    if resumed.interrupted:
        return "resumed run still reports interrupted=True"
    return ""


def _roundtrip(checkpoint: Checkpoint) -> Checkpoint:
    """Serialize to JSON on disk and load back — the crash-recovery path."""
    fd, path = tempfile.mkstemp(prefix="repro-fault-", suffix=".json")
    os.close(fd)
    try:
        save_checkpoint(checkpoint, path)
        return load_checkpoint(path)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def fault_scan(
    run: Callable[[object, Optional[RunContext]], SelectionResult],
    algorithm,
    *,
    label: str,
) -> Tuple[SelectionResult, List[FaultCase]]:
    """Kill ``algorithm`` at every stage boundary and resume; return the
    cases, labelled ``label``.

    ``run(algorithm, context)`` executes one full selection with the
    given algorithm and optional context on a deterministic engine (the
    harness calls it repeatedly).  The golden and killed runs use
    ``algorithm``; every resume uses the algorithm rebuilt from the
    round-tripped checkpoint by :func:`algorithm_from_config` — the
    cold-start path ``repro resume`` takes — so a ``config()`` that
    loses a parameter fails the cases where it changes the selection.
    """
    golden_context = RunContext()
    golden = run(algorithm, golden_context)
    n_stages = golden_context.stage_counter
    cases: List[FaultCase] = []
    for k in range(1, n_stages + 1):
        try:
            run(algorithm, RunContext(fault_stage=k))
        except InjectedFault as fault:
            checkpoint = fault.checkpoint
            detail = ""
            if getattr(fault, "pre_engine", False):
                # killed at the mining boundary, before anything committed:
                # a real crash there leaves no checkpoint, and recovery is
                # simply starting over — which must land on the golden
                # selection (mining is deterministic)
                resumed = run(algorithm, RunContext())
                detail = compare_results(golden, resumed)
            elif fault.result is None or not fault.result.interrupted:
                detail = "fault did not carry an interrupted partial result"
            elif checkpoint is None:
                detail = "fault carried no checkpoint"
            if not detail and not getattr(fault, "pre_engine", False):
                checkpoint = _roundtrip(checkpoint)
                rebuilt = algorithm_from_config(checkpoint.algorithm)
                resumed = run(rebuilt, RunContext(resume_from=checkpoint))
                detail = compare_results(golden, resumed)
        else:
            detail = f"no fault fired at boundary {k}"
        cases.append(
            FaultCase(
                algorithm=label,
                stage=k,
                n_stages=n_stages,
                ok=not detail,
                detail=detail,
            )
        )
    return golden, cases


# --------------------------------------------------------------- the matrix


def default_algorithms() -> List[Tuple[str, object]]:
    """The selection algorithms under test."""
    from repro.algorithms import (
        HRUGreedy,
        InnerLevelGreedy,
        LocalSearchRefiner,
        RGreedy,
        TwoStep,
    )

    return [
        ("RGreedy(r=2)", RGreedy(2)),
        ("HRUGreedy", HRUGreedy()),
        ("InnerLevelGreedy", InnerLevelGreedy()),
        ("TwoStep", TwoStep()),
        ("LocalSearchRefiner", LocalSearchRefiner()),
    ]


def top_view_of(engine: BenefitEngine) -> str:
    """Name of the largest view — the seed every cube run materializes."""
    view_ids = engine.view_ids()
    spaces = engine.spaces[view_ids]
    return engine.name_of(int(view_ids[int(spaces.argmax())]))


def fault_matrix(
    graph: QueryViewGraph,
    space: float,
    *,
    algorithms: Optional[Callable[[], List[Tuple[str, object]]]] = None,
    seed: Optional[Sequence[str]] = None,
) -> List[FaultCase]:
    """Run the full kill/resume matrix; returns every case (ok or not).

    The :class:`~repro.algorithms.local_search.LocalSearchRefiner` entry
    refines a 1-greedy base selection (its natural usage); all other
    algorithms run from the seed (default: the top view).
    """
    from repro.algorithms import RGreedy

    make_algorithms = algorithms or default_algorithms
    cases: List[FaultCase] = []
    engine = BenefitEngine(graph)
    run_seed = list(seed) if seed is not None else [top_view_of(engine)]
    base = RGreedy(1).run(engine, space, seed=run_seed)

    def refine(algorithm, context=None):
        return algorithm.refine(
            engine, space, base.selected, protected=run_seed, context=context
        )

    def run(algorithm, context=None):
        return algorithm.run(engine, space, seed=run_seed, context=context)

    for label, algorithm in make_algorithms():
        scan_run = refine if hasattr(algorithm, "refine") else run
        __, scan = fault_scan(scan_run, algorithm, label=label)
        cases.extend(scan)
    return cases


# ------------------------------------------------------------ pruned matrix


def mined_cube_instance(
    n_dims: int = 4,
    n_entries: int = 400,
    rng: int = 7,
) -> tuple:
    """A deterministic pruned-advise instance: ``(lattice, log, params)``.

    Cardinalities match :func:`_cube_graph`; the log is a fixed-seed
    Zipf workload, so mining it is reproducible run over run — the
    property the mining kill/resume boundary exists to verify.
    """
    from repro.cube.query_log import generate_query_log
    from repro.cube.schema import CubeSchema, Dimension
    from repro.estimation.sizes import analytical_lattice

    cards = [4 + 2 * i for i in range(n_dims)]
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
    )
    lattice = analytical_lattice(schema, 0.1 * schema.dense_cells)
    log = generate_query_log(schema, n_entries, rng=rng)
    params = {"support": 0.02, "similarity": 0.5, "max_indexes_per_view": 4}
    return lattice, log, params


def pruned_fault_matrix(
    n_dims: int = 4,
    *,
    budget_fraction: float = 0.05,
) -> List[FaultCase]:
    """Kill/resume matrix for *pruned* (workload-mined) advise runs.

    Every run re-mines the log from scratch under its context — the
    mining stage is boundary 1, so ``fault_stage=1`` kills before any
    engine exists (recovery: start over, land on the golden selection)
    and every later kill resumes from a checkpoint whose ``extra`` block
    carries the mining record, which
    :meth:`~repro.runtime.context.RunContext.mining_boundary` verifies
    fingerprint-exactly before a single stage replays.
    """
    from repro.algorithms import InnerLevelGreedy, RGreedy
    from repro.mining import mine_candidates

    lattice, log, params = mined_cube_instance(n_dims)
    probe_mined = mine_candidates(log, lattice.schema.names, **params)
    probe = BenefitEngine(QueryViewGraph.from_mined(lattice, probe_mined))
    space = smoke_budget(probe, budget_fraction)
    run_seed = [top_view_of(probe)]

    def run(algorithm, context=None):
        mined = mine_candidates(log, lattice.schema.names, **params)
        if context is not None:
            context.mining_boundary({"fingerprint": mined.fingerprint(), **params})
        engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
        return algorithm.run(engine, space, seed=run_seed, context=context)

    cases: List[FaultCase] = []
    for label, algorithm in [
        ("RGreedy(r=1)", RGreedy(1)),
        ("RGreedy(r=2)", RGreedy(2)),
        ("InnerLevelGreedy", InnerLevelGreedy()),
    ]:
        __, scan = fault_scan(run, algorithm, label=f"pruned:{label}")
        cases.extend(scan)
    return cases


# ----------------------------------------------------------------- CLI smoke


def _cube_graph(n_dims: int) -> QueryViewGraph:
    """A d-dimensional cube instance (cardinalities 4, 6, 8, …)."""
    from repro.cube.schema import CubeSchema, Dimension
    from repro.estimation.sizes import analytical_lattice

    cards = [4 + 2 * i for i in range(n_dims)]
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
    )
    return QueryViewGraph.from_cube(
        analytical_lattice(schema, 0.1 * schema.dense_cells)
    )


def smoke_budget(engine: BenefitEngine, fraction: float) -> float:
    """Top view plus ``fraction`` of the remaining structure space."""
    top_space = float(engine.spaces[engine.view_ids()].max())
    return top_space + fraction * (float(engine.spaces.sum()) - top_space)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.faults",
        description="Kill selection runs at every stage boundary and "
        "assert resume is bit-identical.",
    )
    parser.add_argument(
        "--dims", type=int, default=4, help="cube dimensions (default 4)"
    )
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=0.05,
        help="budget beyond the top view, as a fraction of the remaining "
        "structure space (default 0.05; larger means more stages)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the case list as JSON"
    )
    parser.add_argument(
        "--pruned",
        action="store_true",
        help="also run the pruned (workload-mined) advise matrix, with "
        "the mining stage as kill/resume boundary 1",
    )
    args = parser.parse_args(argv)
    # exit 2 with a one-line error, never 1 (which means a failed case)
    if args.dims < 1:
        parser.error(f"--dims must be >= 1, got {args.dims}")
    if not (math.isfinite(args.budget_fraction) and args.budget_fraction >= 0):
        parser.error(
            "--budget-fraction must be a finite number >= 0, "
            f"got {args.budget_fraction}"
        )

    graph = _cube_graph(args.dims)
    probe = BenefitEngine(graph)
    space = smoke_budget(probe, args.budget_fraction)
    cases = fault_matrix(graph, space)
    n_full = len(cases)
    if args.pruned:
        cases += pruned_fault_matrix(
            args.dims, budget_fraction=args.budget_fraction
        )
    failures = [case for case in cases if not case.ok]
    if args.json:
        print(json.dumps([case.__dict__ for case in cases], indent=2))
    else:
        for case in failures:
            print(case, file=sys.stderr)
        pruned_note = (
            f" (+{len(cases) - n_full} pruned-advise cases)" if args.pruned else ""
        )
        print(
            f"fault matrix: {len(cases)} kill/resume cases, "
            f"d={args.dims}{pruned_note}; {len(failures)} failure(s)"
        )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke
    sys.exit(main())
