"""Per-partition advising: one selection per replica, resumably.

Each workload partition gets its own advisor run: mine the partition's
frequency vector into a pruned candidate space (the same
:func:`repro.mining.mine_candidates` pipeline the d>=9 scale path uses,
with ``support=0`` by default — inside a partition every observed
pattern matters), compile it with
:meth:`~repro.core.qvgraph.QueryViewGraph.from_mined`, and run any
existing selection algorithm under the *per-replica* budget.  The
algorithm object is the caller's, and runs honor an optional
:class:`~repro.runtime.context.RunContext` — its deadline/memory/signal
checks fire at every partition boundary, so a divergent advise stops
cooperatively like any other staged run.

Each partition is a **resumable stage**: after a partition's selection
commits, the advisor atomically rewrites its JSON checkpoint (workload
fingerprint, algorithm config, budget, and every completed plan).  A
rerun against the same checkpoint path verifies the fingerprints and
replays completed partitions from the document instead of re-advising
them — kill the run after partition 1 of 4 and the resume does only the
remaining three.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.qvgraph import QueryViewGraph
from repro.core.selection import SelectionResult
from repro.distributed.partition import PartitionedWorkload
from repro.io import write_json
from repro.mining.candidates import (
    DEFAULT_MAX_INDEXES_PER_VIEW,
    mine_candidates,
)
from repro.runtime.checkpoint import algorithm_identity

#: Checkpoint document version (bumped on layout changes).
ADVISOR_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ReplicaPlan:
    """One replica's advised configuration.

    ``result`` is the full algorithm output for a freshly advised
    partition and ``None`` when the plan was replayed from a checkpoint
    or the partition was empty (seed-only selection).
    """

    replica_id: int
    selection: Tuple[str, ...]
    weight: float
    n_patterns: int
    tau: float
    space_used: float
    resumed: bool = False
    result: Optional[SelectionResult] = None


@dataclass(frozen=True)
class DivergentAdvice:
    """Per-replica plans for one partitioned workload."""

    plans: Tuple[ReplicaPlan, ...]
    space: float
    algorithm: str
    fingerprint: str

    @property
    def selections(self) -> Tuple[Tuple[str, ...], ...]:
        """Per-replica selections, ready for :class:`ReplicaFleet`."""
        return tuple(plan.selection for plan in self.plans)


def _plan_record(plan: ReplicaPlan) -> dict:
    return {
        "replica_id": plan.replica_id,
        "selection": list(plan.selection),
        "weight": plan.weight,
        "n_patterns": plan.n_patterns,
        "tau": plan.tau,
        "space_used": plan.space_used,
    }


def _load_checkpoint(
    path: Optional[str], fingerprint: str, space: float, identity: dict
) -> dict:
    """Completed plans from a prior run's checkpoint, keyed by replica.

    An absent file is a fresh run.  A present file must match this
    run's workload fingerprint, budget, and algorithm identity — a
    mismatched checkpoint means the workload or configuration changed
    under the resume, which is an input error, not something to guess
    around.
    """
    if path is None or not os.path.exists(path):
        return {}
    with open(path) as f:
        document = json.load(f)
    if document.get("version") != ADVISOR_CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: divergent-advisor checkpoint version "
            f"{document.get('version')!r} is not {ADVISOR_CHECKPOINT_VERSION}"
        )
    if document.get("fingerprint") != fingerprint:
        raise ValueError(
            f"{path}: checkpoint was written for a different partitioned "
            "workload (fingerprint mismatch); did the log or partition "
            "count change?"
        )
    if document.get("space") != space:
        raise ValueError(
            f"{path}: checkpoint space budget {document.get('space')!r} "
            f"differs from this run's {space:g}"
        )
    stored = document.get("algorithm")
    # checkpoints from before the workers= and lazy= knobs were removed
    # still carry them; neither changed a selection, so neither blocks a
    # resume
    if not isinstance(stored, dict) or algorithm_identity(stored) != identity:
        raise ValueError(
            f"{path}: checkpoint algorithm {document.get('algorithm')!r} "
            f"differs from this run's {identity!r}"
        )
    return {
        record["replica_id"]: record for record in document.get("plans", [])
    }


def advise_partitions(
    lattice,
    partitioned: PartitionedWorkload,
    algorithm,
    space: float,
    *,
    seed: Tuple[str, ...] = (),
    support: float = 0.0,
    max_indexes_per_view: int = DEFAULT_MAX_INDEXES_PER_VIEW,
    context=None,
    checkpoint_path: Optional[str] = None,
) -> DivergentAdvice:
    """Advise one selection per partition under a per-replica budget.

    ``algorithm`` is any constructed selection algorithm; ``space`` is
    the budget *each* replica gets; ``seed`` is force-materialized on
    every replica (normally the top view — every replica keeps the
    raw-cube fallback).  ``context``
    is an optional :class:`~repro.runtime.context.RunContext` whose
    budget checks run at every partition boundary; a stop raises
    :class:`~repro.runtime.context.RuntimeStop` with every *completed*
    partition already committed to ``checkpoint_path``, so rerunning the
    same call resumes where the stop landed.

    An empty partition advises to the seed-only selection — its replica
    still answers everything through the raw-cube fallback.
    """
    if space <= 0:
        raise ValueError(f"space must be positive, got {space}")
    fingerprint = partitioned.fingerprint()
    identity = algorithm_identity(algorithm.config())
    completed = _load_checkpoint(checkpoint_path, fingerprint, space, identity)
    schema_names = tuple(lattice.schema.names)

    plans = []
    plan_records = []
    for partition in partitioned.partitions:
        if context is not None:
            context.check()
        prior = completed.get(partition.partition_id)
        if prior is not None:
            plan = ReplicaPlan(
                replica_id=partition.partition_id,
                selection=tuple(prior["selection"]),
                weight=float(prior["weight"]),
                n_patterns=int(prior["n_patterns"]),
                tau=float(prior["tau"]),
                space_used=float(prior["space_used"]),
                resumed=True,
            )
        elif partition.empty:
            plan = ReplicaPlan(
                replica_id=partition.partition_id,
                selection=tuple(seed),
                weight=0.0,
                n_patterns=0,
                tau=0.0,
                space_used=sum(
                    lattice.size(view)
                    for view in (lattice.top,)
                    if lattice.label(view) in seed
                ),
            )
        else:
            mined = mine_candidates(
                partition.counts,
                schema_names,
                support=support,
                similarity=partitioned.similarity,
                max_indexes_per_view=max_indexes_per_view,
            )
            mined.ensure_structures(seed)
            graph = QueryViewGraph.from_mined(lattice, mined)
            result = algorithm.run(graph, space, seed=seed)
            plan = ReplicaPlan(
                replica_id=partition.partition_id,
                selection=tuple(result.selected),
                weight=partition.weight,
                n_patterns=partition.n_patterns,
                tau=result.tau,
                space_used=result.space_used,
                result=result,
            )
        plans.append(plan)
        plan_records.append(_plan_record(plan))
        if checkpoint_path is not None:
            write_json(
                {
                    "version": ADVISOR_CHECKPOINT_VERSION,
                    "fingerprint": fingerprint,
                    "space": space,
                    "algorithm": identity,
                    "plans": plan_records,
                },
                checkpoint_path,
            )
    return DivergentAdvice(
        plans=tuple(plans),
        space=space,
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        fingerprint=fingerprint,
    )
