"""repro.distributed — divergent multi-replica selection + cost routing.

The paper selects one configuration for one space budget; this package
generalizes to N replicas with *different* selections under the same
per-replica budget (ROADMAP item 1, in the style of Hang 2024's
divergent index tuning):

1. :func:`partition_workload` splits the observed query log into N
   balanced partitions by attribute-set similarity (the deterministic
   Jaccard agglomeration of :mod:`repro.mining.cluster`, plus LPT
   balancing so no replica starves);
2. :func:`advise_partitions` runs any selection algorithm on each
   partition's frequency vector under the per-replica budget —
   checkpointed, each partition a resumable stage;
3. :class:`RoutingTable` maps every query pattern to the replica whose
   structures answer it cheapest under the paper's ``|C| / |E|`` model,
   raw-cube fallback on any replica;
4. :func:`divergence_report` quantifies the win: total predicted
   workload cost, divergent fleet over N identical copies.

:func:`plan_divergent` chains 1–3; hand the resulting selections and
router to :class:`repro.serve.ReplicaFleet` for routed dispatch, or run
``python -m repro.distributed.smoke`` for the end-to-end contract.
"""

from repro.distributed.advisor import (
    ADVISOR_CHECKPOINT_VERSION,
    DivergentAdvice,
    ReplicaPlan,
    advise_partitions,
)
from repro.distributed.partition import (
    PartitionedWorkload,
    WorkloadPartition,
    partition_workload,
)
from repro.distributed.report import divergence_report, save_divergence_report
from repro.distributed.routing import RouteDecision, RoutingTable

__all__ = [
    "ADVISOR_CHECKPOINT_VERSION",
    "DivergentAdvice",
    "PartitionedWorkload",
    "ReplicaPlan",
    "RouteDecision",
    "RoutingTable",
    "WorkloadPartition",
    "advise_partitions",
    "divergence_report",
    "partition_workload",
    "plan_divergent",
    "save_divergence_report",
]


def plan_divergent(
    lattice,
    counts,
    algorithm,
    space: float,
    n_partitions: int,
    *,
    seed=(),
    similarity=None,
    support: float = 0.0,
    cost_model=None,
    context=None,
    checkpoint_path=None,
):
    """Partition, advise, and build the router in one call.

    Returns ``(partitioned, advice, router)`` — everything a routed
    :class:`~repro.serve.fleet.ReplicaFleet` needs.  ``algorithm`` is a
    constructed selection algorithm; ``space`` is the per-replica
    budget; ``seed`` is force-materialized on every replica (normally
    the top view).
    """
    from repro.core.costmodel import LinearCostModel
    from repro.mining.candidates import DEFAULT_SIMILARITY

    if similarity is None:
        similarity = DEFAULT_SIMILARITY
    partitioned = partition_workload(counts, n_partitions, similarity=similarity)
    advice = advise_partitions(
        lattice,
        partitioned,
        algorithm,
        space,
        seed=tuple(seed),
        support=support,
        context=context,
        checkpoint_path=checkpoint_path,
    )
    model = cost_model if cost_model is not None else LinearCostModel(lattice)
    router = RoutingTable(model, advice.selections)
    return partitioned, advice, router
