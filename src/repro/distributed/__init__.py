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

:func:`plan_divergent` chains 1–4 and is the one divergent plan of
``repro partition``, ``repro serve/replay --divergent``, the divergent
smoke and the benchmark's divergent leg.  Its identical copies run the
workload-weighted serving advise
(:func:`repro.algorithms.serving_advise` with the observed counts).
Hand the resulting selections and router to
:class:`repro.serve.ReplicaFleet` for routed dispatch, or run
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
from repro.distributed.report import divergence_report
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
]


def plan_divergent(
    cost_model,
    counts,
    algorithm: str,
    n_partitions: int,
    space=None,
    *,
    similarity=None,
    support: float = 0.0,
    checkpoint_path=None,
):
    """Partition, advise, route, and price against identical copies.

    Returns ``(partitioned, advice, router, report)``: the partitions,
    one selection per replica, the router a routed
    :class:`~repro.serve.fleet.ReplicaFleet` needs, and the
    :func:`divergence_report`.  ``algorithm`` is a name from
    :data:`repro.algorithms.ALGORITHMS`, run with strict fit and the top
    view seeded on every replica; ``space`` is the per-replica budget
    (default :func:`repro.algorithms.serving_space`).  The identical
    copies run :func:`repro.algorithms.serving_advise` on the same
    counts under the same budget.
    """
    from repro.algorithms import (
        ALGORITHMS,
        FIT_STRICT,
        serving_advise,
        serving_space,
    )
    from repro.mining.candidates import DEFAULT_SIMILARITY

    lattice = cost_model.lattice
    if space is None:
        space = serving_space(lattice)
    if similarity is None:
        similarity = DEFAULT_SIMILARITY
    partitioned = partition_workload(counts, n_partitions, similarity=similarity)
    advice = advise_partitions(
        lattice,
        partitioned,
        ALGORITHMS[algorithm](FIT_STRICT),
        space,
        seed=(lattice.label(lattice.top),),
        support=support,
        checkpoint_path=checkpoint_path,
    )
    router = RoutingTable(cost_model, advice.selections)
    identical = serving_advise(cost_model, algorithm, space, counts).selected
    report = divergence_report(
        cost_model, counts, advice, identical, partitioned, router
    )
    return partitioned, advice, router, report
