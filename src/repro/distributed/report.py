"""Quantifying the divergence win: routed fleet vs identical copies.

The whole point of divergent replicas is a number: the total predicted
workload cost (sum over patterns of weight x predicted rows) of N
specialized replicas behind the cost router, over the same workload's
cost on N identical copies of the single-budget selection.  A ratio
below 1.0 means specialization pays; the ``d5_divergent4`` bench leg and
the divergent-serving CI smoke both report (and the test suite asserts)
it.  The identical-fleet cost needs no router — every copy answers every
query at the same price, so one replica's pricing stands for all N.
:func:`repro.distributed.plan_divergent` supplies the identical
selection: the workload-weighted serving advise.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.costmodel import LinearCostModel
from repro.distributed.advisor import DivergentAdvice
from repro.distributed.partition import PartitionedWorkload
from repro.distributed.routing import RoutingTable


def divergence_report(
    cost_model: LinearCostModel,
    counts,
    advice: DivergentAdvice,
    identical_selection: Sequence[str],
    partitioned: PartitionedWorkload,
    router: RoutingTable,
) -> dict:
    """Predicted-cost comparison of a divergent fleet vs identical copies.

    ``counts`` is the observed workload ({pattern: weight}); the
    divergent side prices each pattern at its cheapest replica under
    ``router``, the identical side prices every pattern on one copy of
    ``identical_selection``.  The returned document is JSON-serializable
    and carries per-replica routed load so starvation is visible.
    """
    identical = RoutingTable(cost_model, [tuple(identical_selection)])

    divergent_cost = 0.0
    identical_cost = 0.0
    replica_load = {
        plan.replica_id: {"weight": 0.0, "patterns": 0, "fallbacks": 0}
        for plan in advice.plans
    }
    for query, weight in counts.items():
        weight = float(weight)
        if weight <= 0:
            continue
        decision = router.route(query)
        divergent_cost += weight * decision.predicted
        identical_cost += weight * identical.route(query).predicted
        load = replica_load[decision.replica_id]
        load["weight"] += weight
        load["patterns"] += 1
        if decision.fallback:
            load["fallbacks"] += 1

    ratio = divergent_cost / identical_cost if identical_cost > 0 else 1.0
    return {
        "replicas": router.n_replicas,
        "algorithm": advice.algorithm,
        "space_per_replica": advice.space,
        "workload_fingerprint": advice.fingerprint,
        "partitions": [
            {
                "partition_id": p.partition_id,
                "weight": p.weight,
                "patterns": p.n_patterns,
            }
            for p in partitioned.partitions
        ],
        "selections": [list(s) for s in advice.selections],
        "identical_selection": list(identical_selection),
        "divergent_predicted_cost": divergent_cost,
        "identical_predicted_cost": identical_cost,
        "predicted_cost_ratio": ratio,
        "routed_load": {
            str(replica_id): load
            for replica_id, load in sorted(replica_load.items())
        },
    }

