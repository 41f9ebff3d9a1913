"""Workload-mined candidate pruning.

Turns a query log into a pruned candidate space — clustered queries,
support-filtered views, bounded fat-index keys — plus a certified upper
bound on the benefit the pruning can forgo.  The pruned space compiles
into a :class:`~repro.core.qvgraph.QueryViewGraph` via
:meth:`~repro.core.qvgraph.QueryViewGraph.from_mined`, which every
selection algorithm accepts unchanged; this is what scales ``advise``
to d≥9 cubes whose full 3^n universe cannot be built.  The compile and
the bound both price edges with
:class:`~repro.core.qvgraph.EdgeKernel`, the bitmask form of the
linear cost model that ``from_cube`` uses, so neither makes a
per-edge cost-model call.

Typical flow::

    from repro.mining import mine_candidates, compute_benefit_bound

    mined = mine_candidates(entries, schema.names, support=0.01)
    bound = compute_benefit_bound(mined, lattice)
    graph = QueryViewGraph.from_mined(lattice, mined)
    result = RGreedy(1).run(BenefitEngine(graph), budget)
    print(bound.forgone_bound(result.tau))   # certified τ gap vs full
"""

from repro.mining.bound import BenefitBound, compute_benefit_bound
from repro.mining.candidates import (
    DEFAULT_MAX_INDEXES_PER_VIEW,
    DEFAULT_SIMILARITY,
    DEFAULT_SUPPORT,
    MinedCandidates,
    mine_candidates,
)
from repro.mining.cluster import QueryCluster, cluster_queries, jaccard
from repro.mining.report import mining_report

__all__ = [
    "BenefitBound",
    "DEFAULT_MAX_INDEXES_PER_VIEW",
    "DEFAULT_SIMILARITY",
    "DEFAULT_SUPPORT",
    "MinedCandidates",
    "QueryCluster",
    "cluster_queries",
    "compute_benefit_bound",
    "jaccard",
    "mine_candidates",
    "mining_report",
]
