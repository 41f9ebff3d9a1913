"""Cost-routed query dispatch over divergent replica selections.

With every replica holding the same selection, round-robin is optimal.
With *divergent* selections, where a query lands matters: the routing
table prices each query pattern against every replica's structures under
the paper's ``|C| / |E|`` linear cost model and routes to the cheapest
replica.  Each replica's plan is the one its server would pick: the
engine's planner (:func:`repro.engine.executor.cheapest_plan`) over the
replica's structures in the order its catalog loads them
(:func:`repro.engine.pipeline.load_order`), so predicted cost *and*
structure match what that replica serves, cost ties included.  Every
replica keeps the raw-cube fallback, so any replica can answer any query
(just not equally fast), which is what makes failover safe: when the
cheapest replica is struck, :meth:`ranking` hands the router the rest in
next-cheapest order.

Decisions are memoized per pattern (the same memo discipline as
:func:`repro.serve.batch.plan_for`), so routing costs one dict lookup on
the serving hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.costmodel import LinearCostModel
from repro.core.query import SliceQuery
from repro.engine.executor import cheapest_plan
from repro.engine.pipeline import load_order
from repro.serve.batch import raw_plan
from repro.serve.structures import resolve_selection


@dataclass(frozen=True)
class RouteDecision:
    """The cheapest way one replica can answer one query pattern."""

    replica_id: int
    structure: str
    predicted: float
    fallback: bool


class RoutingTable:
    """Pattern -> replica dispatch for a set of divergent selections.

    Parameters
    ----------
    cost_model:
        The fleet's shared :class:`LinearCostModel` (predictions must
        match what each replica's server will report, so use the same
        model the fleet is built with).
    selections:
        One selection (structure labels) per replica, in replica-id
        order — :attr:`DivergentAdvice.selections` verbatim.
    """

    def __init__(
        self,
        cost_model: LinearCostModel,
        selections: Sequence[Sequence[str]],
    ):
        if not selections:
            raise ValueError("selections must not be empty")
        self.cost_model = cost_model
        self.selections = tuple(tuple(s) for s in selections)
        #: per replica: its views in load order, and each view's indexes
        #: in selection order (the order its catalog builds them)
        self._replicas = []
        for selection in self.selections:
            views, indexes = resolve_selection(selection)
            by_view = {view: [] for view in views}
            for index in indexes:
                by_view[index.view].append(index)
            self._replicas.append((load_order(views), by_view))
        self._memo: Dict[SliceQuery, Tuple[RouteDecision, ...]] = {}

    @property
    def n_replicas(self) -> int:
        return len(self.selections)

    # ------------------------------------------------------------- pricing

    def best_plan(self, query: SliceQuery, replica_id: int) -> RouteDecision:
        """Cheapest answer for ``query`` on one replica's structures.

        The planner's head over the replica's views in catalog load
        order, so the predicted cost and the structure equal what the
        replica's server will record.  Falls back to the raw cube (at
        :meth:`LinearCostModel.default_cost`) when no materialized view
        answers.
        """
        model = self.cost_model
        views, by_view = self._replicas[replica_id]
        plan = cheapest_plan(
            query, views, by_view.__getitem__, model.cost, model.lattice.schema
        )
        if plan is None:
            plan = raw_plan(model, query)
        return RouteDecision(
            replica_id=replica_id,
            structure=plan.structure,
            predicted=plan.predicted,
            fallback=plan.kind == "raw",
        )

    # ------------------------------------------------------------- routing

    def ranking(self, query: SliceQuery) -> Tuple[RouteDecision, ...]:
        """Every replica's decision, cheapest first (ties: lowest id).

        Memoized per pattern; the full ranking is what health-aware
        failover walks — strike the head, serve from the next-cheapest.
        """
        cached = self._memo.get(query)
        if cached is not None:
            return cached
        decisions = sorted(
            (self.best_plan(query, replica_id) for replica_id in range(self.n_replicas)),
            key=lambda d: (d.predicted, d.replica_id),
        )
        ranking = tuple(decisions)
        self._memo[query] = ranking
        return ranking

    def route(self, query: SliceQuery) -> RouteDecision:
        """The designated (cheapest) replica for a query pattern."""
        return self.ranking(query)[0]

    def workload_cost(self, counts) -> float:
        """Total predicted workload cost under cheapest-replica routing:
        sum of weight times the routed plan's predicted rows."""
        return sum(
            float(weight) * self.route(query).predicted
            for query, weight in counts.items()
            if weight > 0
        )

    # ----------------------------------------------------------- reporting

    def to_dict(self, patterns: Sequence[SliceQuery]) -> dict:
        """A JSON-serializable table for the given patterns."""
        routes = {}
        for query in sorted(set(patterns), key=str):
            decision = self.route(query)
            routes[str(query)] = {
                "replica": decision.replica_id,
                "structure": decision.structure,
                "predicted_rows": decision.predicted,
                "fallback": decision.fallback,
            }
        return {
            "replicas": self.n_replicas,
            "selections": [list(s) for s in self.selections],
            "routes": routes,
        }
