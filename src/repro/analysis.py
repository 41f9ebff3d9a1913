"""Selection analysis: where does a selection's benefit come from?

``explain`` answers the questions a DBA asks after the advisor runs:
which structure serves each query and at what cost, which queries still
fall back to raw data, how much each structure actually contributes
(counting only queries it wins), and what marginal loss dropping any one
structure would cause.  The same numbers also power regression tests for
the selection algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import GraphLike, as_engine
from repro.core.benefit import BenefitEngine


@dataclass(frozen=True)
class QueryPlan:
    """The winning plan for one query under a selection."""

    query: str
    structure: Optional[str]  # None = answered from raw data
    cost: float
    default_cost: float
    frequency: float

    @property
    def speedup(self) -> float:
        """Default cost over achieved cost (1.0 = no precomputation used)."""
        if self.cost <= 0:
            return float("inf")
        return self.default_cost / self.cost


@dataclass(frozen=True)
class StructureContribution:
    """How one selected structure earns its space."""

    name: str
    space: float
    queries_won: Tuple[str, ...]
    benefit_attributed: float  # Σ freq·(default − cost) over queries won
    marginal_loss: float  # τ increase if this structure alone were dropped

    @property
    def benefit_per_space(self) -> float:
        return self.benefit_attributed / self.space if self.space else 0.0


@dataclass
class SelectionExplanation:
    """Full explanation of a selection on a graph."""

    plans: List[QueryPlan]
    contributions: List[StructureContribution]
    tau: float
    initial_tau: float

    @property
    def benefit(self) -> float:
        return self.initial_tau - self.tau

    @property
    def raw_fallback_queries(self) -> List[str]:
        """Queries the selection does not improve at all."""
        return [p.query for p in self.plans if p.structure is None]

    def coverage(self) -> float:
        """Fraction of queries improved over raw data."""
        if not self.plans:
            return 0.0
        return 1.0 - len(self.raw_fallback_queries) / len(self.plans)

    def table(self, max_rows: int = 30) -> str:
        """Human-readable report."""
        from repro.experiments.reporting import ascii_table

        plan_rows = [
            [p.query, p.structure or "(raw data)", p.cost, f"{p.speedup:.1f}x"]
            for p in self.plans[:max_rows]
        ]
        parts = [
            ascii_table(
                ["query", "answered by", "cost", "speedup"],
                plan_rows,
                title=f"query plans ({len(self.plans)} queries, "
                f"{self.coverage():.0%} improved over raw)",
            )
        ]
        contrib_rows = [
            [
                c.name,
                c.space,
                len(c.queries_won),
                c.benefit_attributed,
                c.marginal_loss,
            ]
            for c in self.contributions
        ]
        parts.append(
            ascii_table(
                ["structure", "space", "queries won", "benefit", "marginal loss"],
                contrib_rows,
                title="structure contributions",
            )
        )
        return "\n\n".join(parts)


def explain(graph: GraphLike, selection: Sequence[str]) -> SelectionExplanation:
    """Explain a selection: per-query plans and per-structure value.

    ``selection`` must be admissible (indexes only with their views).
    """
    engine = as_engine(graph)
    ids = [engine.structure_id(name) for name in selection]
    if not engine.is_admissible(ids):
        raise ValueError("selection is not admissible (index without its view)")
    views_first = sorted(ids, key=lambda i: not engine.is_view[i])
    engine.commit(views_first)

    # the selection's cost rows, built once: (|sel| × q), inf where no edge
    rows = np.empty((len(views_first), engine.n_queries), dtype=np.float64)
    for r, sid in enumerate(views_first):
        rows[r] = engine.cost_row(sid)
    plans = _query_plans(engine, views_first, rows)
    contributions = _structure_contributions(engine, views_first, rows, plans)
    explanation = SelectionExplanation(
        plans=plans,
        contributions=contributions,
        tau=engine.tau(),
        initial_tau=float(engine.frequencies @ engine.defaults),
    )
    engine.reset()
    return explanation


def _query_plans(
    engine: BenefitEngine, ids: Sequence[int], rows: np.ndarray
) -> List[QueryPlan]:
    """Each query's winner: the first selected structure (in ``ids``
    order) at the minimum cost, if that cost beats the default — the row
    a sequential strict-``<`` scan from the default would keep."""
    defaults = engine.defaults
    if len(ids):
        first = rows.argmin(axis=0)
        best = rows[first, np.arange(engine.n_queries)]
        wins = best < defaults
        winners = np.where(wins, np.asarray(ids, dtype=np.int64)[first], -1)
        costs = np.where(wins, best, defaults)
    else:
        winners = np.full(engine.n_queries, -1, dtype=np.int64)
        costs = defaults
    return [
        QueryPlan(
            query=name,
            structure=engine.name_of(winner) if winner >= 0 else None,
            cost=cost,
            default_cost=default,
            frequency=frequency,
        )
        for name, winner, cost, default, frequency in zip(
            engine.query_names,
            winners.tolist(),
            costs.tolist(),
            defaults.tolist(),
            engine.frequencies.tolist(),
        )
    ]


def _structure_contributions(
    engine: BenefitEngine,
    ids: Sequence[int],
    rows: np.ndarray,
    plans: List[QueryPlan],
) -> List[StructureContribution]:
    won: Dict[str, List[QueryPlan]] = {}
    for plan in plans:
        if plan.structure is not None:
            won.setdefault(plan.structure, []).append(plan)

    id_set = set(ids)
    contributions = []
    for sid in ids:
        name = engine.name_of(sid)
        plans_won = won.get(name, [])
        attributed = sum(
            p.frequency * (p.default_cost - p.cost) for p in plans_won
        )
        # marginal loss: τ(without this structure — and, for a view,
        # without its now-orphaned indexes) − τ(full selection)
        removal = {sid}
        if engine.is_view[sid]:
            removal |= {int(i) for i in engine.index_ids_of(sid) if int(i) in id_set}
        keep = [i not in removal for i in ids]
        tau_without = _tau_of(engine, rows[keep])
        contributions.append(
            StructureContribution(
                name=name,
                space=float(engine.spaces[sid]),
                queries_won=tuple(p.query for p in plans_won),
                benefit_attributed=attributed,
                marginal_loss=tau_without - engine.tau(),
            )
        )
    contributions.sort(key=lambda c: -c.marginal_loss)
    return contributions


@dataclass
class SelectionComparison:
    """Side-by-side comparison of two selections on the same graph."""

    only_in_a: Tuple[str, ...]
    only_in_b: Tuple[str, ...]
    shared: Tuple[str, ...]
    tau_a: float
    tau_b: float
    space_a: float
    space_b: float
    # queries where the winning side differs, with both costs
    query_deltas: Tuple[Tuple[str, float, float], ...]

    @property
    def tau_ratio(self) -> float:
        """τ_b / τ_a — below 1 means selection B answers queries faster."""
        return self.tau_b / self.tau_a if self.tau_a else float("inf")

    def table(self, max_rows: int = 20) -> str:
        from repro.experiments.reporting import ascii_table

        rows = [
            [query, cost_a, cost_b, f"{cost_a / cost_b:.1f}x" if cost_b else "-"]
            for query, cost_a, cost_b in self.query_deltas[:max_rows]
        ]
        header = (
            f"A: τ={self.tau_a:g}, space={self.space_a:g} | "
            f"B: τ={self.tau_b:g}, space={self.space_b:g} "
            f"(τ_B/τ_A = {self.tau_ratio:.2f})"
        )
        body = ascii_table(
            ["query", "cost under A", "cost under B", "A/B"],
            rows,
            title="queries whose cost differs",
        )
        diff = (
            f"only in A: {', '.join(self.only_in_a) or '(none)'}\n"
            f"only in B: {', '.join(self.only_in_b) or '(none)'}"
        )
        return "\n".join([header, diff, body])


def compare(
    graph: GraphLike,
    selection_a: Sequence[str],
    selection_b: Sequence[str],
) -> SelectionComparison:
    """Compare two selections: structural diff and per-query cost deltas.

    This is how Example 2.1's "why does one-step win?" question gets a
    concrete answer: the queries whose cost differs, and by how much.
    """
    expl_a = explain(graph, selection_a)
    expl_b = explain(graph, selection_b)
    set_a, set_b = set(selection_a), set(selection_b)
    costs_b = {p.query: p.cost for p in expl_b.plans}
    deltas = []
    for plan in expl_a.plans:
        cost_b = costs_b[plan.query]
        if abs(plan.cost - cost_b) > 1e-9:
            deltas.append((plan.query, plan.cost, cost_b))
    deltas.sort(key=lambda entry: -abs(entry[1] - entry[2]))

    engine = as_engine(graph)
    space_a = sum(float(engine.spaces[engine.structure_id(n)]) for n in set_a)
    space_b = sum(float(engine.spaces[engine.structure_id(n)]) for n in set_b)
    return SelectionComparison(
        only_in_a=tuple(sorted(set_a - set_b)),
        only_in_b=tuple(sorted(set_b - set_a)),
        shared=tuple(sorted(set_a & set_b)),
        tau_a=expl_a.tau,
        tau_b=expl_b.tau,
        space_a=space_a,
        space_b=space_b,
        query_deltas=tuple(deltas),
    )


def _tau_of(engine: BenefitEngine, rows: np.ndarray) -> float:
    """τ with exactly the structures whose cost rows are ``rows``."""
    if not len(rows):
        return float(engine.frequencies @ engine.defaults)
    return float(engine.frequencies @ np.minimum(engine.defaults, rows.min(axis=0)))
