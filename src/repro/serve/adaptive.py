"""Background re-selection: re-run the advisor on the observed workload.

When the drift monitor fires, the serving layer hands the observed query
frequencies to an :class:`AdaptiveReselector`.  By default it *mines*
the observed workload down to a pruned candidate space
(:mod:`repro.mining`) — clusters of observed patterns above a support
threshold sponsor candidate views and index keys, the currently deployed
structures are force-kept so the incumbent configuration stays priceable
— and re-runs the configured greedy algorithm on the pruned graph.
This is what lets a d≥9 catalog re-advise online: the full 3^n universe
the original path rebuilt on every drift event cannot even be
enumerated there.  ``prune=False`` restores the full-universe rebuild,
weighted by :func:`repro.algorithms.workload_weights` (unseen patterns
get weight 0 — ``from_cube`` would otherwise default them to 1).

The run honors the runtime deadline/checkpoint machinery via a fresh
:class:`~repro.runtime.context.RunContext`, then compares the new
selection's total cost τ against the *current* selection's τ under the
same observed frequencies.  The new selection wins only when it is
cheaper by the configured relative margin; the caller then materializes
and hot-swaps it.  Pruned outcomes also carry the certified
forgone-benefit bound (τ gap vs a full-universe re-advise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.algorithms import workload_weights
from repro.core.benefit import BenefitEngine
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import SliceQuery
from repro.core.selection import SelectionResult
from repro.mining import MinedCandidates, compute_benefit_bound, mine_candidates
from repro.runtime.context import RunContext, RuntimeStop, check_deadline

#: Default relative τ improvement a new selection must deliver to swap.
READVISE_MARGIN = 0.05


@dataclass
class ReadviseOutcome:
    """What one background re-selection concluded."""

    result: Optional[SelectionResult]
    tau_current: float
    tau_new: float
    accepted: bool
    detail: str = ""
    #: Certified upper bound on τ_new − τ of a full-universe re-advise
    #: (None when the re-advise ran on the full universe already).
    forgone_bound: Optional[float] = None

    @property
    def improvement(self) -> float:
        """Relative τ reduction of the new selection (0 when rejected
        before a comparison)."""
        if self.tau_current <= 0:
            return 0.0
        return 1.0 - self.tau_new / self.tau_current


class AdaptiveReselector:
    """Re-runs a selection algorithm on observed workload frequencies.

    Parameters
    ----------
    lattice:
        The serving lattice (exact sizes — the same one the cost model
        routes with).
    algorithm:
        A configured :class:`~repro.algorithms.base.SelectionAlgorithm`.
    space:
        Space budget in rows, same units as the lattice sizes.
    margin:
        Required relative τ improvement: the new selection is accepted
        when ``tau_new <= (1 - margin) * tau_current``.
    seed:
        Structure names committed before the greedy runs (default: the
        current selection's first structure is *not* carried over; pass
        the top view's label to keep the catalog always-answering).
    deadline / checkpoint_path:
        Forwarded into the :class:`RunContext` of every re-selection
        run, so a background re-advise obeys the same wall-clock budget
        and crash-recovery rules as a foreground ``repro advise`` (a
        negative or NaN ``deadline`` is rejected here, not per run).
    prune:
        ``True`` (default) mines the observed log into a pruned
        candidate space with :func:`repro.mining.mine_candidates`'
        default thresholds before re-advising.  ``False`` rebuilds the
        full 3^n universe on every drift event (only feasible at small
        d).
    """

    def __init__(
        self,
        lattice: CubeLattice,
        algorithm,
        space: float,
        margin: float = READVISE_MARGIN,
        seed: Sequence[str] = (),
        deadline: Optional[float] = None,
        checkpoint_path=None,
        prune: bool = True,
    ):
        if not 0.0 <= margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self.lattice = lattice
        self.algorithm = algorithm
        self.space = float(space)
        self.margin = float(margin)
        self.seed = tuple(seed)
        self.deadline = check_deadline(deadline)
        self.checkpoint_path = checkpoint_path
        self.prune = bool(prune)

    def _observed_graph(
        self,
        observed: Mapping[SliceQuery, float],
        current_selection: Sequence[str] = (),
    ):
        """Build the re-advise graph; returns ``(graph, bound-or-None)``."""
        if self.prune:
            counts = {
                query: float(weight)
                for query, weight in observed.items()
                if float(weight) > 0
            }
            mined = mine_candidates(counts, self.lattice.schema.names)
            # force-keep the incumbent structures (and the seed): τ_current
            # must be computable on the pruned graph, or the comparison
            # would silently favor the challenger
            mined.ensure_structures([*self.seed, *current_selection])
            bound = compute_benefit_bound(mined, self.lattice)
            return QueryViewGraph.from_mined(self.lattice, mined), bound
        frequencies = workload_weights(self.lattice, observed)
        return QueryViewGraph.from_cube(self.lattice, frequencies=frequencies), None

    def _tau_of(self, engine: BenefitEngine, names: Sequence[str]) -> float:
        engine.reset()
        known = [n for n in names if n in engine.structure_names]
        engine.replay_commit(known)
        return engine.tau()

    def readvise(
        self,
        observed: Mapping[SliceQuery, float],
        current_selection: Sequence[str],
    ) -> ReadviseOutcome:
        """One re-selection run; never raises on a runtime stop.

        Returns the outcome with ``accepted=True`` when the new
        selection beats the current one by the margin under the
        observed frequencies.
        """
        if self.prune and not any(float(w) > 0 for w in observed.values()):
            return ReadviseOutcome(
                result=None,
                tau_current=0.0,
                tau_new=float("inf"),
                accepted=False,
                detail="no observed workload to mine",
            )
        graph, bound = self._observed_graph(observed, current_selection)
        engine = BenefitEngine(graph)
        tau_current = self._tau_of(engine, current_selection)
        engine.reset()
        context = RunContext(
            deadline=self.deadline, checkpoint_path=self.checkpoint_path
        )
        try:
            result = self.algorithm.run(
                engine, self.space, seed=self.seed, context=context
            )
        except RuntimeStop as stop:
            return ReadviseOutcome(
                result=getattr(stop, "result", None),
                tau_current=tau_current,
                tau_new=float("inf"),
                accepted=False,
                detail=f"re-advise stopped: {stop.reason}",
            )
        tau_new = result.tau
        accepted = (
            tuple(result.selected) != tuple(current_selection)
            and tau_new <= (1.0 - self.margin) * tau_current
        )
        detail = "" if accepted else (
            "new selection identical to current"
            if tuple(result.selected) == tuple(current_selection)
            else f"improvement below margin {self.margin:g}"
        )
        return ReadviseOutcome(
            result=result,
            tau_current=tau_current,
            tau_new=tau_new,
            accepted=accepted,
            detail=detail,
            forgone_bound=(
                bound.forgone_bound(tau_new) if bound is not None else None
            ),
        )


def observed_cost(
    lattice: CubeLattice,
    selection: Sequence[str],
    observed: Mapping[SliceQuery, float],
) -> float:
    """τ of a selection under observed frequencies — the ledger both the
    acceptance test and the swap decision read (unseen patterns weigh 0).

    Builds only the graph it needs: the observed patterns against the
    selection's own structures plus the raw-cube fallback.  Unseen
    patterns would contribute 0 to τ and unselected structures cannot
    change a committed selection's τ, so this equals the old
    full-universe computation at any d — without enumerating 3^n
    patterns or n! indexes.
    """
    counts = {
        query: float(weight)
        for query, weight in observed.items()
        if float(weight) > 0
    }
    mined = MinedCandidates(
        schema_names=tuple(lattice.schema.names),
        queries=counts,
        view_attrs=[],
        index_keys={},
        total_weight=sum(counts.values()),
    )
    mined.ensure_view(frozenset(lattice.schema.names))  # raw-cube fallback
    mined.ensure_structures(selection)
    graph = QueryViewGraph.from_mined(lattice, mined)
    engine = BenefitEngine(graph)
    engine.replay_commit([n for n in selection if n in engine.structure_names])
    return engine.tau()
