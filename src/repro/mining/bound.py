"""Upper bound on the benefit forgone by candidate pruning.

Dropping candidates can only cost benefit, never correctness (the raw
cube always answers).  To keep that cost accountable, we compute, per
observed query ``q`` with weight ``f_q``:

``c_ideal(q)``
    the cheapest cost any candidate in the *full* universe could give
    ``q`` — its own associated view ``view(attrs(q))`` with a fat index
    whose prefix covers all of ``q``'s selection attributes.  No
    selection under any space budget beats ``Σ f_q · c_ideal(q)``.

``c_kept(q)``
    the cheapest cost over the *mined* candidates (and the raw-data
    default) — what an unlimited budget could achieve post-pruning.

Then for any pruned selection with weighted cost ``τ_pruned``::

    τ_pruned − τ_full  ≤  τ_pruned − ideal_tau  =  forgone_bound(τ_pruned)

because the full-universe optimum (and every full-universe greedy
selection) still satisfies ``τ_full ≥ ideal_tau``.  The bound needs no
full-universe run to evaluate, so it scales to d≥9 where the full graph
cannot be built — and at small d it is directly checkable against a
real full advise, which is exactly what the CI smoke does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.index import Index
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import EdgeKernel
from repro.core.view import View

from repro.mining.candidates import MinedCandidates


@dataclass(frozen=True)
class BenefitBound:
    """Workload-weighted cost floors bracketing what pruning can forgo.

    ``ideal_tau ≤ kept_tau ≤ default_tau``; the gap ``kept_tau −
    ideal_tau`` is the benefit pruning has irrevocably put out of reach
    (at unlimited budget), and :meth:`forgone_bound` turns any achieved
    ``τ_pruned`` into a certified bound on ``τ_pruned − τ_full``.
    """

    ideal_tau: float
    kept_tau: float
    default_tau: float
    total_weight: float

    @property
    def pruning_gap(self) -> float:
        """Benefit unreachable after pruning, at unlimited budget."""
        return max(0.0, self.kept_tau - self.ideal_tau)

    def forgone_bound(self, tau_pruned: float) -> float:
        """Upper bound on ``τ_pruned − τ_full`` for any full-universe
        selection under any space budget."""
        return max(0.0, tau_pruned - self.ideal_tau)

    def relative_forgone(self, tau_pruned: float, baseline: Optional[float] = None) -> float:
        """:meth:`forgone_bound` as a fraction of ``baseline`` (default:
        the all-raw-data cost ``default_tau``)."""
        base = self.default_tau if baseline is None else baseline
        if base <= 0:
            return 0.0
        return self.forgone_bound(tau_pruned) / base

    def to_dict(self) -> dict:
        return {
            "ideal_tau": self.ideal_tau,
            "kept_tau": self.kept_tau,
            "default_tau": self.default_tau,
            "pruning_gap": self.pruning_gap,
            "total_weight": self.total_weight,
        }


def _running_total(values: np.ndarray) -> float:
    """Left-to-right sum, as ``total += value`` in a loop would give —
    ``np.sum``'s pairwise order could change the last bits."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def compute_benefit_bound(mined: MinedCandidates, lattice: CubeLattice) -> BenefitBound:
    """Price the mined candidate set against the full universe's floor,
    under the linear cost model with the top view as the raw data.

    Both floors come from :class:`~repro.core.qvgraph.EdgeKernel`, the
    kernel :meth:`~repro.core.qvgraph.QueryViewGraph.from_mined` compiles
    with: ``c_ideal`` in closed form (the associated view, the smaller of
    its scan and its selection-first fat index, or the raw data), and
    ``c_kept`` as each query's minimum over the mined candidates' edge
    costs and the raw data.  Raises ``ValueError`` for a mined view
    outside the lattice or a query over attributes outside the schema.
    """
    kernel = EdgeKernel(lattice, list(mined.queries))
    weights = np.fromiter(mined.queries.values(), dtype=np.float64, count=len(mined.queries))
    default = np.full(weights.size, float(kernel.default_cost))

    # the associated view view(attrs(q)) is the smallest answering view,
    # and a fat key leading with every selection attribute gives it the
    # largest usable prefix E = selection(q): no plan beats that cost,
    # and it never exceeds the view scan (an empty E costs the scan)
    ideal = np.minimum(kernel.index_cost(kernel.attr_masks, kernel.sel_masks), default)

    kept = default.copy()
    for attrs in mined.view_attrs:
        view = View(attrs)
        indexes = [Index(view, key) for key in mined.index_keys.get(attrs, ())]
        for query_pos, _structure_pos, costs in kernel.edge_blocks(view, indexes):
            np.minimum.at(kept, query_pos, costs)

    return BenefitBound(
        ideal_tau=_running_total(weights * ideal),
        kept_tau=_running_total(weights * kept),
        default_tau=_running_total(weights * default),
        total_weight=mined.total_weight,
    )
