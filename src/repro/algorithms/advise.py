"""Algorithms by name, and the serving advise every tool shares.

The command-line tools and the check harnesses take an algorithm by
name (:data:`ALGORITHMS`) and advise a serving cube the same way
(:func:`serving_advise`): strict fit, the top view seeded, a budget of
:func:`serving_space` rows, and the workload weighted by
:func:`workload_weights` when one was observed.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.algorithms.base import FIT_STRICT, SelectionAlgorithm
from repro.algorithms.hru import HRUGreedy
from repro.algorithms.inner_level import InnerLevelGreedy
from repro.algorithms.rgreedy import RGreedy
from repro.algorithms.two_step import TwoStep
from repro.core.lattice import CubeLattice
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.selection import SelectionResult

#: Selection algorithms by the name the command-line tools take, each a
#: factory of the space-fit policy.
ALGORITHMS: Dict[str, Callable[[str], SelectionAlgorithm]] = {
    "1greedy": lambda fit: RGreedy(1, fit=fit),
    "2greedy": lambda fit: RGreedy(2, fit=fit),
    "3greedy": lambda fit: RGreedy(3, fit=fit),
    "inner": lambda fit: InnerLevelGreedy(fit=fit),
    "two-step": lambda fit: TwoStep(0.5, fit=fit),
    "hru": lambda fit: HRUGreedy(fit=fit),
}


def serving_space(lattice: CubeLattice) -> float:
    """The default serving budget: three times the top view's rows."""
    return 3.0 * lattice.size(lattice.top)


def workload_weights(
    lattice: CubeLattice, counts: Mapping[SliceQuery, float]
) -> Dict[SliceQuery, float]:
    """An observed workload's weights over all 3^d slice patterns.

    Each pattern weighs its observed count, and a pattern never observed
    weighs 0.  :meth:`QueryViewGraph.from_cube` gives a pattern missing
    from its frequencies weight 1 (the paper's equiprobable default), so
    an observed workload goes through here before it reaches the graph.
    """
    return {
        query: float(counts.get(query, 0.0))
        for query in enumerate_slice_queries(lattice.schema.names)
    }


def serving_advise(
    cost_model,
    algorithm: str = "1greedy",
    space: Optional[float] = None,
    counts: Optional[Mapping[SliceQuery, float]] = None,
) -> SelectionResult:
    """Advise one selection for a serving cube.

    Runs the named algorithm (strict fit, top view seeded) on the full
    pattern universe of ``cost_model``'s lattice under ``space`` rows
    (default :func:`serving_space`).  Without ``counts`` every pattern
    weighs 1; with them, the weights are :func:`workload_weights`.
    """
    lattice = cost_model.lattice
    if space is None:
        space = serving_space(lattice)
    frequencies = None if counts is None else workload_weights(lattice, counts)
    graph = QueryViewGraph.from_cube(lattice, frequencies=frequencies)
    return ALGORITHMS[algorithm](FIT_STRICT).run(
        graph, space, seed=(lattice.label(lattice.top),)
    )
