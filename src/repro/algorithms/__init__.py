"""Selection algorithms: r-greedy, inner-level greedy, baselines, optimal."""

from repro.algorithms.advise import (
    ALGORITHMS,
    serving_advise,
    serving_space,
    workload_weights,
)
from repro.algorithms.base import FIT_PAPER, FIT_STRICT, SelectionAlgorithm, as_engine
from repro.algorithms.guarantees import (
    guarantee_curve,
    inner_level_guarantee,
    inner_level_space_bound,
    knee_of_curve,
    r_greedy_guarantee,
    r_greedy_limit,
    r_greedy_space_bound,
)
from repro.algorithms.hru import HRUGreedy
from repro.algorithms.inner_level import InnerLevelGreedy
from repro.algorithms.local_search import LocalSearchRefiner
from repro.algorithms.maintenance_aware import (
    MaintenanceAwareGreedy,
    structure_update_costs,
)
from repro.algorithms.pbs import PickBySmallest
from repro.algorithms.optimal import (
    BranchAndBoundOptimal,
    SearchBudgetExceeded,
    exhaustive_optimal,
)
from repro.algorithms.rgreedy import RGreedy
from repro.algorithms.two_step import TwoStep

__all__ = [
    "ALGORITHMS",
    "FIT_PAPER",
    "FIT_STRICT",
    "BranchAndBoundOptimal",
    "HRUGreedy",
    "InnerLevelGreedy",
    "LocalSearchRefiner",
    "MaintenanceAwareGreedy",
    "PickBySmallest",
    "RGreedy",
    "SearchBudgetExceeded",
    "SelectionAlgorithm",
    "TwoStep",
    "as_engine",
    "exhaustive_optimal",
    "guarantee_curve",
    "inner_level_guarantee",
    "inner_level_space_bound",
    "knee_of_curve",
    "r_greedy_guarantee",
    "r_greedy_limit",
    "r_greedy_space_bound",
    "serving_advise",
    "serving_space",
    "structure_update_costs",
    "workload_weights",
]
