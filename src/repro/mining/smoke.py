"""Pruned-advise smoke check: the CI gate behind workload mining.

Mines a recorded query log, advises on the pruned candidate space and on
the full 3^n universe under the *same* observed frequencies (the full
run is the shared workload-weighted serving advise,
:func:`repro.algorithms.serving_advise`), and checks the certified
guarantees end to end:

1. ``ideal_tau`` really is a floor: the full-universe selection's τ is
   never below it.
2. The forgone-benefit bound holds: ``τ_pruned − τ_full`` never exceeds
   ``forgone_bound(τ_pruned)``.

Run it against a log produced by ``repro serve --record``::

    python -m repro serve --dims 4 --queries 400 --record obs.jsonl
    python -m repro.mining.smoke --dims 4 --log obs.jsonl \\
        --output mined-report.json

Exits 0 when both checks hold, 1 otherwise, 2 on bad input (a missing
or empty log: one ``error:`` line); the JSON report (the mined candidate
space plus the measured τ values) is written whether the checks pass or
fail, so CI uploads a useful artifact even on failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.algorithms import ALGORITHMS, FIT_STRICT, serving_advise, serving_space
from repro.checks import EXIT_FAILED, EXIT_OK, run_checked
from repro.core.costmodel import LinearCostModel
from repro.core.qvgraph import QueryViewGraph
from repro.cube.query_log import pattern_counts
from repro.datasets.tpcd import tpcd_serving_fact
from repro.io import iter_query_log, write_json
from repro.mining import compute_benefit_bound, mine_candidates, mining_report

#: Absolute slack for float comparisons between two greedy runs.
EPS = 1e-6


def run_smoke(
    dims: int,
    log_path: str,
    space: Optional[float] = None,
    algorithm: str = "1greedy",
    support: Optional[float] = None,
) -> dict:
    """Mine ``log_path``, advise pruned + full, and return the verdict."""
    model = LinearCostModel.from_fact(tpcd_serving_fact(dims))
    lattice = model.lattice
    schema = lattice.schema
    top_label = lattice.label(lattice.top)
    if space is None:
        space = serving_space(lattice)

    counts = pattern_counts(iter_query_log(log_path, schema))
    if not counts:
        raise ValueError(f"{log_path}: query log is empty, nothing to mine")
    kwargs = {} if support is None else {"support": support}
    mined = mine_candidates(counts, schema.names, **kwargs)
    mined.ensure_structures([top_label])
    bound = compute_benefit_bound(mined, lattice)

    pruned_graph = QueryViewGraph.from_mined(lattice, mined)
    pruned = ALGORITHMS[algorithm](FIT_STRICT).run(
        pruned_graph, space, seed=(top_label,)
    )
    full = serving_advise(model, algorithm, space, counts)

    forgone = bound.forgone_bound(pruned.tau)
    ideal_is_floor = full.tau >= bound.ideal_tau - EPS
    bound_holds = pruned.tau - full.tau <= forgone + EPS
    report = mining_report(mined, bound, lattice)
    report["smoke"] = {
        "dims": dims,
        "log": str(log_path),
        "space": space,
        "algorithm": algorithm,
        "tau_pruned": pruned.tau,
        "tau_full": full.tau,
        "tau_gap": pruned.tau - full.tau,
        "forgone_bound": forgone,
        "selected_pruned": list(pruned.selected),
        "selected_full": list(full.selected),
        "checks": {
            "ideal_is_floor": ideal_is_floor,
            "bound_holds": bound_holds,
        },
        "ok": ideal_is_floor and bound_holds,
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.mining.smoke",
        description="verify the pruned-advise forgone-benefit bound "
        "against a full-universe advise on the same observed workload",
    )
    parser.add_argument(
        "--dims", type=int, default=4, choices=(3, 4, 5),
        help="serving-cube dimensionality the log was recorded on",
    )
    parser.add_argument(
        "--log", required=True, help="query log JSONL from repro serve --record"
    )
    parser.add_argument(
        "--space", type=float, default=None,
        help="space budget in rows (default: 3x the top view)",
    )
    parser.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="1greedy",
    )
    parser.add_argument(
        "--support", type=float, default=None,
        help="mining support threshold (default 0.01)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the mined-candidate report (with the smoke verdict) here",
    )
    args = parser.parse_args(argv)
    return run_checked(lambda: _run(args))


def _run(args: argparse.Namespace) -> int:
    report = run_smoke(
        args.dims, args.log,
        space=args.space, algorithm=args.algorithm, support=args.support,
    )
    smoke = report["smoke"]
    if args.output:
        write_json(report, args.output)
    print(
        f"pruned tau {smoke['tau_pruned']:g} vs full tau "
        f"{smoke['tau_full']:g} (gap {smoke['tau_gap']:g}, "
        f"certified bound {smoke['forgone_bound']:g})"
    )
    for name, ok in smoke["checks"].items():
        print(f"  {name}: {'ok' if ok else 'FAILED'}")
    if not smoke["ok"]:
        print("pruned-advise smoke FAILED", file=sys.stderr)
        return EXIT_FAILED
    print("pruned-advise smoke ok")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
