"""Divergent-serving smoke check: the CI gate behind repro.distributed.

End-to-end contract over a recorded query log:

1. partition the log into N balanced slices by attribute-set similarity;
2. advise every partition under the same per-replica budget;
3. serve the log through a routed :class:`~repro.serve.fleet.ReplicaFleet`
   (each query to its predicted-cheapest replica), killing one replica
   halfway so failover re-routes down the cost ranking;
4. assert **zero wrong answers** — every routed answer byte-identical to
   a golden serial :class:`~repro.serve.server.QueryServer` run over the
   single-budget selection — and a predicted-cost ratio ≤ 1.0
   (divergence must never price the workload above identical copies).

Run it against a log produced by ``repro serve --record``::

    python -m repro serve --dims 4 --queries 300 --record obs.jsonl
    python -m repro.distributed.smoke --dims 4 --log obs.jsonl \\
        --partitions 3 --output divergent-report.json

Exits 0 when every check holds, 1 otherwise; the JSON report (the
divergence report plus the serving verdict) is written either way so CI
uploads a useful artifact even on failure.

The fixture fact uses *integral* measures: replicas answer the same
query from different structures, and only integer-valued float64 sums
are bit-identical under every aggregation order.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

#: Absolute slack for the predicted-cost-ratio comparison.
EPS = 1e-9


def run_smoke(
    dims: int,
    log_path: str,
    n_partitions: int = 3,
    space: Optional[float] = None,
    algorithm: str = "1greedy",
    queries: Optional[int] = None,
    kill_replica: Optional[int] = 0,
) -> dict:
    """Partition, advise, serve routed, and return the verdict report."""
    from repro.algorithms import FIT_STRICT, InnerLevelGreedy, RGreedy
    from repro.core.costmodel import LinearCostModel
    from repro.core.qvgraph import QueryViewGraph
    from repro.cube.query_log import pattern_counts
    from repro.datasets.tpcd import tpcd_serving_fact
    from repro.distributed import divergence_report, plan_divergent
    from repro.io import iter_query_log
    from repro.serve import (
        QueryServer,
        ReplicaFleet,
        ServingError,
        validate_telemetry,
    )

    fact = tpcd_serving_fact(dims, integral_measures=True)
    model = LinearCostModel.from_fact(fact)
    lattice = model.lattice
    schema = lattice.schema
    top_label = lattice.label(lattice.top)
    if space is None:
        space = 3.0 * lattice.size(lattice.top)
    make_algorithm = {
        "1greedy": lambda: RGreedy(1, fit=FIT_STRICT),
        "2greedy": lambda: RGreedy(2, fit=FIT_STRICT),
        "inner": lambda: InnerLevelGreedy(fit=FIT_STRICT),
    }[algorithm]

    log = list(iter_query_log(log_path, schema))
    if queries is not None:
        log = log[: int(queries)]
    if not log:
        raise ValueError(f"{log_path}: query log is empty, nothing to serve")
    counts = pattern_counts(log)

    partitioned, advice, router = plan_divergent(
        lattice,
        counts,
        make_algorithm(),
        space,
        n_partitions,
        seed=(top_label,),
        cost_model=model,
    )

    # the identical-copies reference: one advise over the whole workload
    identical = (
        make_algorithm()
        .run(
            QueryViewGraph.from_cube(lattice, frequencies=counts),
            space,
            seed=(top_label,),
        )
        .selected
    )
    report = divergence_report(
        model, counts, advice, identical, partitioned=partitioned, router=router
    )

    # golden serial answers over the identical selection
    with QueryServer(fact, identical, cost_model=model) as golden_server:
        golden = [golden_server.serve(entry).groups for entry in log]

    wrong = 0
    failed = 0
    kill_at = len(log) // 2
    killed = None
    fleet = ReplicaFleet(
        fact,
        advice.selections,
        cost_model=model,
        router=router,
    )
    try:
        for i, entry in enumerate(log):
            if (
                kill_replica is not None
                and i == kill_at
                and 0 <= kill_replica < len(fleet.replicas)
                and len(fleet.replicas) > 1
            ):
                fleet.replicas[kill_replica].kill()
                killed = kill_replica
            try:
                outcome = fleet.serve(entry)
            except ServingError:
                failed += 1
                continue
            if outcome.groups != golden[i]:
                wrong += 1
        fleet_stats = fleet.stats()
    finally:
        fleet.close()
    telemetry = validate_telemetry(fleet.telemetry_snapshot())

    ratio = report["predicted_cost_ratio"]
    checks = {
        "zero_wrong_answers": wrong == 0,
        "zero_failed_queries": failed == 0,
        "ratio_at_most_one": ratio <= 1.0 + EPS,
        "every_replica_nonempty": all(
            not p.empty for p in partitioned.partitions
        ),
    }
    report["smoke"] = {
        "dims": dims,
        "log": str(log_path),
        "queries": len(log),
        "partitions": n_partitions,
        "space_per_replica": space,
        "algorithm": algorithm,
        "killed_replica": killed,
        "wrong_answers": wrong,
        "failed_queries": failed,
        "fleet": telemetry["fleet"],
        "routed_dispatch": fleet_stats["routed_dispatch"],
        "checks": checks,
        "ok": all(checks.values()),
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.distributed.smoke",
        description="serve a recorded workload through a divergent routed "
        "fleet and verify byte-identical answers plus a predicted-cost "
        "ratio at most 1.0",
    )
    parser.add_argument(
        "--dims", type=int, default=4, choices=(3, 4, 5),
        help="serving-cube dimensionality the log was recorded on",
    )
    parser.add_argument(
        "--log", required=True, help="query log JSONL from repro serve --record"
    )
    parser.add_argument(
        "--partitions", type=int, default=3,
        help="replica count / workload partitions (default 3)",
    )
    parser.add_argument(
        "--space", type=float, default=None,
        help="per-replica space budget in rows (default: 3x the top view)",
    )
    parser.add_argument(
        "--algorithm", choices=("1greedy", "2greedy", "inner"),
        default="1greedy",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="serve only the first N log entries (default: all)",
    )
    parser.add_argument(
        "--kill-replica", type=int, default=0,
        help="replica to kill halfway through serving (default 0)",
    )
    parser.add_argument(
        "--no-kill", action="store_true",
        help="serve the whole log without the mid-run replica kill",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the divergence report (with the smoke verdict) here",
    )
    args = parser.parse_args(argv)

    report = run_smoke(
        args.dims,
        args.log,
        n_partitions=args.partitions,
        space=args.space,
        algorithm=args.algorithm,
        queries=args.queries,
        kill_replica=None if args.no_kill else args.kill_replica,
    )
    smoke = report["smoke"]
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    print(
        f"served {smoke['queries']} queries over {smoke['partitions']} "
        f"divergent replicas (killed: {smoke['killed_replica']}): "
        f"{smoke['wrong_answers']} wrong, {smoke['failed_queries']} failed, "
        f"predicted-cost ratio {report['predicted_cost_ratio']:.4f}"
    )
    for name, ok in smoke["checks"].items():
        print(f"  {name}: {'ok' if ok else 'FAILED'}")
    if not smoke["ok"]:
        print("divergent-serving smoke FAILED", file=sys.stderr)
        return 1
    print("divergent-serving smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
