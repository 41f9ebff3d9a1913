"""Divergent-serving smoke check: the CI gate behind repro.distributed.

End-to-end contract over a recorded query log:

1. plan the divergent fleet (:func:`repro.distributed.plan_divergent`):
   partition the log into N balanced slices by attribute-set similarity,
   advise every partition under the same per-replica budget, and price
   it against N identical copies of the workload-weighted serving
   advise;
2. serve the log through a routed :class:`~repro.serve.fleet.ReplicaFleet`
   (each query to its predicted-cheapest replica), killing one replica
   halfway so failover re-routes down the cost ranking;
3. assert **zero wrong answers** — every routed answer ``==`` its
   raw-cube scan (:func:`repro.checks.golden_answers`) — and a
   predicted-cost ratio ≤ 1.0 (divergence must never price the workload
   above identical copies).

Run it against a log produced by ``repro serve --record``::

    python -m repro serve --dims 4 --queries 300 --record obs.jsonl
    python -m repro.distributed.smoke --dims 4 --log obs.jsonl \\
        --partitions 3 --output divergent-report.json

Exits 0 when every check holds, 1 otherwise, 2 on bad input (a missing
or empty log: one ``error:`` line); the JSON report (the divergence
report plus the serving verdict) is written whether the checks pass or
fail, so CI uploads a useful artifact even on failure.

The fixture fact uses *integral* measures: replicas answer the same
query from different structures, and only integer-valued float64 sums
are bit-identical under every aggregation order.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.algorithms import ALGORITHMS
from repro.checks import (
    EXIT_FAILED,
    EXIT_OK,
    golden_answers,
    run_checked,
    score_answers,
)
from repro.core.costmodel import LinearCostModel
from repro.cube.query_log import pattern_counts
from repro.datasets.tpcd import tpcd_serving_fact
from repro.distributed import plan_divergent
from repro.io import iter_query_log, write_json
from repro.serve import ReplicaFleet, ServingError, validate_telemetry

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
    fact = tpcd_serving_fact(dims, integral_measures=True)
    model = LinearCostModel.from_fact(fact)

    log = list(iter_query_log(log_path, model.lattice.schema))
    if queries is not None:
        log = log[: int(queries)]
    if not log:
        raise ValueError(f"{log_path}: query log is empty, nothing to serve")

    partitioned, advice, router, report = plan_divergent(
        model, pattern_counts(log), algorithm, n_partitions, space
    )

    kill_at = len(log) // 2
    killed = None
    results = []
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
                results.append(fleet.serve(entry))
            except ServingError as error:
                results.append(error)
        fleet_stats = fleet.stats()
    finally:
        fleet.close()
    telemetry = validate_telemetry(fleet.telemetry_snapshot())
    wrong, failed = score_answers(results, golden_answers(fact, model, log))

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
        "space_per_replica": advice.space,
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
        "--algorithm", choices=sorted(ALGORITHMS), default="1greedy",
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
    return run_checked(lambda: _run(args))


def _run(args: argparse.Namespace) -> int:
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
        write_json(report, args.output)
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
        return EXIT_FAILED
    print("divergent-serving smoke ok")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
