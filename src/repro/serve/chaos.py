"""Serving chaos harness: inject faults into live runs, prove correctness.

Sibling of :mod:`repro.runtime.faults` (which kills *selection* runs at
stage boundaries); this module attacks the *serving* stack.  Four fault
classes, one scenario each:

``worker_kill``
    Front-end dispatchers die mid-batch (via the supervision crash
    hook).  The fleet must re-route every affected query; supervision
    must restart every dispatcher; ``worker_crashes``/``worker_restarts``
    must equal the kills injected.
``structure_poison``
    Every execution against one materialized structure raises (a
    corrupted view/index).  Each poisoned execution must be rescued
    from the raw cube with a byte-identical answer, the breaker must
    trip within its threshold on every replica, and
    ``executor_errors``/``raw_rescues`` must equal the injections.
``slow_executor``
    One replica's executor gains ~120 ms per execution.  Queries that
    hit it must time out and succeed on the other replica; health
    probes must take the slow replica out of rotation; the injected
    sleeps must reconcile exactly with the slow latency samples in the
    replica's telemetry plus the slow probes in the checker's history;
    fleet-level unavailability must stay zero.
``mid_swap_crash``
    Every adaptive hot swap crashes inside materialization.  The old
    generation must keep serving (byte-identical answers, generation
    pinned at 0) and ``readvise_failures`` must equal the crashes.

Every scenario asserts **zero wrong answers** — each query's groups are
compared ``==`` against its raw-cube scan
(:func:`repro.checks.golden_answers`) — and **exact fault accounting**:
the injected-fault count reconciles with the telemetry counters, so a
fault the counters missed fails the harness.

The fixture is the dense serving cube with integral measures
(``tpcd_serving_fact(dims, integral_measures=True)``), its selection the
shared serving advise (:func:`repro.algorithms.serving_advise`).
Integer sums are exact in float64 regardless of accumulation order, so
every path's answer is *byte-identical* to the raw scan rather than
merely close — wrong answers cannot hide in float reassociation.

Run ``python -m repro.serve.chaos --dims 4`` (the CI smoke matrix).
Exit codes: 0 all scenarios pass, 1 any failure, 2 bad input (one
``error:`` line).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.algorithms import RGreedy, serving_advise, serving_space
from repro.checks import (
    EXIT_FAILED,
    EXIT_OK,
    golden_answers,
    run_checked,
    score_answers,
)
from repro.core.costmodel import LinearCostModel
from repro.core.query import enumerate_slice_queries
from repro.cube.query_log import LogEntry, generate_query_log
from repro.datasets.tpcd import tpcd_serving_fact
from repro.distributed.routing import RoutingTable
from repro.engine.table import Answer, FactTable
from repro.io import write_json
from repro.serve.adaptive import AdaptiveReselector, ReadviseOutcome
from repro.serve.fleet import ReplicaFleet
from repro.serve.resilience import BREAKER_FAILURE_THRESHOLD, RetryPolicy
from repro.serve.server import QueryServer
from repro.serve.telemetry import validate_telemetry

SCENARIOS = ("worker_kill", "structure_poison", "slow_executor", "mid_swap_crash")


class InjectedFault(Exception):
    """Base of every fault the harness injects (not a ServingError on
    purpose: the *stack* must convert it into typed, accounted
    behavior)."""


class InjectedWorkerKill(InjectedFault):
    pass


class InjectedStructurePoison(InjectedFault):
    pass


class InjectedSwapCrash(InjectedFault):
    pass


@dataclass
class ScenarioReport:
    """One scenario's verdict and its fault-accounting reconciliation."""

    scenario: str
    queries: int
    injected: int
    accounted: int
    wrong_answers: int
    failed_queries: int
    ok: bool
    detail: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        document = asdict(self)
        extra = document.pop("extra")
        return {**document, **extra}


@dataclass
class ChaosContext:
    """Shared fixtures: fact table, cost model, selection, workload,
    golden answers."""

    dims: int
    fact: FactTable
    cost_model: LinearCostModel
    selection: List[str]
    log: List[LogEntry]
    golden: List[Answer]


def unique_entries(log: List[LogEntry]) -> List[LogEntry]:
    """Drop duplicate concrete queries so one entry == one execution
    (makes per-execution fault accounting exact)."""
    seen = set()
    out = []
    for entry in log:
        key = (entry.query, entry.values)
        if key not in seen:
            seen.add(key)
            out.append(entry)
    return out


def build_context(dims: int, queries: int, seed: int) -> ChaosContext:
    fact = tpcd_serving_fact(dims, rng=seed, integral_measures=True)
    cost_model = LinearCostModel.from_fact(fact)
    log = unique_entries(
        generate_query_log(fact.schema, queries, rng=seed + 1)
    )
    return ChaosContext(
        dims=dims,
        fact=fact,
        cost_model=cost_model,
        selection=list(serving_advise(cost_model).selected),
        log=log,
        golden=golden_answers(fact, cost_model, log),
    )


def _merged_resilience(fleet: ReplicaFleet) -> dict:
    return validate_telemetry(fleet.telemetry_snapshot())["resilience"]


# ----------------------------------------------------------- scenarios


def scenario_worker_kill(ctx: ChaosContext, replicas: int) -> ScenarioReport:
    """Kill front-end dispatchers mid-batch; supervision + retry recover."""
    kills = 3
    fleet = ReplicaFleet(
        ctx.fact,
        ctx.selection,
        replicas=replicas,
        cost_model=ctx.cost_model,
        retry=RetryPolicy(max_attempts=4, base_delay=0.005),
    )
    lock = threading.Lock()
    injected = [0]

    def crash_hook() -> None:
        with lock:
            if injected[0] < kills:
                injected[0] += 1
                raise InjectedWorkerKill(f"dispatcher kill #{injected[0]}")

    for replica in fleet.replicas:
        replica.frontend.crash_hook = crash_hook
    results = fleet.serve_many(ctx.log)
    fleet.close()
    wrong, failed = score_answers(results, ctx.golden)
    resilience = _merged_resilience(fleet)
    accounted = resilience["worker_crashes"]
    ok = (
        wrong == 0
        and failed == 0
        and injected[0] == kills
        and accounted == kills
        and resilience["worker_restarts"] == kills
    )
    return ScenarioReport(
        scenario="worker_kill",
        queries=len(ctx.log),
        injected=injected[0],
        accounted=accounted,
        wrong_answers=wrong,
        failed_queries=failed,
        ok=ok,
        detail=(
            f"{accounted} crashes / {resilience['worker_restarts']} restarts "
            f"/ {resilience['retries']} retries"
        ),
        extra={"restarts": resilience["worker_restarts"],
               "retries": resilience["retries"]},
    )


def scenario_structure_poison(
    ctx: ChaosContext, replicas: int
) -> ScenarioReport:
    """Poison the hottest structure; raw rescue + breaker trip."""
    router = RoutingTable(ctx.cost_model, [ctx.selection])
    picks = (router.route(entry.query) for entry in ctx.log)
    counts = Counter(pick.structure for pick in picks if not pick.fallback)
    target = counts.most_common(1)[0][0]
    fleet = ReplicaFleet(
        ctx.fact,
        ctx.selection,
        replicas=replicas,
        cost_model=ctx.cost_model,
        breaker_cooldown=600.0,  # no half-open probes inside the run
        retry=RetryPolicy(max_attempts=3, base_delay=0.005),
    )
    lock = threading.Lock()
    injected = [0]

    def poison(structure: str, entry: LogEntry) -> None:
        if structure == target:
            with lock:
                injected[0] += 1
            raise InjectedStructurePoison(f"poisoned {structure}")

    for replica in fleet.replicas:
        replica.server.fault_hook = poison
    results = fleet.serve_many(ctx.log)
    fleet.close()
    wrong, failed = score_answers(results, ctx.golden)
    resilience = _merged_resilience(fleet)
    errors = resilience["executor_errors"].get(target, 0)
    trips = resilience["breaker_trips"]
    tripped = [
        replica.replica_id
        for replica in fleet.replicas
        if replica.server.breaker.state(target) != "closed"
    ]
    per_replica_within_threshold = all(
        replica.server.telemetry.resilience_stats()["executor_errors"].get(
            target, 0
        )
        <= BREAKER_FAILURE_THRESHOLD
        for replica in fleet.replicas
    )
    ok = (
        wrong == 0
        and failed == 0
        and injected[0] > 0
        and errors == injected[0]
        and resilience["raw_rescues"] == injected[0]
        and trips == len(tripped) > 0
        and per_replica_within_threshold
    )
    return ScenarioReport(
        scenario="structure_poison",
        queries=len(ctx.log),
        injected=injected[0],
        accounted=errors,
        wrong_answers=wrong,
        failed_queries=failed,
        ok=ok,
        detail=(
            f"target {target}: {errors} errors rescued raw, breaker open on "
            f"replicas {tripped}, {resilience['breaker_short_circuits']} "
            "short-circuits"
        ),
        extra={
            "target": target,
            "breaker_trips": trips,
            "short_circuits": resilience["breaker_short_circuits"],
            "within_threshold": per_replica_within_threshold,
        },
    )


def scenario_slow_executor(
    ctx: ChaosContext, replicas: int
) -> ScenarioReport:
    """Slow one replica's executor; deadlines + probes route around it."""
    delay = 0.12
    deadline = 0.05
    fleet = ReplicaFleet(
        ctx.fact,
        ctx.selection,
        replicas=replicas,
        cost_model=ctx.cost_model,
        batch_size=4,  # bounds the in-flight tail of the slow replica
        retry=RetryPolicy(max_attempts=4, base_delay=0.005),
        query_deadline=deadline,
        strike_limit=2,
        probe_latency_threshold_us=delay * 0.5 * 1e6,
    )
    slow = fleet.replicas[0]
    lock = threading.Lock()
    injected = [0]

    def sleeper(structure: str, entry: LogEntry) -> None:
        with lock:
            injected[0] += 1
        time.sleep(delay)

    slow.server.fault_hook = sleeper
    fleet.checker.start(0.05)
    results = fleet.serve_many(ctx.log)
    fleet.checker.stop()
    # abandon the slow replica's stale backlog instead of serving it at
    # 120 ms/query; its in-flight batch still completes (and is counted)
    fleet.close(drain=False)
    wrong, failed = score_answers(results, ctx.golden)
    resilience = _merged_resilience(fleet)
    slow_cut_us = delay * 0.5 * 1e6
    slow_samples = sum(
        1
        for latency in slow.server.telemetry.latencies()
        if latency >= slow_cut_us
    )
    fast_leak = sum(
        1
        for replica in fleet.replicas[1:]
        for latency in replica.server.telemetry.latencies()
        if latency >= slow_cut_us
    )
    slow_probes = sum(
        1
        for record in fleet.checker.probe_history(slow.replica_id)
        if record["latency_us"] >= slow_cut_us
    )
    accounted = slow_samples + slow_probes
    unavailable = fleet.unavailable_seconds
    ok = (
        wrong == 0
        and failed == 0
        and injected[0] > 0
        and accounted == injected[0]
        and fast_leak == 0
        and resilience["deadline_timeouts"] >= 1
        and not slow.available
        and unavailable == 0.0
    )
    return ScenarioReport(
        scenario="slow_executor",
        queries=len(ctx.log),
        injected=injected[0],
        accounted=accounted,
        wrong_answers=wrong,
        failed_queries=failed,
        ok=ok,
        detail=(
            f"{slow_samples} slow queries + {slow_probes} slow probes, "
            f"{resilience['deadline_timeouts']} deadline timeouts, "
            f"replica 0 down {slow.downtime_seconds:.2f}s, fleet "
            f"unavailable {unavailable:.2f}s"
        ),
        extra={
            "deadline_timeouts": resilience["deadline_timeouts"],
            "retries": resilience["retries"],
            "slow_replica_down": not slow.available,
            "unavailable_seconds": unavailable,
        },
    )


def scenario_mid_swap_crash(
    ctx: ChaosContext, replicas: int
) -> ScenarioReport:
    """Crash every adaptive hot swap mid-materialization; the old
    generation keeps serving."""
    lattice = ctx.cost_model.lattice
    advised = {
        query: 1.0 for query in enumerate_slice_queries(lattice.schema.names)
    }
    reselector = AdaptiveReselector(
        lattice,
        RGreedy(1),
        space=serving_space(lattice),
        seed=(lattice.label(lattice.top),),
        margin=0.0,
    )

    class ForcedAccept:
        """Force-accept every genuine re-advise so the (crashing) swap
        path runs deterministically."""

        def __init__(self, inner):
            self.inner = inner

        def readvise(self, observed, current):
            outcome = self.inner.readvise(observed, current)
            if outcome.result is None:
                return outcome
            return ReadviseOutcome(
                result=outcome.result,
                tau_current=outcome.tau_current,
                tau_new=outcome.tau_new,
                accepted=True,
                detail="forced accept (chaos)",
            )

    server = QueryServer(
        ctx.fact,
        ctx.selection,
        cost_model=ctx.cost_model,
        advised=advised,
        reselector=ForcedAccept(reselector),
        drift_threshold=0.2,
        drift_min_queries=40,
        background=False,  # crash on the serving path, deterministically
    )
    injected = [0]
    real_materialize = server._materialize

    def crashing_materialize(names, generation):
        if generation >= 1:
            injected[0] += 1
            raise InjectedSwapCrash(f"mid-swap crash at generation {generation}")
        return real_materialize(names, generation)

    server._materialize = crashing_materialize
    # a skewed workload (every other query the first one) guarantees
    # drift fires
    picks = [pos if pos % 2 else 0 for pos in range(len(ctx.log))]
    skew = [ctx.log[pos] for pos in picks]
    outcomes = [server.serve(entry) for entry in skew]
    server.close()
    wrong, __ = score_answers(outcomes, [ctx.golden[pos] for pos in picks])
    document = validate_telemetry(server.telemetry_snapshot())
    failures = document["resilience"]["readvise_failures"]
    ok = (
        wrong == 0
        and injected[0] >= 1
        and failures == injected[0]
        and server.state.generation == 0
        and server.swap_count == 0
        and document["swaps"] == 0
    )
    return ScenarioReport(
        scenario="mid_swap_crash",
        queries=len(skew),
        injected=injected[0],
        accounted=failures,
        wrong_answers=wrong,
        failed_queries=0,
        ok=ok,
        detail=(
            f"{injected[0]} swap crashes, generation pinned at "
            f"{server.state.generation}, {failures} readvise_failures"
        ),
        extra={"generation": server.state.generation,
               "readvises": server.readvise_count},
    )


RUNNERS: Dict[str, Callable] = {
    "worker_kill": scenario_worker_kill,
    "structure_poison": scenario_structure_poison,
    "slow_executor": scenario_slow_executor,
    "mid_swap_crash": scenario_mid_swap_crash,
}


def run_matrix(
    dims: int = 4,
    queries: int = 300,
    replicas: int = 2,
    seed: int = 0,
    scenarios: Optional[List[str]] = None,
) -> List[ScenarioReport]:
    names = list(scenarios) if scenarios else list(SCENARIOS)
    ctx = build_context(dims, queries, seed)
    reports = []
    for name in names:
        reports.append(RUNNERS[name](ctx, replicas))
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description=(
            "Inject dispatcher kills, structure poison, slow executors, and "
            "mid-swap crashes into live serving runs; assert zero wrong "
            "answers and exact per-fault telemetry accounting."
        ),
    )
    parser.add_argument("--dims", type=int, default=4)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIOS,
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write the fault-accounting report here"
    )
    args = parser.parse_args(argv)
    return run_checked(lambda: _run(args))


def _run(args: argparse.Namespace) -> int:
    try:
        reports = run_matrix(
            dims=args.dims,
            queries=args.queries,
            replicas=args.replicas,
            seed=args.seed,
            scenarios=args.scenario,
        )
    except InjectedFault as exc:  # an injected fault escaped the stack
        print(f"FATAL: injected fault leaked out of the serving stack: {exc!r}")
        return EXIT_FAILED
    failures = 0
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(
            f"[{status}] {report.scenario}: {report.queries} queries, "
            f"{report.injected} faults injected / {report.accounted} "
            f"accounted, {report.wrong_answers} wrong, "
            f"{report.failed_queries} failed — {report.detail}"
        )
        if not report.ok:
            failures += 1
    if args.json:
        document = {
            "dims": args.dims,
            "queries": args.queries,
            "replicas": args.replicas,
            "seed": args.seed,
            "scenarios": [report.to_json() for report in reports],
            "failures": failures,
        }
        write_json(document, args.json)
        print(f"report -> {args.json}")
    if failures:
        print(f"{failures} scenario(s) FAILED")
        return EXIT_FAILED
    print(f"all {len(reports)} chaos scenarios passed "
          "(zero wrong answers, faults fully accounted)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
