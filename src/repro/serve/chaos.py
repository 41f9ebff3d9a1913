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
compared ``==`` against a golden serial run — and **exact fault
accounting**: the injected-fault count reconciles with the telemetry
counters, so a fault the counters missed fails the harness.

Answers are compared on an integer-measure variant of the dense serving
fixture: integer sums are exact in float64 regardless of accumulation
order, so raw-cube rescues are *byte-identical* to the structure path
(verified 120/120 at d=4) rather than merely close — wrong answers
cannot hide in float reassociation.

Run ``python -m repro.serve.chaos --dims 4`` (the CI smoke matrix).
Exit codes: 0 all scenarios pass, 1 any failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms.rgreedy import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.costmodel import LinearCostModel
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import enumerate_slice_queries
from repro.cube.generator import dense_fact_table
from repro.cube.query_log import LogEntry, generate_query_log
from repro.datasets.tpcd import tpcd_serving_schema
from repro.engine.table import FactTable
from repro.serve.adaptive import AdaptiveReselector, ReadviseOutcome
from repro.serve.fleet import ReplicaFleet
from repro.serve.resilience import RetryPolicy, ServingError
from repro.serve.server import QueryServer
from repro.serve.telemetry import RAW_LABEL, validate_telemetry

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
        return {
            "scenario": self.scenario,
            "queries": self.queries,
            "injected": self.injected,
            "accounted": self.accounted,
            "wrong_answers": self.wrong_answers,
            "failed_queries": self.failed_queries,
            "ok": self.ok,
            "detail": self.detail,
            **self.extra,
        }


@dataclass
class ChaosContext:
    """Shared fixtures: fact table, cost model, selection, workload,
    golden answers."""

    dims: int
    fact: FactTable
    cost_model: LinearCostModel
    selection: List[str]
    log: List[LogEntry]
    golden: List[dict]
    golden_structures: List[str]


def integer_measure_fact(dims: int, rng: int = 0) -> FactTable:
    """The dense serving fixture with measures rounded to integers —
    integer sums are order-independent in float64, so every execution
    path yields byte-identical answers."""
    schema = tpcd_serving_schema(dims)
    base = dense_fact_table(schema, rng=rng)
    return FactTable(schema, base.columns, np.rint(base.measures))


def advise_selection(cost_model: LinearCostModel, space_factor: float = 3.0):
    lattice = cost_model.lattice
    engine = BenefitEngine(QueryViewGraph.from_cube(lattice))
    result = RGreedy(1).run(
        engine,
        space_factor * lattice.size(lattice.top),
        seed=(lattice.label(lattice.top),),
    )
    return list(result.selected)


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
    fact = integer_measure_fact(dims, rng=seed)
    cost_model = LinearCostModel.from_fact(fact)
    selection = advise_selection(cost_model)
    log = unique_entries(
        generate_query_log(fact.schema, queries, rng=seed + 1)
    )
    golden_server = QueryServer(fact, selection, cost_model=cost_model)
    outcomes = golden_server.serve_batch(log)
    return ChaosContext(
        dims=dims,
        fact=fact,
        cost_model=cost_model,
        selection=selection,
        log=log,
        golden=[outcome.groups for outcome in outcomes],
        golden_structures=[outcome.structure for outcome in outcomes],
    )


def _score_answers(results, golden) -> Dict[str, int]:
    """Wrong answers and typed failures over fleet results."""
    wrong = 0
    failed = 0
    for result, reference in zip(results, golden):
        if isinstance(result, ServingError):
            failed += 1
        elif result.groups != reference:
            wrong += 1
    return {"wrong": wrong, "failed": failed}


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
    results = fleet.serve_many(ctx.log, client_threads=4)
    fleet.close()
    score = _score_answers(results, ctx.golden)
    resilience = _merged_resilience(fleet)
    accounted = resilience["worker_crashes"]
    ok = (
        score["wrong"] == 0
        and score["failed"] == 0
        and injected[0] == kills
        and accounted == kills
        and resilience["worker_restarts"] == kills
    )
    return ScenarioReport(
        scenario="worker_kill",
        queries=len(ctx.log),
        injected=injected[0],
        accounted=accounted,
        wrong_answers=score["wrong"],
        failed_queries=score["failed"],
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
    from collections import Counter

    counts = Counter(
        label for label in ctx.golden_structures if label != RAW_LABEL
    )
    target = counts.most_common(1)[0][0]
    threshold = 3
    fleet = ReplicaFleet(
        ctx.fact,
        ctx.selection,
        replicas=replicas,
        cost_model=ctx.cost_model,
        breaker_threshold=threshold,
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
    results = fleet.serve_many(ctx.log, client_threads=4)
    fleet.close()
    score = _score_answers(results, ctx.golden)
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
        <= threshold
        for replica in fleet.replicas
    )
    ok = (
        score["wrong"] == 0
        and score["failed"] == 0
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
        wrong_answers=score["wrong"],
        failed_queries=score["failed"],
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
    results = fleet.serve_many(ctx.log, client_threads=4)
    fleet.checker.stop()
    # abandon the slow replica's stale backlog instead of serving it at
    # 120 ms/query; its in-flight batch still completes (and is counted)
    fleet.close(drain=False)
    score = _score_answers(results, ctx.golden)
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
        score["wrong"] == 0
        and score["failed"] == 0
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
        wrong_answers=score["wrong"],
        failed_queries=score["failed"],
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
        space=3.0 * lattice.size(lattice.top),
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
    # a skewed workload (one hot pattern) guarantees drift fires
    hot = ctx.log[0]
    skew = [
        entry if pos % 2 else hot for pos, entry in enumerate(ctx.log)
    ]
    skew_golden = {id(hot): ctx.golden[0]}
    outcomes = []
    for entry in skew:
        outcomes.append(server.serve(entry))
    server.close()
    wrong = 0
    for pos, (entry, outcome) in enumerate(zip(skew, outcomes)):
        reference = ctx.golden[0] if entry is hot else ctx.golden[pos]
        if outcome.groups != reference:
            wrong += 1
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
    del skew_golden
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
        return 1
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
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report -> {args.json}")
    if failures:
        print(f"{failures} scenario(s) FAILED")
        return 1
    print(f"all {len(reports)} chaos scenarios passed "
          "(zero wrong answers, faults fully accounted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
