#!/usr/bin/env python
"""Selection-pipeline benchmark driver.

Runs the selection benchmarks through pytest-benchmark, measures the
end-to-end pipeline (graph compile + engine compile + 1-greedy +
2-greedy) at d=5, 6 and 7, measures query serving on the d=5 TPC-D
workload (qps and latency percentiles: per-query, batched, cached, and
through replica fleets), and writes everything to
``benchmarks/BENCH_selection.json``.

The committed copy of that file doubles as the regression baseline: a
run whose pytest-benchmark medians or pipeline timings exceed the
committed numbers by more than ``REGRESSION_FACTOR`` exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # measure, gate, rewrite
    PYTHONPATH=src python benchmarks/run_bench.py --check    # measure + gate only
    PYTHONPATH=src python benchmarks/run_bench.py --no-gate  # measure + rewrite only
    PYTHONPATH=src python benchmarks/run_bench.py --skip-d7  # for quick iterations
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_selection.json"
#: ``--check`` without a committed baseline: distinct from a regression (1)
EXIT_NO_BASELINE = 4
REGRESSION_FACTOR = 2.0
#: timings below this are dominated by noise; never gate on them
GATE_FLOOR_SECONDS = 0.01

BENCH_FILES = ["bench_algorithms_scaling.py"]
#: pytest-benchmark node substrings included in the gate
GATED_BENCHES = (
    "test_bench_rgreedy_scaling",
    "test_bench_inner_level_scaling",
    "test_bench_engine_compilation",
    "test_bench_from_cube_vectorized_d6",
    "test_bench_rgreedy1_d6_sparse",
)


def run_pytest_benchmarks() -> dict:
    """Run the benchmark files under pytest-benchmark; return name → median s."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(HERE / f) for f in BENCH_FILES],
        "--benchmark-only",
        "-q",
        f"--benchmark-json={json_path}",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark pytest run failed ({proc.returncode})")
    with open(json_path) as fh:
        payload = json.load(fh)
    medians = {}
    for bench in payload.get("benchmarks", []):
        medians[bench["name"]] = bench["stats"]["median"]
    return medians


def _pipeline(n_dims: int, include_r2: bool = True, repeats: int = 2) -> dict:
    """Time one end-to-end selection pipeline.

    Takes the best of ``repeats`` runs (per-component): a single cold
    measurement jitters enough to trip the 2x gate spuriously.
    """
    best = None
    for _ in range(max(1, repeats)):
        timings = _pipeline_once(n_dims, include_r2)
        if best is None or timings["total"] < best["total"]:
            best = timings
    return best


def _pipeline_once(n_dims: int, include_r2: bool) -> dict:
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.qvgraph import QueryViewGraph

    from bench_algorithms_scaling import budget_of, cube_lattice

    lattice = cube_lattice(n_dims)
    timings = {}
    t0 = time.perf_counter()
    graph = QueryViewGraph.from_cube(lattice)
    timings["from_cube"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    engine = BenefitEngine(graph)
    timings["engine"] = time.perf_counter() - t0
    space = budget_of(engine)
    t0 = time.perf_counter()
    r1 = RGreedy(1).run(engine, space)
    timings["rgreedy1"] = time.perf_counter() - t0
    if include_r2:
        t0 = time.perf_counter()
        RGreedy(2).run(engine, space)
        timings["rgreedy2"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())
    timings["n_selected_r1"] = len(r1.selected)
    return timings


def measure_pipelines(skip_d7: bool) -> dict:
    out = {
        "d5_current": _pipeline(5),
        "d6_current": _pipeline(6),
    }
    if not skip_d7:
        # d=7 is the scale target, measured once, including the 2-greedy
        # leg (~900 stages over ~13.8k structures).
        out["d7_current"] = _pipeline(7, include_r2=True, repeats=1)
    return out


def measure_checkpoint_overhead(n_dims: int = 5, repeats: int = 3) -> dict:
    """Cost of stage checkpointing on the d=5 selection pipeline.

    Times the ``d5_current`` pipeline (graph compile + engine compile +
    1-greedy + 2-greedy) with throttled on-disk checkpoints (the default
    interval) on both greedy legs, measuring the time spent inside the
    checkpoint path (``StageTracker._notify`` — stage recording, the
    boundary snapshot, budget checks, and the throttled write) within
    the *same* run.  Comparing two separate end-to-end runs instead
    drowns the few ms of true overhead in clock-speed drift.  The
    acceptance bar is <= 5% overhead for the on-disk default.
    """
    import statistics
    import tempfile

    from repro.algorithms import base as algorithms_base
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.qvgraph import QueryViewGraph
    from repro.runtime import RunContext

    from bench_algorithms_scaling import budget_of, cube_lattice

    lattice = cube_lattice(n_dims)

    def pipeline(checkpoint_dir):
        """Run the d5_current pipeline; return (total, checkpoint path) s."""
        spent = 0.0
        original = algorithms_base.StageTracker._notify

        def timed_notify(self, stage, scope):
            nonlocal spent
            t0 = time.perf_counter()
            try:
                return original(self, stage, scope)
            finally:
                spent += time.perf_counter() - t0

        algorithms_base.StageTracker._notify = timed_notify
        try:
            t0 = time.perf_counter()
            graph = QueryViewGraph.from_cube(lattice)
            engine = BenefitEngine(graph)
            space = budget_of(engine)
            for leg, algorithm in enumerate((RGreedy(1), RGreedy(2))):
                algorithm.run(
                    engine,
                    space,
                    context=RunContext(
                        checkpoint_path=checkpoint_dir / f"leg{leg}.ckpt"
                    ),
                )
            total = time.perf_counter() - t0
        finally:
            algorithms_base.StageTracker._notify = original
        return total, spent

    with tempfile.TemporaryDirectory() as tmp:
        pipeline(Path(tmp))  # warm up
        samples = [pipeline(Path(tmp)) for _ in range(max(3, repeats))]
    overheads = [spent / (total - spent) for total, spent in samples]
    base = statistics.median(total - spent for total, spent in samples)
    return {
        "base_seconds": base,
        "disk_checkpoint_seconds": statistics.median(t for t, __ in samples),
        "disk_overhead": statistics.median(overheads),
    }


def measure_serving(n_dims: int = 5, n_queries: int = 500, repeats: int = 2) -> dict:
    """Queries/sec and latency percentiles serving the d=5 TPC-D workload.

    Replays the same synthetic log through a materialized selection
    across the serving matrix: per-query execution (``batch1``, the
    pre-batching reference shape), the vectorized batched path, and the
    batched path with the result cache on (best of ``repeats`` cold runs
    each — cache legs only benefit from repetition *within* the log).
    These legs are gated like the pipeline timings; the fleet legs are
    informational (their client threads' wall-clock depends on the
    runner's core count).
    """
    from repro.algorithms import serving_advise
    from repro.core.costmodel import LinearCostModel
    from repro.cube.query_log import generate_query_log
    from repro.datasets.tpcd import tpcd_serving_fact, tpcd_serving_schema
    from repro.serve import QueryServer, ResultCache

    schema = tpcd_serving_schema(n_dims)
    fact = tpcd_serving_fact(n_dims)
    model = LinearCostModel.from_fact(fact)
    selection = serving_advise(model).selected
    log = generate_query_log(schema, n_queries, rng=0)

    def leg(cached: bool = False, batch_size: int = None) -> dict:
        best = None
        for _ in range(max(1, repeats)):
            server = QueryServer(
                fact,
                selection,
                cost_model=model,
                cache=ResultCache() if cached else None,
                keep_records=False,
            )
            report = server.replay(log, batch_size=batch_size)
            assert report.fallbacks == 0, "bench workload must not fall back"
            timings = {
                "queries": report.queries,
                "batch_size": report.batch_size,
                "cache": cached,
                "cache_hits": report.cache_hits,
                "seconds": report.seconds,
                "qps": report.qps,
                "p50_us": report.p50_us,
                "p99_us": report.p99_us,
            }
            if best is None or timings["seconds"] < best["seconds"]:
                best = timings
        return best

    out = {
        f"d{n_dims}_batch1": leg(batch_size=1),
        f"d{n_dims}_serial": leg(),
        f"d{n_dims}_serial_cached": leg(cached=True),
    }
    out[f"d{n_dims}_structures"] = len(selection)
    out.update(
        _fleet_legs(fact, model, selection, log, n_dims=n_dims)
    )
    out.update(
        _divergent_legs(fact, model, log, n_dims=n_dims)
    )
    return out


def _divergent_legs(fact, model, log, n_dims: int) -> dict:
    """Informational divergent-fleet leg: 4 replicas, each advised on
    its own workload partition, with cost-routed dispatch.

    Reports the serving throughput plus the acceptance number: the
    predicted workload cost of the divergent fleet over 4 identical
    copies of the workload-weighted single advise (must be <= 1.0; the
    d=5 fixture lands well below).  Its ``replicas`` key opts it out of
    the regression gate like the other fleet legs.
    """
    from repro.cube.query_log import pattern_counts
    from repro.distributed import plan_divergent
    from repro.serve import ReplicaFleet, RetryPolicy, ServingError

    __, advice, router, report = plan_divergent(
        model, pattern_counts(log), "1greedy", 4
    )

    fleet = ReplicaFleet(
        fact,
        advice.selections,
        cost_model=model,
        retry=RetryPolicy(max_attempts=3, base_delay=0.005),
        query_deadline=5.0,
        router=router,
    )
    start = time.perf_counter()
    results = list(fleet.serve_many(log))
    seconds = time.perf_counter() - start
    stats = fleet.stats()
    fleet.close()
    failed = sum(1 for r in results if isinstance(r, ServingError))
    served = [r for r in results if not isinstance(r, ServingError)]
    assert failed == 0, f"divergent bench leg lost {failed} queries"
    latencies = sorted(r.latency_us for r in served)

    def pct(q: float) -> float:
        return latencies[
            min(len(latencies) - 1, int(q * len(latencies)))
        ] if latencies else 0.0

    ratio = report["predicted_cost_ratio"]
    assert ratio <= 1.0, (
        f"divergent fleet must not price the workload above identical "
        f"copies, got ratio {ratio}"
    )
    fleet_counters = stats["fleet"]
    return {
        f"d{n_dims}_divergent4": {
            "queries": len(served),
            "replicas": 4,
            "batch_size": fleet.replicas[0].frontend.batch_size,
            "seconds": seconds,
            "qps": len(served) / seconds if seconds > 0 else 0.0,
            "p50_us": pct(0.50),
            "p99_us": pct(0.99),
            "predicted_cost_ratio": ratio,
            "divergent_predicted_cost": report["divergent_predicted_cost"],
            "identical_predicted_cost": report["identical_predicted_cost"],
            "structures_per_replica": [
                len(selection) for selection in advice.selections
            ],
            "routed_hits": sum(fleet_counters["routed_hits"].values()),
            "misroutes": sum(fleet_counters["misroutes"].values()),
        }
    }


def _fleet_legs(fact, model, selection, log, n_dims: int) -> dict:
    """Informational fleet legs: 4 replicas healthy, then 4 replicas
    with one killed mid-run (the degraded-mode ablation).

    Both carry ``replicas`` so the regression gate skips them: their
    client threads' wall-clock depends on core count.  The
    degraded leg reports the unavailability window (expected 0: three
    replicas stay healthy) and asserts every query still answered.
    """
    from repro.serve import ReplicaFleet, RetryPolicy, ServingError

    def fleet_leg(kill_one: bool) -> dict:
        fleet = ReplicaFleet(
            fact,
            selection,
            replicas=4,
            cost_model=model,
            retry=RetryPolicy(max_attempts=3, base_delay=0.005),
            query_deadline=5.0,
        )
        half = len(log) // 2
        start = time.perf_counter()
        results = list(fleet.serve_many(log[:half]))
        if kill_one:
            fleet.replicas[0].kill()
        results.extend(fleet.serve_many(log[half:]))
        seconds = time.perf_counter() - start
        fleet.close()
        failed = sum(1 for r in results if isinstance(r, ServingError))
        served = [r for r in results if not isinstance(r, ServingError)]
        assert failed == 0, f"fleet bench leg lost {failed} queries"
        assert not any(r.fallback for r in served), (
            "fleet bench workload must not fall back"
        )
        latencies = sorted(r.latency_us for r in served)
        stats = fleet.stats()

        def pct(q: float) -> float:
            return latencies[
                min(len(latencies) - 1, int(q * len(latencies)))
            ] if latencies else 0.0

        return {
            "queries": len(served),
            "replicas": 4,
            "batch_size": fleet.replicas[0].frontend.batch_size,
            "killed": 1 if kill_one else 0,
            "seconds": seconds,
            "qps": len(served) / seconds if seconds > 0 else 0.0,
            "p50_us": pct(0.50),
            "p99_us": pct(0.99),
            "retries": stats["retries"],
            "deadline_timeouts": stats["deadline_timeouts"],
            "unavailable_seconds": stats["unavailable_seconds"],
        }

    return {
        f"d{n_dims}_fleet4": fleet_leg(kill_one=False),
        f"d{n_dims}_fleet_degraded": fleet_leg(kill_one=True),
    }


def _git_sha() -> str:
    """The commit this run measured, for baseline provenance."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _mining_quality_leg(n_dims: int, n_entries: int = 2000, rng: int = 11) -> dict:
    """Pruned-vs-full ablation at small d: quality ratio, bound, speedup.

    Both advises run under the *same* space budget (sized off the full
    engine) and the same observed frequencies, so ``tau_full / tau_pruned``
    is a pure candidate-pruning quality number and ``within_bound``
    checks the certified forgone-benefit bound against the measured gap.
    """
    from repro.algorithms import serving_space, workload_weights
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.qvgraph import QueryViewGraph
    from repro.cube.query_log import generate_query_log, pattern_counts
    from repro.mining import compute_benefit_bound, mine_candidates

    from bench_algorithms_scaling import cube_lattice

    lattice = cube_lattice(n_dims)
    schema = lattice.schema
    top_label = lattice.label(lattice.top)
    counts = pattern_counts(generate_query_log(schema, n_entries, rng=rng))
    space = serving_space(lattice)

    # full-universe reference: every pattern, observed weight or 0
    t0 = time.perf_counter()
    frequencies = workload_weights(lattice, counts)
    full_engine = BenefitEngine(
        QueryViewGraph.from_cube(lattice, frequencies=frequencies)
    )
    full = RGreedy(1).run(full_engine, space, seed=(top_label,))
    full_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    mined = mine_candidates(counts, schema.names)
    mined.ensure_structures([top_label])
    bound = compute_benefit_bound(mined, lattice)
    pruned_engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
    pruned = RGreedy(1).run(pruned_engine, space, seed=(top_label,))
    pruned_seconds = time.perf_counter() - t0

    forgone = bound.forgone_bound(pruned.tau)
    return {
        "n_entries": n_entries,
        "pruned_structures": len(pruned_engine.structure_names),
        "full_structures": len(full_engine.structure_names),
        "pruned_seconds": pruned_seconds,
        "full_seconds": full_seconds,
        "speedup": full_seconds / pruned_seconds if pruned_seconds > 0 else 0.0,
        "tau_pruned": pruned.tau,
        "tau_full": full.tau,
        "quality": full.tau / pruned.tau if pruned.tau > 0 else 1.0,
        "forgone_bound": forgone,
        "within_bound": bool(pruned.tau - full.tau <= forgone + 1e-6),
    }


#: Child measurement for the d=9 scale leg: mine + compile + 1-greedy
#: under a RunContext deadline, reporting wall-clocks and its own peak
#: RSS.  Run in a subprocess so the RSS number is the leg's, not the
#: whole bench driver's: on Linux ``ru_maxrss`` keeps the driver's peak
#: across fork and exec (after the d=7 leg, ~470 MiB), so the child
#: reads its own image's high-water mark, ``VmHWM``, where it exists.
_D9_CHILD = """
import json, resource, sys, time
from repro.algorithms import serving_space
from repro.algorithms.rgreedy import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.cube.query_log import generate_query_log, pattern_counts
from repro.cube.schema import CubeSchema, Dimension
from repro.estimation.sizes import analytical_lattice
from repro.mining import compute_benefit_bound, mine_candidates
from repro.runtime import RunContext

def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

n_dims, n_entries, deadline = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
cards = [4 + 2 * i for i in range(n_dims)]
schema = CubeSchema(
    [Dimension(chr(ord("a") + i), c) for i, c in enumerate(cards)]
)
lattice = analytical_lattice(schema, 0.1 * schema.dense_cells)
top_label = lattice.label(lattice.top)
counts = pattern_counts(generate_query_log(schema, n_entries, rng=11))
t0 = time.perf_counter()
mined = mine_candidates(counts, schema.names)
mined.ensure_structures([top_label])
bound = compute_benefit_bound(mined, lattice)
mine_seconds = time.perf_counter() - t0
t0 = time.perf_counter()
engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
compile_seconds = time.perf_counter() - t0
space = serving_space(lattice)
t0 = time.perf_counter()
result = RGreedy(1).run(
    engine, space, seed=(top_label,), context=RunContext(deadline=deadline)
)
greedy_seconds = time.perf_counter() - t0
print(json.dumps({
    "mine_seconds": mine_seconds,
    "compile_seconds": compile_seconds,
    "greedy_seconds": greedy_seconds,
    "total_seconds": mine_seconds + compile_seconds + greedy_seconds,
    "n_views": mined.n_views,
    "n_indexes": mined.n_indexes,
    "n_structures": len(engine.structure_names),
    "n_selected": len(result.selected),
    "interrupted": bool(result.interrupted),
    "tau": result.tau,
    "forgone_bound": bound.forgone_bound(result.tau),
    "max_rss_mb": peak_rss_mb(),
}))
"""


def _mining_scale_leg(
    n_dims: int = 9, n_entries: int = 5000, deadline: float = 120.0
) -> dict:
    """The scale target: pruned 1-greedy at d=9 under a 120s deadline.

    The full 3^n universe is unbuildable here (~986k fat indexes), so
    there is no full reference — the leg commits wall-clock, structure
    counts, and peak RSS, and asserts the run finished under deadline.
    """
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _D9_CHILD, str(n_dims), str(n_entries), str(deadline)],
        capture_output=True,
        text=True,
        env=env,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(
            f"d={n_dims} pruned advise leg failed ({proc.returncode}):\n"
            + proc.stderr
        )
    leg = json.loads(proc.stdout)
    leg["n_dims"] = n_dims
    leg["n_entries"] = n_entries
    leg["deadline_seconds"] = deadline
    leg["wall_seconds"] = wall
    if leg["interrupted"]:
        raise SystemExit(
            f"d={n_dims} pruned advise hit the {deadline:g}s deadline — "
            "the scale target regressed"
        )
    return leg


def measure_mining(skip_d9: bool) -> dict:
    """The workload-mining section: informational (never gated — the
    quality ratios and bounds are asserted directly instead)."""
    out = {
        "d5_pruned_vs_full": _mining_quality_leg(5),
        "d6_pruned_vs_full": _mining_quality_leg(6),
    }
    if not skip_d9:
        out["d9_pruned"] = _mining_scale_leg()
    return out


def measure_sql_backend(n_dims: int = 4, n_queries: int = 400) -> dict:
    """The SQLite-backend section: informational (never gated — the
    differential identity and correlation signs are asserted directly).

    Two legs: ``validate-cost`` on the dense d=4 serving cube (engine vs
    SQLite over an advised selection, measured-vs-predicted Spearman per
    structure class) and the seeded random differential harness at
    d=3..4 including the post-delta mirror-rebuild replay.  Any answer
    mismatch anywhere aborts the whole bench run.
    """
    from repro.algorithms import serving_advise
    from repro.backends import validate_cost
    from repro.backends.diff import run_diff
    from repro.core.costmodel import LinearCostModel
    from repro.datasets.tpcd import tpcd_serving_fact

    fact = tpcd_serving_fact(n_dims, integral_measures=True)
    model = LinearCostModel.from_fact(fact)
    selection = serving_advise(model).selected

    t0 = time.perf_counter()
    report = validate_cost(
        fact, selection, cost_model=model, n_queries=n_queries, rng=0
    )
    validate_seconds = time.perf_counter() - t0
    if report["mismatches"]:
        raise SystemExit(
            f"sql backend: {report['mismatches']} engine-vs-SQLite answer "
            "mismatches in validate-cost"
        )

    diff = run_diff(dims=(3, 4), queries=120, seed=0)
    if diff["total"]["mismatches"] or diff["reload_failures"]:
        raise SystemExit(
            f"sql backend: differential harness failed "
            f"({diff['total']['mismatches']} mismatches, "
            f"{diff['reload_failures']} reload failures)"
        )

    return {
        "dims": n_dims,
        "queries": n_queries,
        "mismatches": 0,
        "spearman_rows": {
            klass: stats["spearman_rows"]
            for klass, stats in report["classes"].items()
        },
        "spearman_wall": {
            klass: stats["spearman_wall"]
            for klass, stats in report["classes"].items()
        },
        "exact_rows": report["overall"]["exact_rows"],
        "sqlite_index_plans": report["overall"]["sqlite_index_plans"],
        "validate_seconds": round(validate_seconds, 3),
        "diff": {
            "dims": diff["dims"],
            "queries": diff["total"]["queries"],
            "mismatches": 0,
            "empty_results": diff["total"]["empty_results"],
            "raw": diff["total"]["raw"],
            "seconds": round(sum(r["seconds"] for r in diff["runs"]), 3),
        },
    }


def gate(current: dict, baseline: dict) -> list:
    """Return a list of human-readable regression descriptions."""
    failures = []

    def check(label: str, now: float, then: float) -> None:
        if then >= GATE_FLOOR_SECONDS and now > REGRESSION_FACTOR * then:
            failures.append(
                f"{label}: {now:.4f}s vs baseline {then:.4f}s "
                f"(> {REGRESSION_FACTOR:g}x)"
            )

    base_benches = baseline.get("pytest_benchmarks", {})
    for name, median in current.get("pytest_benchmarks", {}).items():
        if name in base_benches and any(tag in name for tag in GATED_BENCHES):
            check(name, median, base_benches[name])

    base_pipes = baseline.get("pipelines", {})
    for config, timings in current.get("pipelines", {}).items():
        if not isinstance(timings, dict):
            continue
        then = base_pipes.get(config)
        if isinstance(then, dict) and "total" in then:
            check(f"pipeline:{config}", timings["total"], then["total"])

    base_serving = baseline.get("serving", {})
    for config, timings in current.get("serving", {}).items():
        if not isinstance(timings, dict):
            continue
        if "replicas" in timings:
            # fleet legs are informational: their client threads'
            # wall-clock depends on the machine's core count, so gating
            # them would punish hardware, not code
            continue
        then = base_serving.get(config)
        if isinstance(then, dict) and "seconds" in then:
            check(f"serving:{config}", timings["seconds"], then["seconds"])
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed baseline without rewriting it",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="skip the regression gate (still rewrites the result file)",
    )
    parser.add_argument(
        "--skip-d7", action="store_true",
        help="skip the (slow) d=7 scale measurement",
    )
    parser.add_argument(
        "--serving-only", action="store_true",
        help="re-measure only the serving section and merge it into the "
        "committed baseline (pipeline and pytest-benchmark numbers are "
        "carried over unchanged)",
    )
    parser.add_argument(
        "--skip-d9", action="store_true",
        help="skip the (slow) d=9 pruned-advise scale measurement",
    )
    parser.add_argument(
        "--mining-only", action="store_true",
        help="re-measure only the workload-mining section and merge it "
        "into the committed baseline",
    )
    parser.add_argument(
        "--backend-only", action="store_true",
        help="re-measure only the SQLite-backend section and merge it "
        "into the committed baseline",
    )
    args = parser.parse_args(argv)

    if args.check and not RESULT_PATH.exists():
        print(
            f"error: --check needs a committed baseline at {RESULT_PATH}, "
            "but none exists.\nRun without --check once to measure and "
            "write one, then commit it.",
            file=sys.stderr,
        )
        return EXIT_NO_BASELINE

    sys.path.insert(0, str(HERE))

    leg_seconds = {}

    def timed(name: str, thunk):
        t0 = time.perf_counter()
        section = thunk()
        leg_seconds[name] = round(time.perf_counter() - t0, 3)
        return section

    if args.serving_only or args.mining_only or args.backend_only:
        if not RESULT_PATH.exists():
            print(
                f"error: --serving-only/--mining-only/--backend-only "
                f"need a committed "
                f"baseline at {RESULT_PATH} to merge into",
                file=sys.stderr,
            )
            return EXIT_NO_BASELINE
        with open(RESULT_PATH) as fh:
            result = json.load(fh)
        if args.serving_only:
            result["serving"] = timed("serving", measure_serving)
            result.setdefault("meta", {})["serving_cpu_count"] = os.cpu_count()
        if args.mining_only:
            result["mining"] = timed(
                "mining", lambda: measure_mining(args.skip_d9)
            )
        if args.backend_only:
            result["sql_backend"] = timed("sql_backend", measure_sql_backend)
    else:
        result = {
            "pytest_benchmarks": timed(
                "pytest_benchmarks", run_pytest_benchmarks
            ),
            "pipelines": timed(
                "pipelines", lambda: measure_pipelines(args.skip_d7)
            ),
            "checkpoint_overhead": timed(
                "checkpoint_overhead", measure_checkpoint_overhead
            ),
            "serving": timed("serving", measure_serving),
            "mining": timed("mining", lambda: measure_mining(args.skip_d9)),
            "sql_backend": timed("sql_backend", measure_sql_backend),
            "meta": {
                "regression_factor": REGRESSION_FACTOR,
                "python": sys.version.split()[0],
                "cpu_count": os.cpu_count(),
            },
        }
    meta = result.setdefault("meta", {})
    meta["git_sha"] = _git_sha()
    meta.setdefault("leg_seconds", {}).update(leg_seconds)

    failures = []
    if not args.no_gate and RESULT_PATH.exists():
        with open(RESULT_PATH) as fh:
            baseline = json.load(fh)
        failures = gate(result, baseline)

    if not args.check:
        # preserve the slow d=7/d=9 baseline numbers on --skip runs
        if (args.skip_d7 or args.skip_d9) and RESULT_PATH.exists():
            with open(RESULT_PATH) as fh:
                previous = json.load(fh)
            if args.skip_d7 and "d7_current" in previous.get("pipelines", {}):
                result["pipelines"]["d7_current"] = previous["pipelines"][
                    "d7_current"
                ]
            if args.skip_d9 and "d9_pruned" in previous.get("mining", {}):
                result.setdefault("mining", {})["d9_pruned"] = previous[
                    "mining"
                ]["d9_pruned"]
        with open(RESULT_PATH, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {RESULT_PATH}")

    print(f"d=5 end-to-end: {result['pipelines']['d5_current']['total']:.3f}s")
    print(f"d=6 end-to-end: {result['pipelines']['d6_current']['total']:.3f}s")
    if "d7_current" in result["pipelines"]:
        d7 = result["pipelines"]["d7_current"]
        legs = "+2-greedy" if "rgreedy2" in d7 else ""
        print(f"d=7 compile+1-greedy{legs}: {d7['total']:.2f}s")
    overhead = result["checkpoint_overhead"]
    print(
        f"d=5 checkpointing overhead: {overhead['disk_overhead']:+.1%} "
        f"(base {overhead['base_seconds'] * 1e3:.1f}ms, on-disk "
        f"{overhead['disk_checkpoint_seconds'] * 1e3:.1f}ms)"
    )
    for config, timings in sorted(result["serving"].items()):
        if not isinstance(timings, dict):
            continue
        extra = ""
        if timings.get("cache"):
            extra = f", cache {timings.get('cache_hits', 0)} hits"
        if "replicas" in timings:
            extra += (
                f", {timings['replicas']} replicas ({timings.get('killed', 0)} "
                f"killed), {timings.get('retries', 0)} retries, "
                f"{timings.get('unavailable_seconds', 0.0):.2f}s unavailable"
            )
        if "predicted_cost_ratio" in timings:
            extra += (
                f", predicted-cost ratio "
                f"{timings['predicted_cost_ratio']:.4f}"
            )
        print(
            f"serve {config}: {timings['qps']:.0f} q/s "
            f"(p50 {timings['p50_us']:.0f} us, p99 {timings['p99_us']:.0f} us, "
            f"batch {timings.get('batch_size', 1)}{extra})"
        )

    for config, leg in sorted(result.get("mining", {}).items()):
        if not isinstance(leg, dict):
            continue
        if "quality" in leg:
            print(
                f"mining {config}: pruned {leg['pruned_seconds']:.3f}s vs "
                f"full {leg['full_seconds']:.3f}s ({leg['speedup']:.2f}x, "
                f"{leg['pruned_structures']}/{leg['full_structures']} "
                f"structures), quality {leg['quality']:.4f}, "
                f"within_bound={leg['within_bound']}"
            )
        else:
            print(
                f"mining {config}: mine {leg['mine_seconds']:.2f}s + compile "
                f"{leg['compile_seconds']:.2f}s + 1-greedy "
                f"{leg['greedy_seconds']:.2f}s = {leg['total_seconds']:.2f}s "
                f"({leg['n_structures']} structures, "
                f"{leg['n_selected']} selected, peak RSS "
                f"{leg['max_rss_mb']:.0f} MiB, deadline "
                f"{leg['deadline_seconds']:g}s)"
            )

    backend = result.get("sql_backend")
    if backend:
        def rho(value):
            return f"{value:+.3f}" if value is not None else "n/a"

        correlations = ", ".join(
            f"{klass} ρ={rho(value)}"
            for klass, value in sorted(backend["spearman_rows"].items())
        )
        print(
            f"sql backend d={backend['dims']}: {backend['queries']} queries, "
            f"0 mismatches, {backend['exact_rows']} exact, "
            f"{backend['sqlite_index_plans']} SQLite index plans "
            f"({correlations}); diff harness "
            f"{backend['diff']['queries']} executions over "
            f"d={backend['diff']['dims']}, 0 mismatches"
        )

    if failures:
        print("\nREGRESSIONS (> {:g}x baseline):".format(REGRESSION_FACTOR))
        for line in failures:
            print("  " + line)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
