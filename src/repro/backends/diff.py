"""Differential correctness harness: row engine vs SQLite.

``python -m repro.backends.diff`` generates seeded random star schemas
at d=3..5 (random cardinalities, *sparse* integer-valued facts, so
empty-result slices occur naturally and sums are order-exact), advises a
selection with the paper's greedy algorithm, mirrors the catalog into
SQLite, and replays a generated workload through **both** engines with
the same routed plan — asserting, per query, identical group dictionaries
and identical rows-processed accounting.  Raw-cube fallbacks are forced
for a slice of the workload so the fact-table path is exercised even
when the advised selection answers everything.

Each dimension count then applies a fact-table delta through
:mod:`repro.engine.maintenance` and replays again: the catalog version
bump must rebuild the SQLite mirror (the harness asserts the reload
happened) and the refreshed answers must again match.

Exit status 0 means zero mismatches anywhere — the contract the
``sql-backend-smoke`` CI job enforces.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import FIT_STRICT, RGreedy
from repro.backends.sqlite import SqliteBackend
from repro.core.costmodel import LinearCostModel
from repro.core.qvgraph import QueryViewGraph
from repro.cube.query_log import LogEntry, generate_query_log
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.pipeline import materialize_selection
from repro.engine.table import FactTable
from repro.serve.batch import execute_raw, raw_plan
from repro.serve.structures import resolve_selection


def random_schema(n_dims: int, rng: np.random.Generator) -> CubeSchema:
    """A random star schema: distinct letter attrs, cardinalities 2..7."""
    names = list(string.ascii_lowercase[:n_dims])
    return CubeSchema(
        [Dimension(name, int(rng.integers(2, 8))) for name in names],
        measure="sales",
    )


def random_fact(
    schema: CubeSchema, rng: np.random.Generator, density: float = 0.6
) -> FactTable:
    """A sparse fact table with integer-valued float64 measures.

    Sparse (``density`` of the dense cell count, with duplicate rows
    allowed) so bound slices can miss every row — the empty-result edge
    the differential suite must cover.  Integer measures make every sum
    order-exact, so engine-vs-SQLite comparisons are byte-identical
    rather than accumulation-order-dependent.
    """
    n_rows = max(1, int(density * schema.dense_cells))
    columns = {
        name: rng.integers(0, schema.cardinality(name), size=n_rows)
        for name in schema.names
    }
    measures = rng.integers(0, 1000, size=n_rows).astype(np.float64)
    return FactTable(schema, columns, measures)


def advise_selection(fact: FactTable, model: LinearCostModel) -> tuple:
    """The paper's r=1 greedy selection at 3x the raw-cube space."""
    lattice = model.lattice
    graph = QueryViewGraph.from_cube(lattice)
    top_label = lattice.label(lattice.top)
    result = RGreedy(1, fit=FIT_STRICT).run(
        graph, 3.0 * lattice.size(lattice.top), seed=(top_label,)
    )
    return tuple(result.selected)


def replay_both(
    executor: Executor,
    backend: SqliteBackend,
    fact: FactTable,
    cost_model: LinearCostModel,
    entries: Sequence[LogEntry],
    force_raw_every: int = 0,
) -> dict:
    """Replay a log through both engines; return match accounting.

    ``force_raw_every`` > 0 additionally answers every n-th entry
    through both raw paths (engine fact scan vs SQLite ``fact`` table),
    so the fallback path is differentially exercised even when the
    selection answers the whole workload.
    """
    counts: Dict[str, int] = {
        "queries": 0,
        "mismatches": 0,
        "prefix": 0,
        "scan": 0,
        "raw": 0,
        "empty_results": 0,
    }
    details: List[dict] = []

    def compare(engine_rows, engine_groups, result, entry):
        counts["queries"] += 1
        if not engine_groups:
            counts["empty_results"] += 1
        if engine_groups != result.groups or engine_rows != result.rows_processed:
            counts["mismatches"] += 1
            if len(details) < 10:
                details.append(
                    {
                        "query": str(entry.query),
                        "values": dict(entry.bound_values),
                        "engine_rows": engine_rows,
                        "sqlite_rows": result.rows_processed,
                        "groups_equal": engine_groups == result.groups,
                        "sql": result.sql,
                    }
                )

    for position, entry in enumerate(entries):
        query = entry.query
        bound = dict(entry.bound_values)
        try:
            plan = executor.choose_plan(query)
        except LookupError:
            plan = raw_plan(cost_model, query)
        if plan.kind == "raw":
            raw = execute_raw(fact, entry, plan)
            compare(raw.actual_rows, raw.groups, backend.execute_raw(query, bound), entry)
        else:
            forced = (plan.view, plan.index)
            engine = executor.execute(query, bound, plan=forced)
            compare(
                engine.rows_processed,
                engine.groups,
                backend.execute(query, bound, plan=forced),
                entry,
            )
        counts[plan.kind] += 1
        if force_raw_every and position % force_raw_every == 0:
            raw = execute_raw(fact, entry, raw_plan(cost_model, query))
            compare(raw.actual_rows, raw.groups, backend.execute_raw(query, bound), entry)
            counts["raw"] += 1
    counts["mismatch_details"] = details
    return counts


def run_diff(
    dims: Sequence[int] = (3, 4, 5),
    queries: int = 200,
    seed: int = 0,
    density: float = 0.6,
) -> dict:
    """The full differential matrix; returns the harness report."""
    runs = []
    for n_dims in dims:
        start = time.perf_counter()
        rng = np.random.default_rng(seed * 1000 + n_dims)
        schema = random_schema(n_dims, rng)
        fact = random_fact(schema, rng, density=density)
        model = LinearCostModel.from_fact(fact)
        selection = advise_selection(fact, model)
        views, indexes = resolve_selection(selection)
        catalog = Catalog(fact)
        materialize_selection(catalog, views, indexes)
        executor = Executor(catalog, model)

        with SqliteBackend(cost_model=model) as backend:
            backend.sync(catalog)
            log = generate_query_log(schema, queries, rng=rng)
            before = replay_both(
                executor, backend, fact, model, log, force_raw_every=10
            )

            # the maintenance leg: a delta bumps catalog.version, which
            # must rebuild the mirror before the replay sees fresh rows
            n_delta = max(1, fact.n_rows // 10)
            delta_columns = {
                name: rng.integers(0, schema.cardinality(name), size=n_delta)
                for name in schema.names
            }
            delta_measures = rng.integers(0, 1000, size=n_delta).astype(np.float64)
            apply_delta(catalog, delta_columns, delta_measures)
            fact = catalog.fact
            executor = Executor(catalog, model)
            reloaded = backend.sync(catalog)
            after = replay_both(
                executor, backend, fact, model, log[: queries // 2],
                force_raw_every=10,
            )

        runs.append(
            {
                "dims": n_dims,
                "cardinalities": [d.cardinality for d in schema.dimensions],
                "fact_rows": int(fact.n_rows),
                "selection": list(selection),
                "before_delta": before,
                "delta_rows": int(n_delta),
                "mirror_reloaded_after_delta": bool(reloaded),
                "after_delta": after,
                "seconds": time.perf_counter() - start,
            }
        )

    total = {
        key: sum(run[phase][key] for run in runs for phase in ("before_delta", "after_delta"))
        for key in ("queries", "mismatches", "prefix", "scan", "raw", "empty_results")
    }
    return {
        "seed": seed,
        "dims": list(dims),
        "queries_per_dim": queries,
        "total": total,
        "reload_failures": sum(
            0 if run["mirror_reloaded_after_delta"] else 1 for run in runs
        ),
        "runs": runs,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backends.diff",
        description="replay seeded random workloads through the row engine "
        "and SQLite, asserting identical answers",
    )
    parser.add_argument(
        "--dims",
        default="3,4,5",
        help="comma-separated dimension counts (default: 3,4,5)",
    )
    parser.add_argument(
        "--queries", type=int, default=200, help="workload size per dim"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--density",
        type=float,
        default=0.6,
        help="fact rows as a fraction of dense cells (default: 0.6)",
    )
    parser.add_argument("--output", help="write the JSON report here")
    args = parser.parse_args(argv)

    dims = [int(part) for part in args.dims.split(",") if part.strip()]
    report = run_diff(
        dims=dims, queries=args.queries, seed=args.seed, density=args.density
    )
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2)

    total = report["total"]
    for run in report["runs"]:
        print(
            f"d={run['dims']}: {run['before_delta']['queries']} queries + "
            f"{run['after_delta']['queries']} post-delta, "
            f"{run['before_delta']['mismatches'] + run['after_delta']['mismatches']} "
            f"mismatches, {run['before_delta']['empty_results']} empty results, "
            f"reload={run['mirror_reloaded_after_delta']} "
            f"({run['seconds']:.1f}s)"
        )
    print(
        f"total: {total['queries']} differential executions "
        f"({total['prefix']} prefix / {total['scan']} scan / {total['raw']} raw), "
        f"{total['empty_results']} empty results, {total['mismatches']} mismatches"
    )
    if total["mismatches"] or report["reload_failures"]:
        print("DIFFERENTIAL FAILURE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
