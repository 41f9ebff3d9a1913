"""Measured-vs-predicted cost validation on the SQLite backend.

The paper's linear cost model predicts ``|C| / |E|`` rows per query; the
row engine's accounting realizes that number by construction.  This
module asks the harder question: does the prediction track what a *real*
database measurably does?  :func:`validate_cost` routes a workload with
the model, executes every query through both the row engine and the
SQLite mirror (asserting the answers match), measures the SQLite side —
rows behind the plan (counted by SQLite itself) and wall-clock per
statement — and reports Spearman rank correlation between predicted and
measured cost per structure class:

* ``index-prefix`` — plans that bind a usable index-key prefix,
* ``view-scan`` — full scans of a materialized view,
* ``raw`` — raw fact-table fallbacks.

Rank correlation is the right lens because the model is used *ordinally*
— the router only ever compares candidate costs — so a monotone
relationship with measured cost is exactly what "the model routes
correctly on real hardware" means.  Classes where the predictor is
constant (e.g. ``raw``, where every query predicts the full fact scan)
report ``None`` rather than a fabricated coefficient.

This is the engine behind the ``repro validate-cost`` CLI subcommand and
the ``sql_backend`` benchmark leg.  Its engine-vs-SQLite loop,
:func:`replay_both`, is also the differential harness's
(:mod:`repro.backends.diff`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.backends.sqlite import SqliteBackend, SqlResult
from repro.core.costmodel import LinearCostModel
from repro.cube.query_log import LogEntry, generate_query_log
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor, Plan
from repro.engine.pipeline import materialize_selection
from repro.engine.table import Answer, FactTable
from repro.serve.batch import execute_raw, raw_plan
from repro.serve.structures import resolve_selection

#: Structure classes the correlation is reported over, one per plan kind.
STRUCTURE_CLASSES = ("index-prefix", "view-scan", "raw")
_CLASS_OF_KIND = dict(zip(("prefix", "scan", "raw"), STRUCTURE_CLASSES))


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation, or ``None`` when it is undefined.

    Undefined means fewer than two points or zero variance in either
    series — reporting ``None`` there is honest where a coefficient
    would be noise.  Uses :func:`scipy.stats.spearmanr` when available
    and an exact rank-Pearson fallback otherwise (identical values, no
    new dependency required).

    >>> spearman([1, 2, 3, 4], [10, 20, 30, 40])
    1.0
    >>> spearman([1, 2, 3, 4], [4, 3, 2, 1])
    -1.0
    >>> spearman([1, 1, 1], [1, 2, 3]) is None
    True
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2 or len(set(xs)) < 2 or len(set(ys)) < 2:
        return None
    try:
        from scipy.stats import spearmanr
    except ImportError:
        pass
    else:
        return float(spearmanr(xs, ys).statistic)
    rx, ry = _ranks(xs), _ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


@dataclass(frozen=True)
class DualExecution:
    """One entry answered on one plan by the row engine and by SQLite."""

    entry: LogEntry
    plan: Plan
    engine_rows: int
    engine_groups: Answer
    sql: SqlResult

    @property
    def match(self) -> bool:
        """Equal answers and equal rows processed."""
        return (
            self.engine_groups == self.sql.groups
            and self.engine_rows == self.sql.rows_processed
        )

    def mismatch_detail(self) -> dict:
        """The JSON record a report keeps for a mismatch."""
        return {
            "query": str(self.entry.query),
            "values": dict(self.entry.bound_values),
            "engine_rows": self.engine_rows,
            "sqlite_rows": self.sql.rows_processed,
            "groups_equal": self.engine_groups == self.sql.groups,
            "sql": self.sql.sql,
        }


def replay_both(
    executor: Executor,
    backend,
    fact: FactTable,
    cost_model: LinearCostModel,
    entries: Sequence[LogEntry],
    force_raw_every: int = 0,
) -> Iterator[DualExecution]:
    """Answer each entry through both engines on the same plan.

    The plan is the executor's pick, or the raw plan when no
    materialized view answers.  ``force_raw_every`` > 0 answers every
    n-th entry once more on the raw plan (engine fact scan against the
    SQLite ``fact`` table), so the fallback path is compared even when
    the selection answers the whole workload.
    """
    for position, entry in enumerate(entries):
        query = entry.query
        bound = dict(entry.bound_values)
        try:
            plans = [executor.choose_plan(query)]
        except LookupError:
            plans = [raw_plan(cost_model, query)]
        if force_raw_every and position % force_raw_every == 0:
            plans.append(raw_plan(cost_model, query))
        for plan in plans:
            if plan.kind == "raw":
                engine = execute_raw(fact, entry, plan)
                engine_rows = engine.actual_rows
                sql = backend.execute_raw(query, bound)
            else:
                forced = (plan.view, plan.index)
                engine = executor.execute(query, bound, plan=forced)
                engine_rows = engine.rows_processed
                sql = backend.execute(query, bound, plan=forced)
            yield DualExecution(entry, plan, engine_rows, engine.groups, sql)


@dataclass
class Observation:
    """One query's differential execution, measured on the SQLite side."""

    pattern: str
    structure_class: str
    structure: str
    predicted: float
    engine_rows: int
    sqlite_rows: int
    wall_s: float
    used_index: Optional[str]
    match: bool


def _class_report(observations: Sequence[Observation]) -> dict:
    predicted = [o.predicted for o in observations]
    measured = [float(o.sqlite_rows) for o in observations]
    walls = [o.wall_s for o in observations]
    return {
        "queries": len(observations),
        "structures": len({o.structure for o in observations}),
        "spearman_rows": spearman(predicted, measured),
        "spearman_wall": spearman(predicted, walls),
        "exact_rows": sum(1 for o in observations if o.predicted == o.sqlite_rows),
        "predicted_rows_total": float(sum(predicted)),
        "measured_rows_total": int(sum(o.sqlite_rows for o in observations)),
        "wall_s_total": float(sum(walls)),
        "sqlite_index_plans": sum(1 for o in observations if o.used_index),
    }


def validate_cost(
    fact: FactTable,
    selection: Sequence[str],
    cost_model: Optional[LinearCostModel] = None,
    entries: Optional[Sequence[LogEntry]] = None,
    n_queries: int = 300,
    rng=0,
) -> dict:
    """Differentially execute a workload and correlate cost predictions.

    Materializes ``selection`` (structure labels, e.g. ``psc`` /
    ``I_sp(ps)``) over ``fact``, mirrors the catalog into SQLite, routes
    each entry with the cost model, executes it through **both** engines
    asserting identical answers, and returns the report dict: mismatch
    count (expected 0), per-class and overall Spearman correlations, and
    the observation rows behind them.
    """
    if cost_model is None:
        cost_model = LinearCostModel.from_fact(fact)
    if entries is None:
        entries = generate_query_log(fact.schema, n_queries, rng=rng)
    views, indexes = resolve_selection(selection)
    catalog = Catalog(fact)
    materialize_selection(catalog, views, indexes)
    executor = Executor(catalog, cost_model)

    observations: List[Observation] = []
    mismatches: List[dict] = []
    with SqliteBackend(catalog, cost_model=cost_model) as backend:
        for run in replay_both(executor, backend, fact, cost_model, entries):
            plan = run.plan
            if not run.match:
                mismatches.append(run.mismatch_detail())
            observations.append(
                Observation(
                    pattern=str(run.entry.query),
                    structure_class=_CLASS_OF_KIND[plan.kind],
                    structure=plan.structure,
                    predicted=float(plan.predicted),
                    engine_rows=run.engine_rows,
                    sqlite_rows=run.sql.rows_processed,
                    wall_s=run.sql.wall_s,
                    used_index=run.sql.used_index,
                    match=run.match,
                )
            )

    by_class: Dict[str, List[Observation]] = {}
    for observation in observations:
        by_class.setdefault(observation.structure_class, []).append(observation)
    return {
        "queries": len(observations),
        "selection": list(selection),
        "mismatches": len(mismatches),
        "mismatch_details": mismatches[:20],
        "classes": {
            klass: _class_report(by_class[klass])
            for klass in STRUCTURE_CLASSES
            if klass in by_class
        },
        "overall": _class_report(observations),
    }


def format_report(report: dict) -> str:
    """Render the validation report as the CLI's correlation table."""
    lines = [
        f"validate-cost: {report['queries']} queries, "
        f"{report['mismatches']} answer mismatches "
        f"(selection: {len(report['selection'])} structures)",
        f"{'class':<14} {'queries':>7} {'ρ(rows)':>8} {'ρ(wall)':>8} "
        f"{'exact':>6} {'idx plans':>9}",
    ]
    rows = list(report["classes"].items()) + [("overall", report["overall"])]
    for klass, stats in rows:
        def fmt(value):
            return f"{value:+.3f}" if value is not None else "   n/a"

        lines.append(
            f"{klass:<14} {stats['queries']:>7} {fmt(stats['spearman_rows']):>8} "
            f"{fmt(stats['spearman_wall']):>8} {stats['exact_rows']:>6} "
            f"{stats['sqlite_index_plans']:>9}"
        )
    return "\n".join(lines)
