"""E9: the execution-engine substrate and the cost-model validation.

Times materialization, index construction, and index-assisted query
execution, and re-asserts that measured rows-processed match the linear
cost model (Section 4.1.1) — the experiment that makes the paper's cost
formula falsifiable.
"""

import numpy as np
import pytest

from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.materialize import materialize_view
from repro.experiments.engine_validation import format_validation, run_validation


@pytest.fixture(scope="module")
def fact():
    schema = CubeSchema(
        [Dimension("a", 100), Dimension("b", 40), Dimension("c", 15)]
    )
    return generate_fact_table(schema, 30_000, rng=2)


def test_cost_model_validation_table():
    rows = run_validation()
    print()
    print(format_validation(rows))
    assert max(r.relative_error for r in rows) <= 0.05


def test_bench_materialize_top_view(benchmark, fact):
    table = benchmark(materialize_view, fact, View.of("a", "b", "c"))
    assert table.n_rows == fact.distinct_count(("a", "b", "c"))


def test_bench_build_index(benchmark, fact):
    catalog = Catalog(fact)
    view = View.of("a", "b", "c")
    table = catalog.materialize(view)
    index = Index(view, ("a", "b", "c"))

    def build():
        catalog.drop_index(index)
        return catalog.build_index(index)

    built = benchmark(build)
    assert len(built) == table.n_rows


def test_bench_index_assisted_execution(benchmark, fact):
    catalog = Catalog(fact)
    view = View.of("a", "b", "c")
    catalog.materialize(view)
    index = Index(view, ("a", "b", "c"))
    catalog.build_index(index)
    executor = Executor(catalog)
    query = SliceQuery(groupby=("b", "c"), selection=("a",))

    rng = np.random.default_rng(0)
    values_pool = [
        {"a": int(fact.column("a")[int(rng.integers(0, fact.n_rows))])}
        for __ in range(64)
    ]
    counter = {"i": 0}

    def run_one():
        counter["i"] = (counter["i"] + 1) % len(values_pool)
        return executor.execute(query, values_pool[counter["i"]], plan=(view, index))

    result = benchmark(run_one)
    # index touches ~|abc|/|a| rows, far below a full scan
    assert result.rows_processed < catalog.view_rows(view) / 10


def test_bench_full_scan_execution(benchmark, fact):
    catalog = Catalog(fact)
    view = View.of("a", "b", "c")
    catalog.materialize(view)
    executor = Executor(catalog)
    query = SliceQuery(groupby=("b", "c"), selection=("a",))

    result = benchmark.pedantic(
        executor.execute,
        args=(query, {"a": 3}),
        kwargs={"plan": (view, None)},
        rounds=3,
        iterations=1,
    )
    assert result.rows_processed == catalog.view_rows(view)
