"""End-to-end: select, materialize, execute — and check the cost model.

This example closes the loop the paper leaves implicit:

1. generate a small skewed, correlated fact table;
2. run inner-level greedy on the cube's query-view graph (with *exact*
   sizes measured from the data);
3. physically materialize the selected views and sort them into the
   selected indexes;
4. execute every slice query through the executor's best plan and compare
   the measured rows-processed against the algorithm's predicted τ.

Run:  python examples/engine_validation.py
"""

import numpy as np

from repro import CubeSchema, Dimension, InnerLevelGreedy, LinearCostModel, QueryViewGraph
from repro.core.lattice import CubeLattice
from repro.core.query import enumerate_slice_queries
from repro.cube.generator import generate_fact_table
from repro.engine import Catalog, Executor
from repro.estimation import exact_sizes_from_rows
from repro.experiments.engine_validation import format_validation, run_validation


def main():
    print("Part 1 — per-plan validation of c(Q, V, J) (paper Section 4.1.1):\n")
    rows = run_validation()
    print(format_validation(rows))

    print("\nPart 2 — selection → materialization → execution round trip:\n")
    schema = CubeSchema([Dimension("a", 30), Dimension("b", 20), Dimension("c", 10)])
    fact = generate_fact_table(schema, 4_000, rng=3, skew={"b": 0.7})
    lattice = CubeLattice.from_estimator(schema, exact_sizes_from_rows(schema, fact.columns))
    graph = QueryViewGraph.from_cube(lattice)
    top = lattice.label(lattice.top)
    budget = lattice.size(lattice.top) + 0.3 * (graph.total_space() - lattice.size(lattice.top))

    result = InnerLevelGreedy(fit="strict").run(graph, budget, seed=(top,))
    print(result.table())

    catalog = Catalog(fact)
    for name in result.selected:
        struct = graph.structure(name)
        if struct.is_view:
            catalog.materialize(struct.payload)
    for name in result.selected:
        struct = graph.structure(name)
        if struct.is_index:
            catalog.build_index(struct.payload)
    print(f"\nmaterialized: {catalog}")
    print(f"algorithm's space accounting: {result.space_used:.0f} rows "
          f"(catalog: {catalog.total_rows()} rows)")

    executor = Executor(catalog, cost_model=LinearCostModel(lattice))
    rng = np.random.default_rng(0)
    measured = []
    for query in enumerate_slice_queries(schema.names):
        values = {}
        if query.selection:
            row = int(rng.integers(0, fact.n_rows))
            values = {a: int(fact.column(a)[row]) for a in query.selection}
        res = executor.execute(query, values)
        measured.append(res.rows_processed)
    print(f"\nexecuted all {len(measured)} slice queries; "
          f"mean measured rows: {np.mean(measured):.0f} "
          f"(algorithm predicted avg {result.average_query_cost:.0f})")


if __name__ == "__main__":
    main()
