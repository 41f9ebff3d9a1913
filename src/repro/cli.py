"""Command-line advisor: what should this cube precompute?

Usage::

    python -m repro advise --lattice cube.json --space 25e6 \\
        --algorithm inner --output selection.json
    python -m repro advise ... --deadline 3600 --checkpoint run.ckpt
    python -m repro resume --lattice cube.json --checkpoint run.ckpt
    python -m repro tpcd                     # the paper's Example 2.1 demo
    python -m repro experiments [names...]   # regenerate paper tables
    python -m repro serve --dims 4 --queries 200 --record obs.jsonl \\
        --telemetry telemetry.json           # serve a synthetic workload
    python -m repro serve --dims 4 --queries 500 --cache-mb 16 \\
        --batch-size 64                      # batched serving + cache
    python -m repro replay --dims 4 --log obs.jsonl \\
        --adaptive                           # replay a recorded log
    python -m repro serve --dims 4 --queries 500 --replicas 4 \\
        --retry-attempts 3                   # fault-tolerant replica fleet
    python -m repro mine --lattice cube.json --log obs.jsonl \\
        --output mined.json                  # mine a log into candidates
    python -m repro advise --lattice cube.json --space 25e6 \\
        --prune-log obs.jsonl --benefit-bound 0.2   # pruned advise (d>=9)

``cube.json`` is the lattice document of :mod:`repro.io`: dimensions and
either exact per-view row counts or a raw row count for analytical
sizing.

Exit codes: 0 on success; 1 when a check failed (``--fail-on-fallback``,
failed fleet queries, ``validate-cost`` mismatches); 2 on bad input
(malformed documents, missing files, invalid budgets or flag values —
one-line message on stderr, ``--traceback`` to see the full stack); 3
when a run stopped early on a deadline, memory budget, or signal — the
best-so-far selection is still printed (and written to ``--output``,
flagged ``"interrupted": true``).  The check harnesses
(``python -m repro.serve.chaos`` and the others) exit the same way,
through :func:`repro.checks.run_checked`.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.algorithms import ALGORITHMS, FIT_PAPER, FIT_STRICT
from repro.checks import EXIT_FAILED, EXIT_OK, run_checked
from repro.core.qvgraph import QueryViewGraph
from repro.io import (
    graph_from_dict,
    hierarchical_cube_from_dict,
    is_graph_document,
    is_hierarchical_document,
    lattice_from_dict,
    save_selection,
    write_json,
)

#: Exit code of a run stopped early (docs/API.md); 0, 1 and 2 are
#: :mod:`repro.checks`' ``EXIT_OK``, ``EXIT_FAILED`` and ``EXIT_ERROR``.
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Index Selection for OLAP (ICDE 1997) — reproduction toolkit",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="show full tracebacks for input errors instead of one-line "
        "messages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    advise = sub.add_parser(
        "advise", help="select views and indexes for a cube under a space budget"
    )
    advise.add_argument(
        "--lattice", required=True, help="lattice JSON document (see repro.io)"
    )
    advise.add_argument(
        "--space", required=True, type=float, help="space budget in rows"
    )
    advise.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="inner",
        help="selection algorithm (default: inner-level greedy)",
    )
    advise.add_argument(
        "--fit",
        choices=(FIT_STRICT, FIT_PAPER),
        default=FIT_STRICT,
        help="space-fit policy (default: strict — never exceed the budget)",
    )
    advise.add_argument(
        "--no-seed-top",
        action="store_true",
        help="do not force-materialize the top view (default: seed it, "
        "since the base data cannot be computed from anything else)",
    )
    advise.add_argument(
        "--index-universe",
        choices=("fat", "all", "none"),
        default="fat",
        help="candidate indexes per view (default: fat only, per §4.2.2)",
    )
    advise.add_argument("--output", help="write the selection as JSON here")
    advise.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds; past it the run stops at the "
        "next stage boundary with the best-so-far selection (exit 3)",
    )
    advise.add_argument(
        "--memory-limit-mb",
        type=float,
        default=None,
        help="peak-RSS budget in MiB, checked at stage boundaries (exit 3)",
    )
    advise.add_argument(
        "--checkpoint",
        default=None,
        help="write a resumable checkpoint here after every committed "
        "stage (see 'repro resume')",
    )
    advise.add_argument(
        "--prune-log",
        default=None,
        help="mine this recorded query log (JSONL, e.g. from 'repro serve "
        "--record') into a pruned candidate space and advise on it "
        "instead of the full 3^n universe — the d>=9 scale path",
    )
    advise.add_argument(
        "--support",
        type=float,
        default=None,
        help="with --prune-log: minimum workload support for a mined "
        "query cluster to sponsor candidates (default 0.01)",
    )
    advise.add_argument(
        "--similarity",
        type=float,
        default=None,
        help="with --prune-log: Jaccard attribute-set similarity for "
        "merging clusters (default 0.5)",
    )
    advise.add_argument(
        "--max-indexes-per-view",
        type=int,
        default=None,
        help="with --prune-log: cap on mined fat-index keys per kept "
        "view (default 8)",
    )
    advise.add_argument(
        "--benefit-bound",
        type=float,
        default=None,
        help="with --prune-log: fail (exit 2) when the certified "
        "forgone-benefit bound exceeds this fraction of the "
        "no-precomputation cost",
    )

    mine = sub.add_parser(
        "mine",
        help="mine a recorded query log into a pruned candidate space "
        "and report what pruning keeps, drops, and certifiably forgoes",
    )
    mine.add_argument(
        "--lattice", required=True, help="lattice JSON document (see repro.io)"
    )
    mine.add_argument(
        "--log",
        required=True,
        help="query log JSONL (e.g. from 'repro serve --record')",
    )
    mine.add_argument(
        "--support",
        type=float,
        default=None,
        help="minimum workload support for a cluster to sponsor "
        "candidates (default 0.01)",
    )
    mine.add_argument(
        "--similarity",
        type=float,
        default=None,
        help="Jaccard attribute-set similarity for merging clusters "
        "(default 0.5)",
    )
    mine.add_argument(
        "--max-indexes-per-view",
        type=int,
        default=None,
        help="cap on mined fat-index keys per kept view (default 8)",
    )
    mine.add_argument(
        "--output", help="write the mined-candidate report JSON here"
    )

    resume = sub.add_parser(
        "resume",
        help="continue an interrupted advise run from its checkpoint",
    )
    resume.add_argument(
        "--lattice", required=True, help="the same cube document the "
        "interrupted run used"
    )
    resume.add_argument(
        "--checkpoint", required=True, help="checkpoint file written by "
        "advise --checkpoint"
    )
    resume.add_argument(
        "--index-universe", choices=("fat", "all", "none"), default="fat",
        help="must match the interrupted run (the checkpoint's graph "
        "fingerprint is verified)",
    )
    resume.add_argument("--output", help="write the selection as JSON here")
    resume.add_argument("--deadline", type=float, default=None)
    resume.add_argument("--memory-limit-mb", type=float, default=None)

    explain = sub.add_parser(
        "explain", help="explain a saved selection: per-query plans and value"
    )
    explain.add_argument("--lattice", required=True, help="lattice JSON document")
    explain.add_argument(
        "--selection", required=True, help="selection JSON (from advise --output)"
    )
    explain.add_argument(
        "--index-universe", choices=("fat", "all", "none"), default="fat"
    )

    partition = sub.add_parser(
        "partition",
        help="split a recorded workload into balanced partitions and "
        "advise one divergent selection per replica",
    )
    partition.add_argument(
        "--dims",
        type=int,
        default=4,
        choices=(3, 4, 5),
        help="dimensions of the dense serving cube (default: 4)",
    )
    partition.add_argument(
        "--log", required=True, help="query log JSONL from repro serve --record"
    )
    partition.add_argument(
        "--partitions",
        type=int,
        default=3,
        help="replica count / workload partitions (default: 3)",
    )
    partition.add_argument(
        "--space",
        type=float,
        default=None,
        help="per-replica space budget in rows (default: 3x the top view)",
    )
    partition.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="1greedy",
        help="selection algorithm run per partition (default: 1greedy)",
    )
    partition.add_argument(
        "--similarity",
        type=float,
        default=None,
        help="Jaccard attribute-set similarity for clustering "
        "(default: 0.5)",
    )
    partition.add_argument(
        "--support",
        type=float,
        default=0.0,
        help="candidate-mining support threshold per partition "
        "(default: 0)",
    )
    partition.add_argument(
        "--checkpoint",
        default=None,
        help="advisor checkpoint path (each partition a resumable stage)",
    )
    partition.add_argument(
        "--output",
        default=None,
        help="write the divergence report JSON here",
    )

    tpcd = sub.add_parser("tpcd", help="run the paper's Example 2.1 demo")
    tpcd.add_argument(
        "--space", type=float, default=None, help="override the 25M-row budget"
    )

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("names", nargs="*", help="subset of experiments")

    def serving_flags(command, log_flags):
        command.add_argument(
            "--dims",
            type=int,
            default=4,
            choices=(3, 4, 5),
            help="dimensions of the dense serving cube (default: 4)",
        )
        command.add_argument(
            "--selection",
            help="selection JSON from advise --output; default: advise "
            "inline with --algorithm under --space",
        )
        command.add_argument(
            "--space",
            type=float,
            default=None,
            help="space budget in rows for the inline advise "
            "(default: 3x the top view)",
        )
        command.add_argument(
            "--algorithm",
            choices=sorted(ALGORITHMS),
            default="1greedy",
            help="algorithm for inline advise and re-advise (default: 1greedy)",
        )
        command.add_argument(
            "--batch-size",
            type=int,
            default=None,
            help="queries answered per vectorized serve_batch pass "
            "(default: 64)",
        )
        command.add_argument(
            "--cache-mb",
            type=float,
            default=None,
            help="result-cache capacity in MiB (0 disables the cache; "
            "default: 0)",
        )
        command.add_argument(
            "--record", help="append every served query to this JSONL log"
        )
        command.add_argument(
            "--telemetry", help="write the telemetry snapshot JSON here"
        )
        command.add_argument(
            "--adaptive",
            action="store_true",
            help="monitor workload drift and re-advise in the background, "
            "hot-swapping the selection when the new one wins by --margin",
        )
        command.add_argument(
            "--full-readvise",
            action="store_true",
            help="with --adaptive: re-advise on the full 3^n candidate "
            "universe instead of workload-mined candidates (only feasible "
            "at small d)",
        )
        command.add_argument(
            "--drift-threshold",
            type=float,
            default=None,
            help="total-variation distance that counts as drift "
            "(single server only; default: 0.25)",
        )
        command.add_argument(
            "--drift-min-queries",
            type=int,
            default=None,
            help="observations required before drift can trigger "
            "(single server only; default: 50)",
        )
        command.add_argument(
            "--margin",
            type=float,
            default=None,
            help="with --adaptive: relative cost improvement a re-advised "
            "selection needs to be swapped in (default: 0.05)",
        )
        command.add_argument(
            "--deadline",
            type=float,
            default=None,
            help="with --adaptive: wall-clock budget in seconds for each "
            "background re-advise",
        )
        command.add_argument(
            "--checkpoint",
            default=None,
            help="with --adaptive: checkpoint path for the background "
            "re-advise runs",
        )
        command.add_argument(
            "--fail-on-fallback",
            action="store_true",
            help="exit 1 if any query fell back to a raw-cube scan",
        )
        command.add_argument(
            "--replicas",
            type=int,
            default=1,
            help=">= 2 serves through a supervised replica fleet with "
            "health-checked routing and retry/failover; the single-server "
            "features --adaptive and --record are rejected on the fleet "
            "path (default: 1, single server)",
        )
        command.add_argument(
            "--divergent",
            action="store_true",
            help="partition the workload by attribute-set similarity, "
            "advise one divergent selection per replica under the same "
            "per-replica budget, and dispatch each query to its "
            "predicted-cheapest replica (requires --replicas >= 2)",
        )
        command.add_argument(
            "--query-deadline",
            type=float,
            default=None,
            help="fleet per-attempt answer deadline in seconds before "
            "the router re-routes (requires --replicas >= 2; default: 2.0)",
        )
        command.add_argument(
            "--retry-attempts",
            type=int,
            default=None,
            help="fleet attempts per query, with jittered exponential "
            "backoff between them (requires --replicas >= 2; default: 3)",
        )
        command.add_argument(
            "--probe-interval",
            type=float,
            default=None,
            help="seconds between background fleet health sweeps "
            "(requires --replicas >= 2; default: no background probing)",
        )
        command.add_argument(
            "--backend",
            choices=("engine", "sqlite"),
            default="engine",
            help="execution backend: the in-process row engine, or a "
            "mirrored SQLite database with real CREATE INDEX structures "
            "(single-server only; default: engine)",
        )
        log_flags(command)

    serve = sub.add_parser(
        "serve",
        help="materialize a selection and serve a synthetic query workload",
    )
    serving_flags(
        serve,
        lambda c: (
            c.add_argument(
                "--queries",
                type=int,
                default=200,
                help="number of synthetic queries to serve (default: 200)",
            ),
            c.add_argument(
                "--rng",
                type=int,
                default=0,
                help="random seed for the synthetic workload (default: 0)",
            ),
            c.add_argument(
                "--zipf",
                type=float,
                default=1.0,
                help="Zipf exponent of the synthetic pattern mix "
                "(default: 1.0)",
            ),
        ),
    )

    replay = sub.add_parser(
        "replay",
        help="replay a recorded query log against a materialized selection",
    )
    serving_flags(
        replay,
        lambda c: c.add_argument(
            "--log", required=True, help="query log JSONL to replay"
        ),
    )

    validate_cost = sub.add_parser(
        "validate-cost",
        help="execute a workload on both the row engine and SQLite, "
        "assert identical answers, and report measured-vs-predicted "
        "cost correlation per structure class",
    )
    validate_cost.add_argument(
        "--dims",
        type=int,
        default=4,
        choices=(3, 4, 5),
        help="dimensions of the dense serving cube (default: 4)",
    )
    validate_cost.add_argument(
        "--selection",
        help="selection JSON from advise --output; default: advise "
        "inline with --algorithm under --space",
    )
    validate_cost.add_argument(
        "--space",
        type=float,
        default=None,
        help="space budget in rows for the inline advise "
        "(default: 3x the top view)",
    )
    validate_cost.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="1greedy",
        help="algorithm for the inline advise (default: 1greedy)",
    )
    validate_cost.add_argument(
        "--queries",
        type=int,
        default=300,
        help="synthetic workload size (default: 300)",
    )
    validate_cost.add_argument(
        "--rng", type=int, default=0, help="workload seed (default: 0)"
    )
    validate_cost.add_argument(
        "--output", help="write the correlation report JSON here"
    )
    return parser


def _load_graph(path: str, index_universe: str):
    """Load a cube document (flat or hierarchical) and compile its graph.

    Returns ``(graph, top_name, top_rows)``.
    """
    import json

    with open(path) as f:
        document = json.load(f)
    if is_graph_document(document):
        graph = graph_from_dict(document)
        # a raw graph has no distinguished top view; no automatic seed
        return graph, None, 0.0
    if is_hierarchical_document(document):
        from repro.core.hierarchy import hierarchical_lattice_graph

        cube = hierarchical_cube_from_dict(document)
        cap = document.get("max_fat_indexes_per_view")
        graph = hierarchical_lattice_graph(cube, max_fat_indexes_per_view=cap)
        return graph, cube.label(cube.top()), cube.size(cube.top())
    lattice = lattice_from_dict(document)
    graph = QueryViewGraph.from_cube(lattice, index_universe=index_universe)
    return graph, lattice.label(lattice.top), lattice.size(lattice.top)


def _report_result(result, output: Optional[str]) -> int:
    """Print a selection result (complete or partial) and persist it."""
    print(result.table())
    print()
    print(
        f"average query cost: {result.average_query_cost:g} rows "
        f"(no precomputation: {result.initial_tau / result.total_frequency:g})"
    )
    if output:
        save_selection(result, output)
        print(f"selection written to {output}")
    return EXIT_INTERRUPTED if result.interrupted else EXIT_OK


def _run_with_context(
    algorithm, graph, space, seed, args, graph_factory=None, finish=None
) -> int:
    """Run an algorithm under the runtime context the flags describe.

    Without runtime flags this is a plain call.  With them, the run gets
    budgets, stage checkpointing, and signal handlers; an early stop
    still reports (and saves) the best-so-far selection, exiting 3.

    ``graph_factory(context)`` (context is ``None`` on the plain path)
    lets the pruned-advise path declare its mining stage a kill/resume
    boundary before the graph exists; ``finish(result)`` overrides the
    default reporting so callers can append bound checks.
    """
    from repro.runtime import RunContext, RuntimeStop

    if finish is None:
        finish = lambda result: _report_result(result, args.output)  # noqa: E731
    resume_from = getattr(args, "resume_from", None)
    wants_context = (
        args.deadline is not None
        or args.memory_limit_mb is not None
        or args.checkpoint is not None
        or resume_from is not None
    )
    if not wants_context:
        if graph_factory is not None:
            graph = graph_factory(None)
        return finish(algorithm.run(graph, space, seed=seed))
    context = RunContext(
        deadline=args.deadline,
        memory_limit_mb=args.memory_limit_mb,
        checkpoint_path=args.checkpoint,
        resume_from=resume_from,
    )
    try:
        with context.handle_signals():
            if graph_factory is not None:
                graph = graph_factory(context)
            result = algorithm.run(graph, space, seed=seed, context=context)
    except RuntimeStop as stop:
        print(f"run stopped early: {stop}", file=sys.stderr)
        if args.checkpoint:
            print(
                f"resume with: repro resume --lattice {args.lattice} "
                f"--checkpoint {args.checkpoint}",
                file=sys.stderr,
            )
        if stop.result is None:
            return EXIT_INTERRUPTED  # stopped before the first stage
        return finish(stop.result)
    return finish(result)


def _load_flat_lattice(path: str):
    """Load a lattice document that must be a flat cube (mining needs
    exact per-attribute cardinalities to enumerate candidate keys)."""
    import json

    with open(path) as f:
        document = json.load(f)
    if is_graph_document(document) or is_hierarchical_document(document):
        raise ValueError(
            f"{path}: workload mining needs a flat cube lattice document "
            "(dimensions + sizes), not a raw graph or hierarchical cube"
        )
    return lattice_from_dict(document)


def _mine_log(lattice, log_path: str, args: argparse.Namespace):
    """Stream a JSONL query log and mine it into candidates."""
    from repro.cube.query_log import pattern_counts
    from repro.io import iter_query_log
    from repro.mining import mine_candidates

    counts = pattern_counts(iter_query_log(log_path, lattice.schema))
    if not counts:
        raise ValueError(f"{log_path}: query log is empty, nothing to mine")
    kwargs = {}
    if args.support is not None:
        kwargs["support"] = args.support
    if args.similarity is not None:
        kwargs["similarity"] = args.similarity
    if args.max_indexes_per_view is not None:
        kwargs["max_indexes_per_view"] = args.max_indexes_per_view
    return mine_candidates(counts, lattice.schema.names, **kwargs)


def _mining_record(mined, log_path: str) -> dict:
    """The checkpoint payload that proves a resume re-mined identically."""
    return {
        "log": str(log_path),
        "support": mined.support,
        "similarity": mined.similarity,
        "max_indexes_per_view": mined.max_indexes_per_view,
        "fingerprint": mined.fingerprint(),
    }


def _advise_pruned(args: argparse.Namespace) -> int:
    """The --prune-log path: mine, bound, advise on the pruned graph."""
    from repro.core.index import count_fat_indexes
    from repro.mining import compute_benefit_bound

    lattice = _load_flat_lattice(args.lattice)
    if args.index_universe != "fat":
        raise ValueError(
            "--prune-log mines fat index keys; --index-universe must be 'fat'"
        )
    mined = _mine_log(lattice, args.prune_log, args)
    bound = compute_benefit_bound(mined, lattice)
    record = _mining_record(mined, args.prune_log)
    n = lattice.schema.n_dims
    print(
        f"mined {mined.n_views} views + {mined.n_indexes} indexes from "
        f"{mined.n_queries} observed patterns "
        f"(full universe: {2 ** n} views + {count_fat_indexes(n)} indexes, "
        f"{3 ** n} patterns)"
    )

    seed = () if args.no_seed_top else (lattice.label(lattice.top),)
    _check_seed_fits(seed, lattice.size(lattice.top), args.space)

    def graph_factory(context):
        if context is not None:
            context.mining_boundary(record)
        return QueryViewGraph.from_mined(lattice, mined)

    def finish(result) -> int:
        code = _report_result(result, args.output)
        forgone = bound.forgone_bound(result.tau)
        relative = (
            forgone / result.initial_tau if result.initial_tau > 0 else 0.0
        )
        print(
            f"pruning bound: forgone benefit <= {forgone:g} rows "
            f"({relative:.2%} of the no-precomputation cost); "
            f"ideal tau {bound.ideal_tau:g}, kept tau {bound.kept_tau:g}"
        )
        if args.benefit_bound is not None and relative > args.benefit_bound:
            raise ValueError(
                f"certified forgone-benefit bound {relative:.3g} "
                f"exceeds --benefit-bound {args.benefit_bound:g}"
            )
        return code

    algorithm = ALGORITHMS[args.algorithm](args.fit)
    return _run_with_context(
        algorithm,
        None,
        args.space,
        seed,
        args,
        graph_factory=graph_factory,
        finish=finish,
    )


def _check_seed_fits(seed, top_rows: float, space: float) -> None:
    """A seeded top view must fit the budget."""
    if seed and top_rows > space:
        raise ValueError(
            f"the top view needs {top_rows:g} rows, more than the "
            f"{space:g}-row budget (pass --no-seed-top to skip it)"
        )


def _load_selected(path: str) -> list:
    """The ``selected`` list of a selection document (advise --output)."""
    import json

    with open(path) as f:
        selected = json.load(f).get("selected")
    if not isinstance(selected, list):
        raise ValueError(f"{path}: selection document has no 'selected' list")
    return selected


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine a recorded query log and report the pruned candidate space."""
    from repro.core.index import count_fat_indexes
    from repro.mining import (
        compute_benefit_bound,
        mining_report,
    )

    lattice = _load_flat_lattice(args.lattice)
    mined = _mine_log(lattice, args.log, args)
    bound = compute_benefit_bound(mined, lattice)
    n = lattice.schema.n_dims
    print(
        f"workload: {mined.total_weight:g} queries over {mined.n_queries} "
        f"distinct patterns; {len(mined.clusters)} clusters "
        f"({mined.kept_clusters} above support {mined.support:g}, "
        f"{mined.dropped_weight:g} weight dropped)"
    )
    print(
        f"candidates kept: {mined.n_views} / {2 ** n} views, "
        f"{mined.n_indexes} / {count_fat_indexes(n)} fat indexes"
    )
    from repro.core.view import View

    for cluster in mined.clusters[:10]:
        attrs = lattice.label(View(cluster.attrs))
        kept = "kept" if cluster.support >= mined.support else "dropped"
        print(
            f"  cluster {attrs}: {cluster.size} patterns, "
            f"weight {cluster.weight:g} (support {cluster.support:.3f}, {kept})"
        )
    if len(mined.clusters) > 10:
        print(f"  ... and {len(mined.clusters) - 10} more clusters")
    print(
        f"unlimited-budget pruning gap: {bound.pruning_gap:g} rows "
        f"(kept tau {bound.kept_tau:g} vs ideal tau {bound.ideal_tau:g})"
    )
    if args.output:
        write_json(mining_report(mined, bound, lattice), args.output)
        print(f"mined-candidate report written to {args.output}")
    return EXIT_OK


def cmd_advise(args: argparse.Namespace) -> int:
    """Run a selection algorithm on the cube document and report it."""
    mining_flags = (
        args.support,
        args.similarity,
        args.max_indexes_per_view,
        args.benefit_bound,
    )
    if args.prune_log is None and any(f is not None for f in mining_flags):
        raise ValueError(
            "--support/--similarity/--max-indexes-per-view/--benefit-bound "
            "require --prune-log"
        )
    if args.benefit_bound is not None and not args.benefit_bound >= 0:
        raise ValueError(f"--benefit-bound must be >= 0, got {args.benefit_bound:g}")
    if args.prune_log is not None:
        return _advise_pruned(args)
    graph, top_name, top_rows = _load_graph(args.lattice, args.index_universe)
    seed = () if (args.no_seed_top or top_name is None) else (top_name,)
    _check_seed_fits(seed, top_rows, args.space)
    algorithm = ALGORITHMS[args.algorithm](args.fit)
    return _run_with_context(algorithm, graph, args.space, seed, args)


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted advise run from its checkpoint."""
    from repro.runtime import load_checkpoint
    from repro.runtime.checkpoint import algorithm_from_config
    from repro.runtime.context import MINING_EXTRA_KEY

    checkpoint = load_checkpoint(args.checkpoint)
    mining = (checkpoint.extra or {}).get(MINING_EXTRA_KEY)
    graph = None
    graph_factory = None
    if mining:
        # a pruned-advise checkpoint: re-mine the recorded log with the
        # recorded parameters; mining_boundary verifies the fingerprint
        lattice = _load_flat_lattice(args.lattice)
        mine_args = argparse.Namespace(
            support=mining["support"],
            similarity=mining["similarity"],
            max_indexes_per_view=mining["max_indexes_per_view"],
        )

        def graph_factory(context):
            mined = _mine_log(lattice, mining["log"], mine_args)
            if context is not None:
                context.mining_boundary(_mining_record(mined, mining["log"]))
            return QueryViewGraph.from_mined(lattice, mined)

    else:
        graph, __top, __rows = _load_graph(args.lattice, args.index_universe)
    algorithm = algorithm_from_config(checkpoint.algorithm)
    args.resume_from = checkpoint
    print(
        f"resuming {checkpoint.algorithm['class']} from stage "
        f"{checkpoint.stage_counter} "
        f"({len(checkpoint.selected)} structures selected, "
        f"{checkpoint.remaining_space:g} rows of budget left)"
    )
    return _run_with_context(
        algorithm,
        graph,
        checkpoint.space_budget,
        checkpoint.seed,
        args,
        graph_factory=graph_factory,
    )


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain a saved selection against its cube document."""
    from repro.analysis import explain

    graph, __, __rows = _load_graph(args.lattice, args.index_universe)
    explanation = explain(graph, _load_selected(args.selection))
    print(explanation.table())
    print()
    print(
        f"benefit {explanation.benefit:g}; coverage {explanation.coverage():.0%}; "
        f"{len(explanation.raw_fallback_queries)} queries still on raw data"
    )
    return 0


def cmd_tpcd(args: argparse.Namespace) -> int:
    """Print the Example 2.1 comparison table."""
    from repro.datasets.tpcd import TPCD_SPACE_BUDGET
    from repro.experiments.example21 import format_example21, run_example21

    space = args.space if args.space is not None else TPCD_SPACE_BUDGET
    print(format_example21(run_example21(space=space)))
    return 0


def _serving_cube(args: argparse.Namespace, integral_measures: bool = False):
    """The dense serving cube of ``--dims`` and its cost model.

    Returns ``(fact, model)``.  ``integral_measures`` builds the cube with
    whole-number measures — the fixture ``validate-cost`` uses so
    engine-vs-SQLite sums are order-exact and byte-comparable.
    """
    from repro.core.costmodel import LinearCostModel
    from repro.datasets.tpcd import tpcd_serving_fact

    fact = tpcd_serving_fact(args.dims, integral_measures=integral_measures)
    return fact, LinearCostModel.from_fact(fact)


def _serving_selection(args: argparse.Namespace, model):
    """The ``--selection`` document's structures, or the serving advise
    (:func:`repro.algorithms.serving_advise`) with ``--algorithm`` under
    ``--space``.  Returns ``(selected, space)``."""
    from repro.algorithms import serving_advise, serving_space

    space = args.space if args.space is not None else serving_space(model.lattice)
    if args.selection:
        return _load_selected(args.selection), space
    return serving_advise(model, args.algorithm, space).selected, space


def _cache_bytes(args: argparse.Namespace) -> int:
    """The result cache's capacity in bytes; 0 turns the cache off."""
    if not args.cache_mb:
        return 0
    capacity = int(args.cache_mb * 2**20)
    if capacity < 1:
        raise ValueError(f"--cache-mb {args.cache_mb:g} is less than one byte")
    return capacity


def _build_server(args: argparse.Namespace):
    """Shared serve/replay setup: cube, selection, server.

    Returns ``(schema, server, recorder)`` — the recorder is ``None``
    unless ``--record`` was given.
    """
    from repro.core.query import enumerate_slice_queries
    from repro.serve import (
        AdaptiveReselector,
        QueryServer,
        ResultCache,
        WorkloadRecorder,
    )

    fact, model = _serving_cube(args)
    selected, space = _serving_selection(args, model)
    lattice = model.lattice
    schema = lattice.schema
    advised = {q: 1.0 for q in enumerate_slice_queries(schema.names)}
    reselector = None
    if args.adaptive:
        reselector = AdaptiveReselector(
            lattice,
            ALGORITHMS[args.algorithm](FIT_STRICT),
            space,
            margin=args.margin if args.margin is not None else 0.05,
            seed=(lattice.label(lattice.top),),
            deadline=args.deadline,
            checkpoint_path=args.checkpoint,
            prune=not args.full_readvise,
        )
    recorder = WorkloadRecorder(args.record) if args.record else None
    cache_bytes = _cache_bytes(args)
    cache = ResultCache(capacity_bytes=cache_bytes) if cache_bytes else None
    backend = None
    if getattr(args, "backend", "engine") == "sqlite":
        from repro.backends import SqliteBackend

        backend = SqliteBackend()
    server = QueryServer(
        fact,
        selected,
        cost_model=model,
        advised=advised,
        recorder=recorder,
        reselector=reselector,
        cache=cache,
        drift_threshold=args.drift_threshold,
        drift_min_queries=args.drift_min_queries,
        backend=backend,
    )
    return schema, server, recorder


def _report_serving(args: argparse.Namespace, server, report, recorder) -> int:
    """Print the serving summary, persist telemetry, pick the exit code."""
    from repro.serve import validate_telemetry

    server.close(timeout=60)
    snapshot = validate_telemetry(server.telemetry_snapshot())
    cost = snapshot["cost"]
    print(
        f"served {report.queries} queries at {report.qps:.0f} q/s "
        f"(p50 {report.p50_us:.0f} us, p99 {report.p99_us:.0f} us, "
        f"batch {report.batch_size})"
    )
    print(
        f"rows scanned {cost['actual_rows']:g} "
        f"(predicted {cost['predicted_rows']:g}, "
        f"{cost['exact_matches']}/{report.queries} exact); "
        f"{report.fallbacks} raw-cube fallbacks; "
        f"{snapshot['swaps']} selection swaps"
    )
    if server.backend is not None:
        print(
            f"backend: sqlite ({server.backend.reloads} mirror "
            f"{'rebuild' if server.backend.reloads == 1 else 'rebuilds'})"
        )
    cache = snapshot["cache"]
    if cache["enabled"]:
        lookups = cache["hits"] + cache["misses"]
        rate = cache["hits"] / lookups if lookups else 0.0
        print(
            f"result cache: {cache['hits']} hits / {lookups} lookups "
            f"({rate:.0%}), {cache['entries']} entries "
            f"({cache['bytes']} bytes), {cache['evictions']} evictions, "
            f"{cache['invalidations']} invalidations"
        )
    if args.telemetry:
        write_json(snapshot, args.telemetry)
        print(f"telemetry written to {args.telemetry}")
    if args.record:
        print(f"workload recorded to {args.record}")
    if args.fail_on_fallback and report.fallbacks:
        print(
            f"error: {report.fallbacks} queries fell back to the raw cube",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _serve_fleet(args: argparse.Namespace, entries) -> int:
    """Serve a workload through a supervised replica fleet
    (``--replicas >= 2``): health-checked routing, per-query deadlines,
    retry/failover, per-structure circuit breakers."""
    import time as _time

    from repro.serve import (
        DEFAULT_BATCH_SIZE,
        DEFAULT_QUERY_DEADLINE,
        ReplicaFleet,
        RetryPolicy,
        ServingError,
        validate_telemetry,
    )
    from repro.serve.telemetry import _percentile

    fact, model = _serving_cube(args)
    router = None
    ratio = None
    if args.divergent:
        from repro.cube.query_log import pattern_counts
        from repro.distributed import plan_divergent

        __, advice, router, divergence = plan_divergent(
            model, pattern_counts(entries), args.algorithm, args.replicas,
            args.space,
        )
        selections = advice.selections
        ratio = divergence["predicted_cost_ratio"]
    else:
        selections, __ = _serving_selection(args, model)
    retry = RetryPolicy(
        max_attempts=(
            args.retry_attempts if args.retry_attempts is not None else 3
        )
    )
    fleet = ReplicaFleet(
        fact,
        selections,
        replicas=args.replicas,
        cost_model=model,
        router=router,
        batch_size=(
            args.batch_size if args.batch_size is not None else DEFAULT_BATCH_SIZE
        ),
        cache_bytes=_cache_bytes(args),
        retry=retry,
        query_deadline=(
            args.query_deadline
            if args.query_deadline is not None
            else DEFAULT_QUERY_DEADLINE
        ),
        probe_interval=args.probe_interval,
    )
    if router is not None:
        sizes = "/".join(str(len(s)) for s in selections)
        print(
            f"serving {len(entries)} queries through {args.replicas} "
            f"divergent replicas ({sizes} structures materialized; "
            f"predicted-cost ratio {ratio:.4f} vs identical copies)"
        )
    else:
        print(
            f"serving {len(entries)} queries through {args.replicas} "
            f"replicas ({len(selections)} structures materialized per replica)"
        )
    start = _time.perf_counter()
    results = fleet.serve_many(entries)
    seconds = _time.perf_counter() - start
    fleet.close()
    failed = sum(1 for r in results if isinstance(r, ServingError))
    served = [r for r in results if not isinstance(r, ServingError)]
    fallbacks = sum(1 for r in served if r.fallback)
    latencies = [r.latency_us for r in served]
    stats = fleet.stats()
    qps = len(served) / seconds if seconds > 0 else 0.0
    print(
        f"served {len(served)}/{len(entries)} queries at {qps:.0f} q/s "
        f"(p50 {_percentile(latencies, 0.5):.0f} us, "
        f"p99 {_percentile(latencies, 0.99):.0f} us, {failed} failed typed)"
    )
    print(
        f"fleet: {stats['healthy']}/{args.replicas} replicas healthy, "
        f"{stats['retries']} retries, {stats['deadline_timeouts']} deadline "
        f"timeouts, {stats['unavailable_seconds']:.2f}s unavailable, "
        f"{fallbacks} raw-cube fallbacks"
    )
    if router is not None:
        fleet_counters = stats["fleet"]
        print(
            f"routing: {sum(fleet_counters['routed_hits'].values())} queries "
            f"on their predicted-cheapest replica, "
            f"{sum(fleet_counters['misroutes'].values())} misroutes"
        )
    if args.telemetry:
        snapshot = validate_telemetry(fleet.telemetry_snapshot())
        if ratio is not None:
            snapshot["fleet"]["predicted_cost_ratio"] = ratio
        write_json(snapshot, args.telemetry)
        print(f"telemetry written to {args.telemetry}")
    if args.fail_on_fallback and fallbacks:
        print(
            f"error: {fallbacks} queries fell back to the raw cube",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_FAILED if failed else EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    """Partition a recorded workload and advise per-replica selections."""
    from repro.cube.query_log import pattern_counts
    from repro.distributed import plan_divergent
    from repro.io import iter_query_log

    __, model = _serving_cube(args)
    counts = pattern_counts(iter_query_log(args.log, model.lattice.schema))
    if not counts:
        raise ValueError(f"{args.log}: query log is empty, nothing to partition")
    partitioned, advice, __, report = plan_divergent(
        model,
        counts,
        args.algorithm,
        args.partitions,
        args.space,
        similarity=args.similarity,
        support=args.support,
        checkpoint_path=args.checkpoint,
    )
    print(
        f"partitioned {sum(p.n_patterns for p in partitioned.partitions)} "
        f"patterns (weight {partitioned.total_weight:g}) into "
        f"{args.partitions} slices"
    )
    for plan, part in zip(advice.plans, partitioned.partitions):
        print(
            f"  replica {plan.replica_id}: {part.n_patterns} patterns "
            f"(weight {part.weight:g}), {len(plan.selection)} structures, "
            f"tau {plan.tau:g}, space {plan.space_used:g}"
            + (" [resumed]" if plan.resumed else "")
        )
    print(
        f"predicted-cost ratio {report['predicted_cost_ratio']:.4f} "
        f"(divergent {report['divergent_predicted_cost']:g} vs identical "
        f"{report['identical_predicted_cost']:g})"
    )
    if args.output:
        write_json(report, args.output)
        print(f"divergence report written to {args.output}")
    return EXIT_OK


#: ``serve``/``replay`` flags that only one path reads: the replica
#: fleet (``--replicas >= 2``), the background re-advise (``--adaptive``)
#: and the single server's drift monitor.  Each is rejected where
#: nothing would read it.
FLEET_FLAGS = (
    "--divergent",
    "--query-deadline",
    "--retry-attempts",
    "--probe-interval",
)
READVISE_FLAGS = ("--margin", "--deadline", "--checkpoint", "--full-readvise")
DRIFT_FLAGS = ("--drift-threshold", "--drift-min-queries")


def _given(args: argparse.Namespace, flag: str) -> bool:
    value = getattr(args, flag[2:].replace("-", "_"))
    return value is not None and value is not False


def _check_serving_flags(args: argparse.Namespace) -> None:
    """Flag values and combinations serve and replay reject as input
    errors, a flag that nothing on the chosen path reads among them."""
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    if args.cache_mb is not None and not (
        math.isfinite(args.cache_mb) and args.cache_mb >= 0
    ):
        raise ValueError(
            f"--cache-mb must be a finite number >= 0, got {args.cache_mb:g}"
        )
    if args.replicas < 2:
        for flag in FLEET_FLAGS:
            if _given(args, flag):
                raise ValueError(f"{flag} requires --replicas >= 2")
    else:
        if args.adaptive or args.record:
            raise ValueError(
                "the single-server features --adaptive and --record are "
                "rejected on the fleet path; drop them or use --replicas 1"
            )
        for flag in DRIFT_FLAGS:
            if _given(args, flag):
                raise ValueError(
                    f"{flag} sets the single server's drift monitor; drop "
                    "it or use --replicas 1"
                )
        if args.backend == "sqlite":
            raise ValueError("--backend sqlite serves single-server only")
    if not args.adaptive:
        for flag in READVISE_FLAGS:
            if _given(args, flag):
                raise ValueError(
                    f"{flag} sets the background re-advise; it requires "
                    "--adaptive"
                )
    if args.divergent and args.selection:
        raise ValueError(
            "--divergent advises one selection per replica; drop --selection"
        )


def cmd_serve(args: argparse.Namespace) -> int:
    """Materialize a selection and serve a synthetic workload."""
    from repro.cube.query_log import generate_query_log
    from repro.datasets.tpcd import tpcd_serving_schema

    _check_serving_flags(args)
    if args.replicas >= 2:
        schema = tpcd_serving_schema(args.dims)
        log = generate_query_log(
            schema, args.queries, rng=args.rng, zipf_exponent=args.zipf
        )
        return _serve_fleet(args, log)
    schema, server, recorder = _build_server(args)
    log = generate_query_log(
        schema, args.queries, rng=args.rng, zipf_exponent=args.zipf
    )
    print(
        f"serving {len(log)} queries over {args.dims} dimensions "
        f"({len(server.selection)} structures materialized)"
    )
    report = server.replay(log, batch_size=args.batch_size)
    return _report_serving(args, server, report, recorder)


def _replay_log(args: argparse.Namespace, schema) -> list:
    """The recorded log ``replay`` serves; an empty one is bad input."""
    from repro.io import load_query_log

    log = load_query_log(args.log, schema)
    if not log:
        raise ValueError(f"{args.log}: query log is empty, nothing to replay")
    return log


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded query log through the batched serving path."""
    _check_serving_flags(args)
    if args.replicas >= 2:
        from repro.datasets.tpcd import tpcd_serving_schema

        return _serve_fleet(args, _replay_log(args, tpcd_serving_schema(args.dims)))
    schema, server, recorder = _build_server(args)
    log = _replay_log(args, schema)
    print(
        f"replaying {len(log)} queries from {args.log} "
        f"({len(server.selection)} structures materialized)"
    )
    report = server.replay(log, batch_size=args.batch_size)
    return _report_serving(args, server, report, recorder)


def cmd_validate_cost(args: argparse.Namespace) -> int:
    """Differentially validate the cost model on the SQLite backend."""
    from repro.backends import validate_cost
    from repro.backends.validate import format_report

    fact, model = _serving_cube(args, integral_measures=True)
    selected, __ = _serving_selection(args, model)
    report = validate_cost(
        fact, selected, cost_model=model, n_queries=args.queries, rng=args.rng
    )
    report["dims"] = args.dims
    print(format_report(report))
    if args.output:
        write_json(report, args.output)
        print(f"correlation report written to {args.output}")
    if report["mismatches"]:
        print(
            f"error: {report['mismatches']} engine-vs-SQLite answer "
            "mismatches",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def cmd_experiments(args: argparse.Namespace) -> int:
    """Delegate to the experiment registry."""
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.names)


COMMANDS = {
    "advise": cmd_advise,
    "mine": cmd_mine,
    "explain": cmd_explain,
    "resume": cmd_resume,
    "tpcd": cmd_tpcd,
    "partition": cmd_partition,
    "serve": cmd_serve,
    "replay": cmd_replay,
    "validate-cost": cmd_validate_cost,
    "experiments": cmd_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand.

    Input errors — missing or malformed documents, bad budgets, stale
    checkpoints — exit 2 with a one-line message; ``--traceback``
    restores the full stack for debugging.
    """
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    # ValueError covers json.JSONDecodeError, the io.py document
    # validators, bad budgets (check_space), and CheckpointError
    return run_checked(lambda: command(args), traceback=args.traceback)
