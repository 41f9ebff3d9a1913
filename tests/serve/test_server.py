"""QueryServer: routing, execution fidelity, fallback, concurrent replay.

The headline assertion is the paper's cost model made falsifiable: on a
dense cube every answerable query's *actual* rows processed equals the
model's ``|C| / |E|`` prediction exactly — for every slice-query pattern
of the d=4 and d=5 TPC-D serving fixtures.
"""

import numpy as np
import pytest

from repro.algorithms import RGreedy
from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.core.query import enumerate_slice_queries
from repro.cube.query_log import LogEntry, generate_query_log, pattern_counts
from repro.datasets.tpcd import tpcd_serving_fact
from repro.serve import QueryServer, RAW_LABEL, WorkloadRecorder, validate_telemetry
from repro.serve.telemetry import empty_resilience_stats


def advise_selection(lattice, space_factor=3.0, r=1):
    """A realistic mixed selection (views + fat indexes) for serving."""
    graph = QueryViewGraph.from_cube(lattice)
    engine = BenefitEngine(graph)
    top_label = lattice.label(lattice.top)
    space = space_factor * lattice.size(lattice.top)
    return RGreedy(r).run(engine, space, seed=(top_label,)).selected


def all_pattern_entries(schema, per_pattern=2, rng=0):
    """Concrete entries covering *every* slice-query pattern."""
    generator = np.random.default_rng(rng)
    entries = []
    for query in enumerate_slice_queries(schema.names):
        for _ in range(per_pattern):
            values = tuple(
                sorted(
                    (attr, int(generator.integers(0, schema.cardinality(attr))))
                    for attr in query.selection
                )
            )
            entries.append(LogEntry(query=query, values=values))
    return entries


class TestExactCostFidelity:
    """Predicted |C|/|E| == actual rows scanned, on every answerable query."""

    def _assert_exact(self, fact, schema, model):
        selection = advise_selection(model.lattice)
        server = QueryServer(fact, selection, cost_model=model)
        entries = all_pattern_entries(schema)
        for entry in entries:
            outcome = server.serve(entry)
            assert not outcome.fallback, f"{entry.query} fell back to raw"
            assert outcome.actual_rows == outcome.predicted_rows, (
                f"{entry.query} via {outcome.structure}: predicted "
                f"{outcome.predicted_rows}, scanned {outcome.actual_rows}"
            )
        snap = server.telemetry_snapshot()
        assert snap["queries"] == len(entries)
        assert snap["fallbacks"] == 0
        assert snap["cost"]["exact_matches"] == len(entries)
        assert snap["cost"]["max_abs_error"] == 0.0
        validate_telemetry(snap)

    def test_d4_every_pattern_exact(self, serve_fact4, serve_schema4, serve_model4):
        self._assert_exact(serve_fact4, serve_schema4, serve_model4)

    def test_d5_every_pattern_exact(self, serve_fact5, serve_schema5, serve_model5):
        self._assert_exact(serve_fact5, serve_schema5, serve_model5)

    def test_index_routes_beat_scans(self, serve_fact4, serve_model4):
        """Selection-heavy queries route through indexes, not full scans."""
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        index_hits = 0
        for entry in all_pattern_entries(server.fact.schema, per_pattern=1):
            outcome = server.serve(entry)
            if outcome.structure.startswith("I_"):
                index_hits += 1
                assert entry.query.selection, "index route on selection-free query"
        assert index_hits > 0


class TestValidEntriesStayHealthy:
    def test_resilience_counters_stay_zero(self):
        fact = tpcd_serving_fact(3, rng=0)
        server = QueryServer(fact, ["psc"])
        for entry in generate_query_log(fact.schema, 200, rng=1):
            outcome = server.serve(entry)
            assert not outcome.rescued
        assert server.telemetry_snapshot()["resilience"] == empty_resilience_stats()


class TestFallback:
    def test_unanswerable_query_falls_back_to_raw(self, serve_fact4, serve_model4):
        server = QueryServer(serve_fact4, ["none"], cost_model=serve_model4)
        entry = LogEntry(
            query=next(
                q
                for q in enumerate_slice_queries(serve_fact4.schema.names)
                if q.groupby
            ),
            values=(),
        )
        outcome = server.serve(entry)
        assert outcome.fallback
        assert outcome.structure == RAW_LABEL
        assert outcome.actual_rows == serve_fact4.n_rows
        assert outcome.predicted_rows == serve_model4.default_cost(entry.query)
        assert server.telemetry.fallbacks == 1

    def test_fallback_answers_match_materialized(self, serve_fact4, serve_model4):
        """The raw-scan fallback computes the same groups as a view plan."""
        schema = serve_fact4.schema
        served = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
        )
        bare = QueryServer(serve_fact4, ["none"], cost_model=serve_model4)
        entries = [
            e
            for e in all_pattern_entries(schema, per_pattern=1, rng=9)
            if e.query.view.attrs  # γ()σ() is answerable by the none view
        ]
        for entry in entries[:20]:
            fast = served.serve(entry)
            slow = bare.serve(entry)
            assert slow.fallback
            assert fast.groups.keys() == slow.groups.keys()
            for key, value in fast.groups.items():
                assert slow.groups[key] == pytest.approx(value)


class TestReplay:
    def test_serial_replay_report(self, serve_fact4, serve_schema4, serve_model4):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        log = generate_query_log(serve_schema4, 50, rng=2)
        report = server.replay(log)
        assert report.queries == 50
        assert report.fallbacks == 0
        assert report.qps > 0
        assert report.p50_us <= report.p99_us
        assert len(report.latencies_us) == 50

    def test_replay_records_workload(
        self, serve_fact4, serve_schema4, serve_model4, tmp_path
    ):
        """Recorder + replay: every entry lands in the log once."""
        from repro.io import load_query_log

        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 60, rng=6)
        path = tmp_path / "observed.jsonl"
        with WorkloadRecorder(path) as recorder:
            server = QueryServer(
                serve_fact4, selection, cost_model=serve_model4, recorder=recorder
            )
            server.replay(log)
        replayed = load_query_log(path, serve_schema4)
        assert pattern_counts(replayed) == pattern_counts(log)
        assert sorted(e.values for e in replayed) == sorted(e.values for e in log)


class TestSnapshotMeta:
    def test_meta_carries_selection_and_catalog(
        self, serve_fact4, serve_model4
    ):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        snap = server.telemetry_snapshot()
        assert tuple(snap["meta"]["selection"]) == tuple(selection)
        assert snap["meta"]["generation"] == 0
        assert snap["meta"]["catalog"]["views"] >= 1
        assert snap["meta"]["readvises"] == 0

    def test_default_cost_model_is_exact(self, serve_fact4):
        """Without an explicit model the server measures the fact table."""
        server = QueryServer(serve_fact4, ["pscd"])
        top = server.cost_model.lattice.top
        assert server.cost_model.lattice.size(top) == serve_fact4.n_rows
