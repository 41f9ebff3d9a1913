"""Batched execution: byte-identical to per-query serial execution.

The acceptance bar for the batched path is *bit-for-bit* equality with
the per-row reference executor on every slice-query pattern of the d=4
and d=5 fixtures — same groups (float accumulation order preserved),
same rows processed, same predictions — plus the structural properties
batching adds: in-batch deduplication and plan memoization.
"""

import numpy as np
import pytest

from repro.core.query import enumerate_slice_queries
from repro.cube.query_log import LogEntry, generate_query_log
from repro.serve import DEFAULT_BATCH_SIZE, QueryServer, RAW_LABEL
from repro.serve.batch import plan_for

from tests.engine.test_executor_reference import reference_execute, reference_trees
from tests.serve.test_server import advise_selection, all_pattern_entries


class TestByteIdentity:
    """serve_batch answers == the per-row reference executor's, exactly."""

    def _assert_identical(self, fact, schema, model):
        selection = advise_selection(model.lattice)
        server = QueryServer(fact, selection, cost_model=model)
        entries = all_pattern_entries(schema, per_pattern=2)
        outcomes = server.serve_batch(entries)
        executor = server.state.executor
        catalog = server.state.catalog
        trees = reference_trees(catalog)
        for entry, outcome in zip(entries, outcomes):
            plan = executor.choose_plan(entry.query)
            rows, groups = reference_execute(
                catalog.view_table(plan.view),
                entry.query,
                entry.bound_values,
                plan.index,
                trees.get(plan.index),
            )
            # == on floats: byte-identity, not approximate equality
            assert outcome.groups == groups, str(entry.query)
            assert outcome.actual_rows == rows
            assert outcome.predicted_rows == plan.predicted
            assert outcome.structure == plan.structure
            assert not outcome.fallback

    def test_d4_batch_matches_executor(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        self._assert_identical(serve_fact4, serve_schema4, serve_model4)

    def test_d5_batch_matches_executor(
        self, serve_fact5, serve_schema5, serve_model5
    ):
        self._assert_identical(serve_fact5, serve_schema5, serve_model5)

    def test_raw_fallback_matches_serial(self, serve_fact4, serve_model4):
        """The vectorized raw path reproduces the raw-scan outcome the
        unbatched server reported (ungrouped sums use the same pairwise
        summation)."""
        server = QueryServer(serve_fact4, ["none"], cost_model=serve_model4)
        entries = [
            e
            for e in all_pattern_entries(serve_fact4.schema, per_pattern=1, rng=7)
            if e.query.view.attrs  # γ()σ() is answerable by the none view
        ]
        outcomes = server.serve_batch(entries)
        for entry, outcome in zip(entries, outcomes):
            assert outcome.fallback
            assert outcome.structure == RAW_LABEL
            assert outcome.actual_rows == serve_fact4.n_rows
            single = QueryServer(
                serve_fact4, ["none"], cost_model=serve_model4
            ).serve(entry)
            assert outcome.groups == single.groups

    def test_batch_of_one_equals_serve(self, serve_fact4, serve_model4):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entry = all_pattern_entries(serve_fact4.schema, per_pattern=1)[5]
        a = server.serve(entry)
        [b] = server.serve_batch([entry])
        assert a.groups == b.groups
        assert a.structure == b.structure
        assert a.actual_rows == b.actual_rows


class TestDeduplication:
    def test_duplicate_queries_execute_once(self, serve_fact4, serve_model4):
        """Identical concrete queries in one batch collapse to a single
        execution but still produce one outcome (and one telemetry
        record) each."""
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entry = all_pattern_entries(serve_fact4.schema, per_pattern=1)[3]
        outcomes = server.serve_batch([entry] * 5)
        assert len(outcomes) == 5
        assert len({id(o.groups) for o in outcomes}) == 1  # shared result
        assert server.telemetry.queries == 5

    def test_dedup_does_not_conflate_different_values(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        """Same pattern, different bindings: distinct executions."""
        query = next(
            q
            for q in enumerate_slice_queries(serve_schema4.names)
            if q.selection and q.groupby
        )
        attr = next(iter(query.selection))
        a = LogEntry(query=query, values=((attr, 0),))
        b = LogEntry(query=query, values=((attr, 1),))
        server = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
        )
        oa, ob = server.serve_batch([a, b])
        assert oa.groups != ob.groups or oa.actual_rows != ob.actual_rows


class TestPlanMemoization:
    def test_plans_cached_per_pattern(self, serve_fact4, serve_model4):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entries = all_pattern_entries(serve_fact4.schema, per_pattern=2)
        assert not server.state.plan_cache
        server.serve_batch(entries)
        patterns = {e.query for e in entries}
        assert set(server.state.plan_cache) == patterns
        # memoized plan is the router's plan
        for entry in entries:
            info = plan_for(server.state, server.cost_model, entry.query)
            assert info is server.state.plan_cache[entry.query]

    def test_swap_resets_plan_cache(self, serve_fact4, serve_model4):
        server = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
        )
        server.serve_batch(all_pattern_entries(serve_fact4.schema, 1))
        assert server.state.plan_cache
        server._swap(("pscd",), {})
        assert not server.state.plan_cache


class TestReplayParity:
    """repro replay and live serving share one execution path: replayed
    telemetry counters match the live session's exactly."""

    def test_replay_matches_live_serving(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 120, rng=11)
        live = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        for entry in log:  # a live session: queries arrive one by one
            live.serve(entry)
        replayed = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        report = replayed.replay(log)
        assert report.batch_size == DEFAULT_BATCH_SIZE
        a, b = live.telemetry_snapshot(), replayed.telemetry_snapshot()
        assert a["queries"] == b["queries"] == 120
        assert a["hits"] == b["hits"]
        assert a["fallbacks"] == b["fallbacks"]
        assert a["cost"]["predicted_rows"] == b["cost"]["predicted_rows"]
        assert a["cost"]["actual_rows"] == b["cost"]["actual_rows"]
        assert a["cost"]["exact_matches"] == b["cost"]["exact_matches"]
        # identical per-query records, in the same order
        strip = lambda recs: [dict(r) for r in recs]
        assert strip(a["records"]) == strip(b["records"])

    def test_replay_batch_size_does_not_change_counters(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 90, rng=13)
        snapshots = []
        for size in (1, 7, 64):
            server = QueryServer(
                serve_fact4, selection, cost_model=serve_model4
            )
            report = server.replay(log, batch_size=size)
            assert report.batch_size == size
            snap = server.telemetry_snapshot()
            snapshots.append(
                (snap["hits"], snap["cost"]["actual_rows"], snap["queries"])
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_replay_rejects_bad_batch_size(self, serve_fact4, serve_model4):
        server = QueryServer(serve_fact4, ["pscd"], cost_model=serve_model4)
        with pytest.raises(ValueError, match="batch_size"):
            server.replay([], batch_size=0)
