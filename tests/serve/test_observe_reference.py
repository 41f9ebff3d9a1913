"""``QueryServer._observe_batch`` against the label memo it replaced.

The reference below is the server's former ``_observe_batch``: it kept a
per-server ``{query: str(query)}`` memo and passed each query's label to
``record_many``.  Queries are now interned and carry their label, so the
server passes the query itself and the collector formats it only for a
kept record.  Served side by side on a clock that ticks one unit a call,
both servers must write byte-identical telemetry snapshots over cache
hits and misses, raw fallbacks, raw rescues and breaker short-circuits.

A warm batch must also find every query-keyed entry (result cache, plan
memo, drift counts) by identity: it calls ``SliceQuery.__eq__`` zero
times, also when its entries are built afresh.
"""

import itertools
import json
import types
from collections import Counter

import pytest

from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.cube.query_log import LogEntry, generate_query_log
from repro.serve import CircuitBreaker, QueryServer, ResultCache
from repro.serve import batch as batch_module
from repro.serve import server as server_module
from repro.serve.telemetry import RAW_LABEL

from tests.serve.test_server import advise_selection, all_pattern_entries

# ---------------------------------------------------------------- reference


class LabelMemoServer(QueryServer):
    """The server with its former label-memo ``_observe_batch``."""

    def __init__(self, *args, **kwargs):
        self._pattern_labels = {}
        super().__init__(*args, **kwargs)

    def _observe_batch(self, outcomes):
        labels = self._pattern_labels
        observations = []
        for outcome in outcomes:
            query = outcome.entry.query
            pattern = labels.get(query)
            if pattern is None:  # idempotent write: safe under concurrency
                pattern = labels[query] = str(query)
            observations.append(
                (
                    pattern,
                    outcome.structure,
                    outcome.latency_us,
                    outcome.predicted_rows,
                    outcome.actual_rows,
                    outcome.fallback,
                )
            )
        self.telemetry.record_many(observations)
        if self.recorder is not None:
            for outcome in outcomes:
                self.recorder.record(outcome.entry)
        if self.drift is not None:
            for outcome in outcomes:
                self.drift.observe(outcome.entry.query)
                if self.reselector is not None:
                    self._maybe_readvise()


# ---------------------------------------------------------------- fixtures


class Boom(RuntimeError):
    pass


@pytest.fixture
def ticking_clock(monkeypatch):
    """``perf_counter`` in the serving modules ticks 1 a call, so two
    servers making the same calls time every batch alike."""
    ticks = itertools.count()
    fake = types.SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(server_module, "time", fake)
    monkeypatch.setattr(batch_module, "time", fake)


def partial_selection(lattice):
    """The advised selection without the top view and its indexes, so
    that the queries only the top view answers fall back to raw."""
    top = lattice.label(lattice.top)
    return [s for s in advise_selection(lattice) if top not in s]


def busiest_structure(fact, model, selection, log) -> str:
    server = QueryServer(fact, selection, cost_model=model)
    counts = Counter(
        o.structure for o in server.serve_batch(log) if o.structure != RAW_LABEL
    )
    return counts.most_common(1)[0][0]


def twin_servers(fact, model, selection, target, keep_records, threshold):
    def poison(structure, entry):
        if structure == target:
            raise Boom(f"poisoned {structure}")

    advised = {q: 1.0 for q in enumerate_slice_queries(fact.schema.names)}
    servers = []
    for cls in (QueryServer, LabelMemoServer):
        servers.append(
            cls(
                fact,
                selection,
                cost_model=model,
                advised=advised,
                cache=ResultCache(),
                keep_records=keep_records,
                breaker=CircuitBreaker(
                    failure_threshold=threshold,
                    cooldown_seconds=600.0,
                    clock=lambda: 0.0,
                ),
                fault_hook=poison,
            )
        )
    return servers


def snapshot_text(server) -> str:
    return json.dumps(server.telemetry_snapshot())


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("keep_records", [True, False])
@pytest.mark.parametrize("threshold", [3, 1000])
def test_snapshot_equals_label_memo_reference(
    ticking_clock, serve_fact4, serve_model4, keep_records, threshold
):
    """Byte-identical snapshots after every batch.  Threshold 3 trips
    the poisoned structure's breaker (rescues, then short-circuits);
    1000 keeps rescuing every execution that reaches it."""
    fact, model = serve_fact4, serve_model4
    selection = partial_selection(model.lattice)
    warm = all_pattern_entries(fact.schema, per_pattern=1)
    fresh = generate_query_log(fact.schema, 300, rng=5)
    target = busiest_structure(fact, model, selection, fresh)
    server, reference = twin_servers(
        fact, model, selection, target, keep_records, threshold
    )
    batches = [warm, fresh[:100], warm[::3], fresh, fresh[50:90] + warm[:20]]
    seen = Counter()
    for batch in batches:
        outcomes = server.serve_batch(batch)
        reference.serve_batch(batch)
        seen.update(
            cached=sum(o.cached for o in outcomes),
            missed=sum(not o.cached for o in outcomes),
            raw=sum(o.fallback and not o.rescued for o in outcomes),
            rescued=sum(o.rescued for o in outcomes),
        )
        assert snapshot_text(server) == snapshot_text(reference)
    doc = server.telemetry_snapshot()
    assert all(seen[kind] > 0 for kind in ("cached", "missed", "raw", "rescued"))
    assert doc["resilience"]["raw_rescues"] > 0
    if threshold == 3:
        assert doc["resilience"]["breaker_short_circuits"] > 0
    if keep_records:
        patterns = [record["pattern"] for record in doc["records"]]
        served = [entry for batch in batches for entry in batch]
        assert patterns == [str(entry.query) for entry in served]
        assert all(type(pattern) is str for pattern in patterns)


def test_warm_batch_of_fresh_entries_calls_no_query_eq(
    monkeypatch, serve_fact4, serve_model4
):
    """Entries rebuilt from their attribute names find the cache entry,
    the plan memo and the drift count of their query by identity."""
    fact, model = serve_fact4, serve_model4
    advised = {q: 1.0 for q in enumerate_slice_queries(fact.schema.names)}
    server = QueryServer(
        fact,
        advise_selection(model.lattice),
        cost_model=model,
        advised=advised,
        cache=ResultCache(),
    )
    log = generate_query_log(fact.schema, 400, rng=9)
    server.serve_batch(log)

    def rebuilt(entries):
        return [
            LogEntry(
                query=SliceQuery(
                    groupby=sorted(e.query.groupby),
                    selection=sorted(e.query.selection),
                ),
                values=tuple((attr, int(value)) for attr, value in e.values),
            )
            for e in entries
        ]

    hits = rebuilt(log[:64])
    # the same patterns with other values: mostly cache misses, whose
    # plans are memoized
    misses = rebuilt(
        LogEntry(
            e.query,
            tuple((a, (v + 1) % fact.schema.cardinality(a)) for a, v in e.values),
        )
        for e in log[:64]
        if e.values
    )
    calls = [0]
    former_eq = SliceQuery.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return former_eq(self, other)

    monkeypatch.setattr(SliceQuery, "__eq__", counting_eq)
    outcomes = server.serve_batch(hits)
    assert all(outcome.cached for outcome in outcomes)
    outcomes = server.serve_batch(misses)
    assert sum(not outcome.cached for outcome in outcomes) > 10
    assert calls[0] == 0
    # the wrapper counts: an equality test between queries reaches it
    assert SliceQuery(groupby=["p"]) == SliceQuery(groupby=["p"])
    assert calls[0] == 1


def test_serve_outcome_takes_no_ad_hoc_attributes(serve_fact4, serve_model4):
    server = QueryServer(
        serve_fact4, advise_selection(serve_model4.lattice), cost_model=serve_model4
    )
    outcome = server.serve(all_pattern_entries(serve_fact4.schema, 1)[0])
    with pytest.raises(AttributeError):
        outcome.replica = 0
