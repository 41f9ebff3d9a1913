"""Tests for query-log generation and frequency estimation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.cube.query_log import (
    LogEntry,
    estimate_frequencies,
    generate_query_log,
    hot_selection_values,
)
from repro.cube.schema import CubeSchema, Dimension
from repro.cube.workload import zipf_frequencies


@pytest.fixture
def schema():
    return CubeSchema([Dimension("a", 8), Dimension("b", 5)])


class TestGenerateLog:
    def test_entry_count(self, schema):
        assert len(generate_query_log(schema, 100, rng=0)) == 100

    def test_values_bound_for_every_selection_attr(self, schema):
        for entry in generate_query_log(schema, 200, rng=0):
            assert set(entry.bound_values) == set(entry.query.selection)

    def test_values_in_domain(self, schema):
        for entry in generate_query_log(schema, 200, rng=0):
            for attr, value in entry.values:
                assert 0 <= value < schema.cardinality(attr)

    def test_seeded_reproducibility(self, schema):
        a = generate_query_log(schema, 50, rng=3)
        b = generate_query_log(schema, 50, rng=3)
        assert a == b

    def test_values_independent_of_string_hashing(self):
        """A seeded log is the same in processes that hash strings
        differently (selection sets are frozensets of names)."""
        program = (
            "from repro.cube.query_log import generate_query_log\n"
            "from repro.cube.schema import CubeSchema, Dimension\n"
            "schema = CubeSchema([Dimension(n, 7) for n in 'pscdt'])\n"
            "log = generate_query_log(schema, 300, rng=0)\n"
            "print([(str(e.query), e.values) for e in log])\n"
        )
        logs = set()
        for hash_seed in ("0", "1", "2", "3"):
            done = subprocess.run(
                [sys.executable, "-c", program],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                check=True,
            )
            logs.add(done.stdout)
        assert len(logs) == 1

    def test_explicit_pattern_frequencies(self, schema):
        only = SliceQuery(groupby=["a"], selection=["b"])
        log = generate_query_log(
            schema, 30, rng=0, pattern_frequencies={only: 1.0}
        )
        assert all(entry.query == only for entry in log)

    def test_zero_weight_frequencies_rejected(self, schema):
        only = SliceQuery(groupby=["a"])
        with pytest.raises(ValueError, match="positive sum"):
            generate_query_log(schema, 5, rng=0, pattern_frequencies={only: 0.0})

    def test_n_entries_validation(self, schema):
        with pytest.raises(ValueError):
            generate_query_log(schema, 0)


def loop_query_log(schema, n_entries, rng, pattern_frequencies=None):
    """The former ``generate_query_log``: one scalar ``rng.integers``
    call per selection value, in entry order, attributes sorted."""
    patterns = list(enumerate_slice_queries(schema.names))
    if pattern_frequencies is None:
        pattern_frequencies = zipf_frequencies(patterns, 1.0, rng=rng)
    weights = np.array([pattern_frequencies.get(q, 0.0) for q in patterns])
    weights = weights / weights.sum()
    entries = []
    for pick in rng.choice(len(patterns), size=n_entries, p=weights):
        query = patterns[int(pick)]
        values = tuple(
            (attr, int(rng.integers(0, schema.cardinality(attr))))
            for attr in sorted(query.selection)
        )
        entries.append(LogEntry(query=query, values=values))
    return entries


class TestOneCallDraws:
    """All selection values of a log come from one ``rng.integers`` call;
    the log and the generator's next draw must equal the per-value loop's,
    so seeded logs and every stream drawn after them stay the same."""

    SCHEMAS = {
        "ab": [("a", 8), ("b", 5)],
        "five": [("p", 7), ("s", 1), ("c", 300), ("d", 2), ("t", 40)],
        "long_names": [("part", 3), ("customer", 9), ("supplier", 1 << 20)],
    }

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    @pytest.mark.parametrize("seed", [0, 1, 7, 20240601])
    @pytest.mark.parametrize("patterns", ["zipf", "uniform", "unselected", "mixed"])
    def test_matches_the_per_value_loop(self, name, seed, patterns):
        schema = CubeSchema([Dimension(n, c) for n, c in self.SCHEMAS[name]])
        universe = list(enumerate_slice_queries(schema.names))
        frequencies = {
            "zipf": None,
            "uniform": {q: 1.0 for q in universe},
            "unselected": {q: 1.0 for q in universe if not q.selection},
            "mixed": {q: 1.0 + len(q.selection) for q in universe[::3]},
        }[patterns]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        log = generate_query_log(schema, 300, rng=ours, pattern_frequencies=frequencies)
        assert log == loop_query_log(schema, 300, theirs, frequencies)
        assert ours.integers(0, 1 << 62) == theirs.integers(0, 1 << 62)


class TestLogEntryBinding:
    """An entry binds each selection attribute exactly once; otherwise
    the structure and raw paths would answer different queries."""

    @pytest.mark.parametrize(
        "query, values",
        [
            (SliceQuery(groupby="s", selection="p"), ()),
            (SliceQuery(groupby="s"), (("p", 1),)),
            (SliceQuery(selection="p"), (("p", 1), ("p", 2))),
            (SliceQuery(selection="ps"), (("p", 1), ("c", 2))),
        ],
        ids=["missing", "extra", "twice", "other"],
    )
    def test_rejected_at_construction(self, query, values):
        with pytest.raises(ValueError, match="exactly once"):
            LogEntry(query, values)

    def test_exact_binding_accepted(self):
        entry = LogEntry(SliceQuery(groupby="c", selection="ps"), (("p", 1), ("s", 0)))
        assert entry.bound_values == {"p": 1, "s": 0}


class TestEstimateFrequencies:
    def test_sums_to_one(self, schema):
        log = generate_query_log(schema, 500, rng=1)
        freqs = estimate_frequencies(log)
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_recovers_planted_distribution(self, schema):
        q1 = SliceQuery(groupby=["a"], selection=["b"])
        q2 = SliceQuery(groupby=["b"], selection=["a"])
        log = generate_query_log(
            schema, 4000, rng=2, pattern_frequencies={q1: 0.75, q2: 0.25}
        )
        freqs = estimate_frequencies(log)
        assert freqs[q1] == pytest.approx(0.75, abs=0.03)
        assert freqs[q2] == pytest.approx(0.25, abs=0.03)

    def test_smoothing_covers_universe(self, schema):
        universe = list(enumerate_slice_queries(schema.names))
        only = universe[0]
        log = generate_query_log(
            schema, 10, rng=0, pattern_frequencies={only: 1.0}
        )
        freqs = estimate_frequencies(log, smoothing=0.5, universe=universe)
        assert set(freqs) == set(universe)
        assert all(f > 0 for f in freqs.values())

    def test_smoothing_requires_universe(self, schema):
        log = generate_query_log(schema, 10, rng=0)
        with pytest.raises(ValueError, match="universe"):
            estimate_frequencies(log, smoothing=1.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            estimate_frequencies([])

    def test_feeds_into_selection(self, schema):
        """Round trip: log → frequencies → graph → selection."""
        from repro.algorithms import RGreedy
        from repro.core.qvgraph import QueryViewGraph
        from repro.estimation.sizes import analytical_lattice

        log = generate_query_log(schema, 300, rng=5)
        freqs = estimate_frequencies(log)
        lattice = analytical_lattice(schema, 30)
        graph = QueryViewGraph.from_cube(
            lattice, queries=list(freqs), frequencies=freqs
        )
        result = RGreedy(2).run(graph, 60, seed=(lattice.label(lattice.top),))
        assert result.benefit >= 0


class TestHotValues:
    def test_counts_ranked(self, schema):
        entries = [
            LogEntry(SliceQuery(selection=["a"]), (("a", v),))
            for v in [1, 1, 1, 2, 2, 3]
        ]
        assert hot_selection_values(entries, "a", top_k=2) == [(1, 3), (2, 2)]

    def test_missing_attr_empty(self, schema):
        entries = [LogEntry(SliceQuery(selection=["a"]), (("a", 1),))]
        assert hot_selection_values(entries, "b") == []

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            hot_selection_values([], "a", top_k=0)
