"""Tests for mined candidate sets (repro.mining.candidates)."""

import pytest

from repro.core.query import SliceQuery
from repro.mining import mine_candidates

SCHEMA = ("p", "s", "c", "d")


def q(groupby, selection=()):
    return SliceQuery(groupby=list(groupby), selection=list(selection))


@pytest.fixture
def counts():
    return {
        q("s", "p"): 60.0,
        q("ps"): 25.0,
        q("", "c"): 10.0,
        q("d"): 4.0,
        q("pscd"): 1.0,
    }


class TestMineCandidates:
    def test_top_view_always_kept(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        assert frozenset(SCHEMA) in mined.view_attrs

    def test_every_observed_query_covered(self, counts):
        mined = mine_candidates(counts, SCHEMA, support=0.5)
        for query in counts:
            assert mined.covers(query)

    def test_upward_closure_beyond_top(self, counts):
        # even queries whose cluster was dropped keep an answering view
        # below the top (except the top pattern itself)
        mined = mine_candidates(counts, SCHEMA, support=0.5)
        for query in counts:
            if query.attrs == frozenset(SCHEMA):
                continue
            assert any(
                attrs >= query.attrs
                for attrs in mined.view_attrs
                if attrs != frozenset(SCHEMA)
            )

    def test_support_threshold_drops_weight(self, counts):
        mined = mine_candidates(counts, SCHEMA, support=0.10)
        # the pscd pattern merges into the ps cluster (Jaccard 0.5), so
        # only the d cluster (4%) falls below 10% support
        assert mined.dropped_weight == pytest.approx(4.0)
        assert mined.kept_clusters < len(mined.clusters)

    def test_total_weight(self, counts):
        assert mine_candidates(counts, SCHEMA).total_weight == pytest.approx(100.0)

    def test_view_order_matches_lattice(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        keys = [
            (len(attrs), tuple(sorted(SCHEMA.index(a) for a in attrs)))
            for attrs in mined.view_attrs
        ]
        assert keys == sorted(keys)

    def test_index_keys_capped(self, counts):
        mined = mine_candidates(counts, SCHEMA, max_indexes_per_view=1)
        assert all(len(keys) <= 1 for keys in mined.index_keys.values())

    def test_hot_selection_leads_key(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        ps = frozenset("ps")
        assert ps in mined.index_keys
        # the dominant selection set on view ps is {p}: key starts with p
        assert mined.index_keys[ps][0][0] == "p"

    def test_key_is_a_permutation_of_the_view(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        for attrs, keys in mined.index_keys.items():
            for key in keys:
                assert frozenset(key) == attrs
                assert len(set(key)) == len(key)

    def test_log_entries_and_counts_agree(self, counts):
        from repro.cube.query_log import LogEntry

        entries = []
        for query, weight in counts.items():
            values = tuple((a, 0) for a in sorted(query.selection))
            entries.extend([LogEntry(query=query, values=values)] * int(weight))
        by_entries = mine_candidates(entries, SCHEMA)
        by_counts = mine_candidates(counts, SCHEMA)
        assert by_entries.fingerprint() == by_counts.fingerprint()

    def test_unknown_attr_rejected(self):
        with pytest.raises(ValueError, match="not cube dimensions"):
            mine_candidates({q("xz"): 1.0}, SCHEMA)

    def test_empty_workload_keeps_only_top(self):
        mined = mine_candidates({}, SCHEMA)
        assert mined.view_attrs == [frozenset(SCHEMA)]
        assert mined.n_indexes == 0
        assert mined.n_queries == 0

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="support"):
            mine_candidates({}, SCHEMA, support=-0.1)
        with pytest.raises(ValueError, match="support must be >= 0, got nan"):
            mine_candidates({}, SCHEMA, support=float("nan"))
        with pytest.raises(ValueError, match="max_indexes_per_view"):
            mine_candidates({}, SCHEMA, max_indexes_per_view=-1)
        with pytest.raises(ValueError, match="schema_names"):
            mine_candidates({}, ())


class TestEnsure:
    def test_ensure_view_inserts_in_lattice_order(self, counts):
        mined = mine_candidates(counts, SCHEMA, support=0.5)
        before = list(mined.view_attrs)
        mined.ensure_view("sc")
        assert frozenset("sc") in mined.view_attrs
        assert all(attrs in mined.view_attrs for attrs in before)
        keys = [
            (len(attrs), tuple(sorted(SCHEMA.index(a) for a in attrs)))
            for attrs in mined.view_attrs
        ]
        assert keys == sorted(keys)

    def test_ensure_view_is_idempotent(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        n = mined.n_views
        mined.ensure_view(frozenset(SCHEMA))
        assert mined.n_views == n

    def test_ensure_structures_parses_labels(self, counts):
        mined = mine_candidates(counts, SCHEMA, support=0.5)
        mined.ensure_structures(["cd", "I_dc(cd)"])
        assert frozenset("cd") in mined.view_attrs
        assert ("d", "c") in mined.index_keys[frozenset("cd")]

    def test_ensure_index_rejects_extraneous_key(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        with pytest.raises(ValueError, match="not in view"):
            mined.ensure_index("ps", ("p", "c"))

    def test_ensure_view_rejects_unknown_attr(self, counts):
        mined = mine_candidates(counts, SCHEMA)
        with pytest.raises(ValueError, match="not cube dimensions"):
            mined.ensure_view("px")


class TestFingerprint:
    def test_stable_for_identical_input(self, counts):
        a = mine_candidates(counts, SCHEMA)
        b = mine_candidates(dict(counts), SCHEMA)
        assert a.fingerprint() == b.fingerprint()

    def test_insensitive_to_mapping_order(self, counts):
        reordered = dict(reversed(list(counts.items())))
        assert (
            mine_candidates(counts, SCHEMA).fingerprint()
            == mine_candidates(reordered, SCHEMA).fingerprint()
        )

    def test_sensitive_to_weights(self, counts):
        heavier = dict(counts)
        heavier[q("d")] = 5.0
        assert (
            mine_candidates(counts, SCHEMA).fingerprint()
            != mine_candidates(heavier, SCHEMA).fingerprint()
        )

    def test_sensitive_to_parameters(self, counts):
        assert (
            mine_candidates(counts, SCHEMA, support=0.01).fingerprint()
            != mine_candidates(counts, SCHEMA, support=0.02).fingerprint()
        )

    def test_changes_when_structures_injected(self, counts):
        mined = mine_candidates(counts, SCHEMA, support=0.5)
        before = mined.fingerprint()
        mined.ensure_structures(["cd"])
        assert mined.fingerprint() != before
