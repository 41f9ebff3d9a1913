"""Result cache: LRU + admission behavior, and — the part that matters —
invalidation proofs: no stale rows after a maintenance delta or a hot
swap, and byte-identical answers cache on vs off.
"""

import numpy as np
import pytest

from repro.cube.query_log import generate_query_log
from repro.serve import CachedResult, QueryServer, ResultCache, result_key
from repro.serve.cache import ENTRY_OVERHEAD_BYTES, empty_cache_stats

from tests.serve.test_server import advise_selection, all_pattern_entries

TAG = (0, 0)


def entry_result(n_groups=1):
    groups = {(g,): float(g) for g in range(n_groups)}
    return CachedResult(
        structure="ps", predicted_rows=4.0, actual_rows=4, groups=groups
    )


class TestLRUAndAdmission:
    def test_get_put_roundtrip(self):
        cache = ResultCache()
        cache.ensure_tag(TAG)
        result = entry_result()
        assert cache.get(("k",), TAG) is None
        assert cache.put(("k",), result, TAG)
        assert cache.get(("k",), TAG) is result
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2, admission=False)
        cache.ensure_tag(TAG)
        cache.put(("a",), entry_result(), TAG)
        cache.put(("b",), entry_result(), TAG)
        assert cache.get(("a",), TAG) is not None  # refresh a; b is now LRU
        cache.put(("c",), entry_result(), TAG)
        assert cache.evictions == 1
        assert cache.get(("b",), TAG) is None
        assert cache.get(("a",), TAG) is not None
        assert cache.get(("c",), TAG) is not None

    def test_byte_budget_evicts(self):
        two_entries = 2 * entry_result(1).estimated_bytes
        cache = ResultCache(capacity_bytes=two_entries, admission=False)
        cache.ensure_tag(TAG)
        for key in ("a", "b", "c"):
            cache.put((key,), entry_result(1), TAG)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.stats()["bytes"] <= two_entries

    def test_oversized_result_rejected_outright(self):
        cache = ResultCache(capacity_bytes=ENTRY_OVERHEAD_BYTES + 10)
        cache.ensure_tag(TAG)
        assert not cache.put(("big",), entry_result(1000), TAG)
        assert cache.rejected == 1
        assert len(cache) == 0

    def test_admission_filter_protects_hot_entries(self):
        """A full cache only admits a candidate asked for at least as
        often as the LRU victim (TinyLFU-style one-off protection)."""
        cache = ResultCache(max_entries=1, admission=True)
        cache.ensure_tag(TAG)
        cache.get(("hot",), TAG)  # miss — trains the sketch: freq 1
        cache.put(("hot",), entry_result(), TAG)
        # never-asked-for candidate cannot displace the hot entry
        assert not cache.put(("cold",), entry_result(), TAG)
        assert cache.rejected == 1
        assert cache.get(("hot",), TAG) is not None
        # ...but a candidate asked for more often can
        cache.get(("rising",), TAG)
        cache.get(("rising",), TAG)
        cache.get(("rising",), TAG)
        assert cache.put(("rising",), entry_result(), TAG)
        assert cache.evictions == 1

    def test_plain_lru_always_admits(self):
        cache = ResultCache(max_entries=1, admission=False)
        cache.ensure_tag(TAG)
        cache.put(("a",), entry_result(), TAG)
        assert cache.put(("b",), entry_result(), TAG)
        assert cache.get(("a",), TAG) is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            ResultCache(capacity_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)


class TestTagInvalidation:
    def test_new_tag_drops_entries(self):
        cache = ResultCache()
        cache.ensure_tag((0, 0))
        cache.put(("k",), entry_result(), (0, 0))
        cache.ensure_tag((1, 0))  # hot swap bumped the generation
        assert cache.get(("k",), (1, 0)) is None
        assert cache.invalidations == 1

    def test_stale_put_is_dropped(self):
        """A worker that raced a swap cannot poison the new generation."""
        cache = ResultCache()
        cache.ensure_tag((0, 0))
        cache.ensure_tag((1, 0))
        assert not cache.put(("k",), entry_result(), (0, 0))
        assert cache.get(("k",), (1, 0)) is None

    def test_stale_get_misses(self):
        cache = ResultCache()
        cache.ensure_tag((0, 0))
        cache.put(("k",), entry_result(), (0, 0))
        assert cache.get(("k",), (9, 9)) is None  # tag mismatch: miss

    def test_empty_stats_shape_matches(self):
        assert empty_cache_stats().keys() == ResultCache().stats().keys()


def _delta_from(fact, n_rows, rng=42):
    """A small well-formed fact delta: resampled rows with fresh measures."""
    generator = np.random.default_rng(rng)
    rows = generator.integers(0, fact.n_rows, size=n_rows)
    columns = {name: fact.column(name)[rows] for name in fact.schema.names}
    measures = generator.uniform(1.0, 5.0, size=n_rows)
    extras = {
        name: values[rows] for name, values in fact.extra_measures.items()
    }
    return columns, measures, extras or None


class TestServerCacheCorrectness:
    """The acceptance-criteria tests: identical answers cache on vs off,
    and provably no stale rows after deltas or swaps."""

    def _assert_on_off_identical(self, fact, schema, model):
        selection = advise_selection(model.lattice)
        log = generate_query_log(schema, 150, rng=5)
        plain = QueryServer(fact, selection, cost_model=model)
        cached = QueryServer(
            fact, selection, cost_model=model, cache=ResultCache()
        )
        baseline = plain.serve_batch(log)
        first = cached.serve_batch(log)
        second = cached.serve_batch(log)  # now served from the cache
        assert any(o.cached for o in second)
        for base, a, b in zip(baseline, first, second):
            assert a.groups == base.groups  # == on floats: byte-identical
            assert b.groups == base.groups
            assert a.actual_rows == b.actual_rows == base.actual_rows
            assert a.predicted_rows == b.predicted_rows == base.predicted_rows
            assert a.structure == b.structure == base.structure
        # cache hits replay the stored cost accounting, so the exactness
        # invariant survives caching
        snap = cached.telemetry_snapshot()
        assert snap["cost"]["exact_matches"] == snap["queries"]
        assert snap["cache"]["hits"] == cached.cache.hits > 0

    def test_d4_cache_on_off_identical(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        self._assert_on_off_identical(serve_fact4, serve_schema4, serve_model4)

    def test_d5_cache_on_off_identical(
        self, serve_fact5, serve_schema5, serve_model5
    ):
        self._assert_on_off_identical(serve_fact5, serve_schema5, serve_model5)

    def test_maintenance_delta_invalidates(self, serve_fact4, serve_model4):
        """After apply_delta, every answer reflects the merged facts —
        a fresh uncached server over the same catalog agrees exactly."""
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(
            serve_fact4, selection, cost_model=serve_model4, cache=ResultCache()
        )
        entries = all_pattern_entries(serve_fact4.schema, per_pattern=1)
        before = server.serve_batch(entries)
        server.serve_batch(entries)  # populate + prove hits
        assert server.cache.hits == len(entries)

        columns, measures, extras = _delta_from(serve_fact4, 64)
        report = server.apply_delta(columns, measures, extras)
        assert report.delta_rows == 64
        assert server.cache.stats()["entries"] == 0  # dropped wholesale

        after = server.serve_batch(entries)
        # no outcome may come from the cache, and every answer must equal
        # what the refreshed catalog's executor computes right now
        assert not any(o.cached for o in after)
        executor = server.state.executor
        changed = 0
        for entry, pre, post in zip(entries, before, after):
            reference = executor.execute(entry.query, entry.bound_values)
            assert post.groups == reference.groups, "stale rows after delta"
            if post.groups != pre.groups:
                changed += 1
        assert changed > 0, "delta did not change any served answer"
        # and a from-scratch rematerialization over the merged facts
        # agrees numerically (merge order differs only in the last ulp)
        fresh = QueryServer(
            server.fact, selection, cost_model=server.cost_model
        )
        for post, ref in zip(after, fresh.serve_batch(entries)):
            assert post.groups == pytest.approx(ref.groups, rel=1e-9)

    def test_hot_swap_invalidates(self, serve_fact4, serve_model4):
        """A selection hot swap drops the cache; post-swap answers match
        the new state's executor, never the old cached rows."""
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(
            serve_fact4, selection, cost_model=serve_model4, cache=ResultCache()
        )
        entries = all_pattern_entries(serve_fact4.schema, per_pattern=1)
        server.serve_batch(entries)
        server.serve_batch(entries)
        assert server.cache.hits == len(entries)

        server._swap(("pscd",), {})
        assert server.cache.stats()["entries"] == 0
        after = server.serve_batch(entries)
        assert not any(o.cached for o in after)
        executor = server.state.executor
        for entry, outcome in zip(entries, after):
            plan = executor.choose_plan(entry.query)
            reference = executor.execute(entry.query, entry.bound_values)
            assert outcome.groups == reference.groups
            assert outcome.structure == plan.structure != "raw"
            assert outcome.predicted_rows == plan.predicted

    def test_late_put_from_old_generation_discarded(
        self, serve_fact4, serve_model4
    ):
        """Simulates a worker batch that read the pre-swap state: its
        insert is dropped, not served to post-swap readers."""
        server = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
            cache=ResultCache(),
        )
        entry = all_pattern_entries(serve_fact4.schema, per_pattern=1)[0]
        old_state = server.state
        old_tag = (old_state.generation, old_state.catalog.version)
        server.cache.ensure_tag(old_tag)
        server._swap(("pscd",), {})
        new_tag = (server.state.generation, server.state.catalog.version)
        server.cache.ensure_tag(new_tag)
        assert not server.cache.put(
            result_key(entry), entry_result(), old_tag
        )
        assert server.cache.get(result_key(entry), new_tag) is None


class TestConcurrentInvalidation:
    """Four threads hammering get/put across a generation bump: no
    stale hit, no deadlock (the fault-tolerance satellite)."""

    def test_no_stale_hit_across_generation_bump(self):
        import threading

        cache = ResultCache()
        old_tag, new_tag = (0, 0), (1, 0)
        cache.ensure_tag(old_tag)
        keys = [(f"k{i}",) for i in range(16)]
        old_result = entry_result(1)
        new_result = CachedResult(
            structure="sc", predicted_rows=8.0, actual_rows=8,
            groups={(0,): 1.0},
        )
        for key in keys:
            cache.put(key, old_result, old_tag)
        bumped = threading.Event()
        stop = threading.Event()
        stale = []
        errors = []

        def hammer(seed):
            rng = __import__("random").Random(seed)
            while not stop.is_set():
                key = keys[rng.randrange(len(keys))]
                if bumped.is_set():
                    # after the swap every hit must be a new-tag result
                    hit = cache.get(key, new_tag)
                    if hit is not None and hit.structure != "sc":
                        stale.append((key, hit.structure))
                    cache.put(key, new_result, new_tag)
                else:
                    cache.get(key, old_tag)
                    cache.put(key, old_result, old_tag)

        def swapper():
            bumped.wait(10)
            # what serve_batch does on its first post-swap batch
            cache.ensure_tag(new_tag)

        threads = [
            threading.Thread(target=hammer, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        swap_thread = threading.Thread(target=swapper, daemon=True)
        for thread in threads:
            thread.start()
        swap_thread.start()
        try:
            import time

            time.sleep(0.05)
            cache.invalidate()  # the swap itself
            bumped.set()
            time.sleep(0.15)
        finally:
            stop.set()
        for thread in threads + [swap_thread]:
            thread.join(10)
            assert not thread.is_alive(), "cache hammer deadlocked"
        assert not errors
        assert stale == [], f"stale generation served: {stale[:5]}"
        assert cache.invalidations >= 1
        stats = cache.stats()
        assert stats["entries"] <= len(keys)

    def test_served_answers_stay_exact_across_live_swap(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        """End-to-end: four threads serving batches while the cache is
        invalidated mid-run still answer every query exactly."""
        import threading

        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 200, rng=9)
        golden = QueryServer(
            serve_fact4, selection, cost_model=serve_model4
        ).serve_batch(log)
        cache = ResultCache()
        server = QueryServer(
            serve_fact4, selection, cost_model=serve_model4, cache=cache
        )
        stop = threading.Event()

        def invalidate_loop():
            while not stop.wait(0.002):
                cache.invalidate()

        invalidator = threading.Thread(target=invalidate_loop, daemon=True)
        invalidator.start()
        chunks = [log[lo : lo + 16] for lo in range(0, len(log), 16)]
        outcomes = [None] * len(chunks)

        def serve(pos):
            for at in range(pos, len(chunks), 4):
                outcomes[at] = server.serve_batch(chunks[at])

        servers = [
            threading.Thread(target=serve, args=(pos,)) for pos in range(4)
        ]
        try:
            for thread in servers:
                thread.start()
        finally:
            for thread in servers:
                thread.join(30)
            stop.set()
            invalidator.join(5)
        assert not any(thread.is_alive() for thread in servers)
        served = [outcome for batch in outcomes for outcome in batch]
        assert len(served) == len(golden)
        for outcome, reference in zip(served, golden):
            assert outcome.groups == reference.groups


class TestReplacementBudget:
    """Re-putting a held key is budgeted like a new key: the old result's
    bytes are released first, then the size check and eviction apply."""

    def _assert_within_budget(self, cache):
        stats = cache.stats()
        assert stats["bytes"] <= cache.capacity_bytes
        assert stats["bytes"] == sum(
            result.estimated_bytes for result in cache._entries.values()
        )
        for result in cache._entries.values():
            assert result.estimated_bytes <= cache.capacity_bytes

    def test_oversized_replacement_in_a_full_cache_is_rejected(self):
        one = entry_result(1).estimated_bytes  # 248 B
        cache = ResultCache(capacity_bytes=2 * one)
        cache.ensure_tag(TAG)
        assert cache.put(("a",), entry_result(1), TAG)
        assert cache.put(("b",), entry_result(1), TAG)
        big = entry_result(100)  # 5,000 B: larger than the whole cache
        assert not cache.put(("a",), big, TAG)
        assert cache.rejected == 1
        self._assert_within_budget(cache)
        assert cache.get(("a",), TAG) is None  # the old result was released

    def test_oversized_replacement_is_rejected_like_a_new_key(self):
        one = entry_result(1).estimated_bytes
        cache = ResultCache(capacity_bytes=one)
        cache.ensure_tag(TAG)
        assert cache.put(("a",), entry_result(1), TAG)
        assert not cache.put(("new",), entry_result(100), TAG)
        assert not cache.put(("a",), entry_result(100), TAG)
        assert cache.rejected == 2
        self._assert_within_budget(cache)

    def test_growing_replacement_evicts_to_fit(self):
        one = entry_result(1).estimated_bytes
        cache = ResultCache(capacity_bytes=2 * one, admission=False)
        cache.ensure_tag(TAG)
        cache.put(("a",), entry_result(1), TAG)
        cache.put(("b",), entry_result(1), TAG)
        grown = entry_result(2)
        assert cache.put(("a",), grown, TAG)
        assert cache.evictions == 1
        assert cache.get(("b",), TAG) is None
        assert cache.get(("a",), TAG) is grown
        self._assert_within_budget(cache)

    def test_same_size_replacement_keeps_both_entries(self):
        one = entry_result(1).estimated_bytes
        cache = ResultCache(capacity_bytes=2 * one)
        cache.ensure_tag(TAG)
        cache.put(("a",), entry_result(1), TAG)
        cache.put(("b",), entry_result(1), TAG)
        fresh = entry_result(1)
        assert cache.put(("a",), fresh, TAG)
        assert list(cache._entries) == [("b",), ("a",)]
        assert cache.get(("a",), TAG) is fresh
        assert cache.evictions == 0 and cache.rejected == 0
        self._assert_within_budget(cache)
