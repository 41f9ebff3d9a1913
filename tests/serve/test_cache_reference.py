"""Batched cache lookups against the one-key lookups they replaced.

The references below are the cache's former ``ResultCache.get`` (one
lock acquisition, one lookup and one counter bump per key) and the
server's former per-query hit loop, which timed, keyed and looked up
each entry on its own.  The cache now looks a whole batch up with
``get_many`` under one lock, and ``serve_batch`` makes one such call per
batch.  After any sequence of calls both must leave the same cache: the
returned results (the same objects), the entries and their LRU order,
the hit/miss/eviction/rejection/invalidation counters and the admission
sketch.  Served outcomes must agree on every field but a hit's
``latency_us``, which is now the batch's lookup pass split evenly.
"""

import itertools
import random
import sys
import threading
import time
from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.query_log import generate_query_log
from repro.serve import CachedResult, QueryServer, ResultCache, result_key
from repro.serve import cache as cache_module
from repro.serve.batch import execute_unique
from repro.serve.server import ServeOutcome
from repro.serve.telemetry import RAW_LABEL

from tests.serve.test_server import advise_selection, all_pattern_entries

# ---------------------------------------------------------------- reference


class ReferenceCache(ResultCache):
    """The cache with its former one-key ``get``; a batch is a loop."""

    def get(self, key, tag):
        with self._lock:
            if self._tag != tag:
                # caller should have run ensure_tag; treat as a miss
                self._count(key)
                self.misses += 1
                return None
            result = self._entries.get(key)
            if result is None:
                self._count(key)
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def get_many(self, keys, tag):
        return [self.get(key, tag) for key in keys]


class ReferenceServer(QueryServer):
    """The server with its former per-query hit loop (cache path only:
    no backend, which these tests do not attach)."""

    def serve_batch(self, entries):
        if not entries:
            return []
        collector = self.telemetry
        state = self._state
        tag = (state.generation, state.catalog.version)
        cache = self.cache
        outcomes: List[Optional[ServeOutcome]] = [None] * len(entries)
        pending: Dict[tuple, List[int]] = {}
        cache.ensure_tag(tag)
        for pos, entry in enumerate(entries):
            start = time.perf_counter()
            key = result_key(entry)
            hit = cache.get(key, tag)
            if hit is None:
                pending.setdefault(key, []).append(pos)
                continue
            outcomes[pos] = ServeOutcome(
                entry=entry,
                structure=hit.structure,
                predicted_rows=hit.predicted_rows,
                actual_rows=hit.actual_rows,
                latency_us=(time.perf_counter() - start) * 1e6,
                fallback=hit.structure == RAW_LABEL,
                groups=hit.groups,
                cached=True,
            )
        if pending:
            items = [
                (key, entries[positions[0]]) for key, positions in pending.items()
            ]
            results = execute_unique(
                state,
                self.fact,
                self.cost_model,
                items,
                breaker=self.breaker,
                fault_hook=self.fault_hook,
                backend=self.backend,
            )
            for key, positions in pending.items():
                result = results[key]
                if result.error_structure:
                    collector.note_executor_error(result.error_structure)
                    collector.note_raw_rescue()
                elif result.short_circuited:
                    collector.note_breaker_short_circuit()
                if not (result.rescued or result.short_circuited):
                    cache.put(
                        key,
                        CachedResult(
                            structure=result.structure,
                            predicted_rows=result.predicted_rows,
                            actual_rows=result.actual_rows,
                            groups=result.groups,
                        ),
                        tag,
                    )
                for pos in positions:
                    outcomes[pos] = ServeOutcome(
                        entry=entries[pos],
                        structure=result.structure,
                        predicted_rows=result.predicted_rows,
                        actual_rows=result.actual_rows,
                        latency_us=result.latency_us,
                        fallback=result.fallback,
                        groups=result.groups,
                        rescued=result.rescued,
                    )
        self._observe_batch(outcomes)
        return outcomes


# -------------------------------------------------------------- comparison


def assert_same_cache(cache: ResultCache, reference: ResultCache) -> None:
    """Same entries in the same LRU order (the same result objects), the
    same counters, tag and admission sketch."""
    assert list(cache._entries) == list(reference._entries)
    for mine, theirs in zip(cache._entries.values(), reference._entries.values()):
        assert mine is theirs
    assert cache.stats() == reference.stats()
    assert cache._tag == reference._tag
    assert cache._freq == reference._freq
    assert cache._freq_total == reference._freq_total


def assert_same_results(found, expected) -> None:
    assert len(found) == len(expected)
    for mine, theirs in zip(found, expected):
        assert mine is theirs


# ------------------------------------------------------------ cache twins

KEYS = [(name,) for name in "abcdef"]
TAGS = [(0, 0), (0, 1), (1, 0)]
ONE_GROUP_BYTES = cache_module.ENTRY_OVERHEAD_BYTES + cache_module.GROUP_BYTES


def result_of(n_groups: int) -> CachedResult:
    groups = {(g,): float(g) for g in range(n_groups)}
    return CachedResult(
        structure="ps", predicted_rows=float(n_groups), actual_rows=n_groups,
        groups=groups,
    )


#: Lookups and puts mostly carry the cache's current tag, sometimes a
#: stale one; a retag is ``ensure_tag`` or, for ``None``, ``invalidate``.
STALE = st.sampled_from([False, False, False, True])
OPERATIONS = st.one_of(
    st.tuples(
        st.just("get_many"), st.lists(st.sampled_from(KEYS), max_size=10), STALE
    ),
    st.tuples(st.just("get"), st.sampled_from(KEYS), STALE),
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 4), STALE),
    st.tuples(st.just("retag"), st.sampled_from(TAGS + [None])),
)


def tag_for(cache: ResultCache, stale: bool):
    current = cache._tag if cache._tag is not None else TAGS[0]
    if not stale:
        return current
    return next(tag for tag in TAGS if tag != current)


def apply(cache: ResultCache, reference: ResultCache, operation) -> None:
    kind = operation[0]
    if kind == "retag":
        tag = operation[1]
        for twin in (cache, reference):
            if tag is None:
                twin.invalidate()
            else:
                twin.ensure_tag(tag)
        return
    tag = tag_for(reference, operation[-1])
    if kind == "get_many":
        keys = operation[1]
        expected = reference.get_many(keys, tag)
        assert_same_results(cache.get_many(keys, tag), expected)
    elif kind == "get":
        key = operation[1]
        assert cache.get(key, tag) is reference.get(key, tag)
    else:
        __, key, n_groups, __ = operation
        result = result_of(n_groups)
        assert cache.put(key, result, tag) == reference.put(key, result, tag)


def twins(capacity_entries: int, max_entries, admission: bool, prefill: int = 0):
    """A cache and its reference, tagged ``TAGS[0]``, each holding the
    same first ``prefill`` keys."""
    kwargs = dict(
        capacity_bytes=capacity_entries * ONE_GROUP_BYTES,
        max_entries=max_entries,
        admission=admission,
    )
    cache, reference = ResultCache(**kwargs), ReferenceCache(**kwargs)
    cache.ensure_tag(TAGS[0])
    reference.ensure_tag(TAGS[0])
    for key in KEYS[:prefill]:
        result = result_of(1)
        cache.put(key, result, TAGS[0])
        reference.put(key, result, TAGS[0])
    return cache, reference


@settings(max_examples=300, deadline=None)
@given(
    capacity_entries=st.integers(1, 6),
    max_entries=st.one_of(st.none(), st.integers(1, 5)),
    admission=st.booleans(),
    prefill=st.integers(0, len(KEYS)),
    aging_period=st.sampled_from([2, 3, 7, cache_module.SKETCH_AGING_PERIOD]),
    operations=st.lists(OPERATIONS, min_size=1, max_size=60),
)
def test_get_many_equals_reference_lookups(
    capacity_entries, max_entries, admission, prefill, aging_period, operations
):
    """Any sequence of lookups, puts, tag changes and invalidations —
    small and full caches, admission on and off, stale tags, keys
    repeated within a batch, the sketch aging often — leaves twin caches
    identical after every call."""
    with mock.patch.object(cache_module, "SKETCH_AGING_PERIOD", aging_period):
        cache, reference = twins(capacity_entries, max_entries, admission, prefill)
        assert_same_cache(cache, reference)
        for operation in operations:
            apply(cache, reference, operation)
            assert_same_cache(cache, reference)
            held = [result.estimated_bytes for result in cache._entries.values()]
            assert cache.stats()["bytes"] == sum(held) <= cache.capacity_bytes


class TestGetManyCases:
    """Hand-picked sequences, each aimed at one per-key effect."""

    def filled(self, admission=True, capacity_entries=4):
        cache, reference = twins(capacity_entries, None, admission, prefill=3)
        assert len(cache) == len(reference) == 3
        return cache, reference

    def test_hits_move_to_the_mru_end_in_batch_order(self):
        cache, reference = self.filled()
        keys = [KEYS[1], KEYS[0]]
        assert_same_results(
            cache.get_many(keys, TAGS[0]), reference.get_many(keys, TAGS[0])
        )
        assert list(cache._entries) == [KEYS[2], KEYS[1], KEYS[0]]
        assert_same_cache(cache, reference)

    def test_misses_train_the_sketch_once_per_occurrence(self):
        cache, reference = self.filled()
        keys = [KEYS[4], KEYS[0], KEYS[4], KEYS[5]]
        found = cache.get_many(keys, TAGS[0])
        assert_same_results(found, reference.get_many(keys, TAGS[0]))
        assert [result is None for result in found] == [True, False, True, True]
        assert cache._frequency(KEYS[4]) == 2
        assert cache._frequency(KEYS[5]) == 1
        assert (cache.hits, cache.misses) == (1, 3)
        assert_same_cache(cache, reference)

    def test_repeated_hit_is_looked_up_each_time(self):
        cache, reference = self.filled()
        keys = [KEYS[0]] * 3 + [KEYS[1]]
        found = cache.get_many(keys, TAGS[0])
        assert_same_results(found, reference.get_many(keys, TAGS[0]))
        assert found[0] is found[1] is found[2] is not None
        assert cache.hits == 4
        assert_same_cache(cache, reference)

    def test_stale_tag_misses_every_key_and_trains_the_sketch(self):
        cache, reference = self.filled()
        keys = [KEYS[0], KEYS[1], KEYS[0]]
        found = cache.get_many(keys, TAGS[1])
        assert found == [None, None, None]
        assert_same_results(found, reference.get_many(keys, TAGS[1]))
        assert cache.misses == 3 and cache.hits == 0
        assert cache._frequency(KEYS[0]) == 2
        assert len(cache) == 3  # a stale lookup drops nothing
        assert_same_cache(cache, reference)

    def test_empty_batch_changes_nothing(self):
        cache, reference = self.filled()
        assert cache.get_many([], TAGS[0]) == []
        assert cache.get_many([], TAGS[2]) == []
        assert_same_cache(cache, reference)

    def test_sketch_ages_mid_batch_as_one_key_lookups_do(self):
        with mock.patch.object(cache_module, "SKETCH_AGING_PERIOD", 3):
            cache, reference = self.filled(admission=True, capacity_entries=3)
            keys = [KEYS[3], KEYS[3], KEYS[4], KEYS[3], KEYS[5], KEYS[3]]
            assert_same_results(
                cache.get_many(keys, TAGS[0]), reference.get_many(keys, TAGS[0])
            )
            assert_same_cache(cache, reference)
            # the aged sketch decides admission into the full cache alike
            for key in (KEYS[3], KEYS[4], KEYS[5]):
                result = result_of(1)
                assert cache.put(key, result, TAGS[0]) == reference.put(
                    key, result, TAGS[0]
                )
                assert_same_cache(cache, reference)

    def test_get_is_a_one_key_batch(self):
        cache, reference = self.filled()
        for key in (KEYS[0], KEYS[5], KEYS[0], KEYS[2]):
            assert cache.get(key, TAGS[0]) is reference.get(key, TAGS[0])
            assert_same_cache(cache, reference)


# ----------------------------------------------------------------- server


def serving_batches(schema):
    """Warm-up batches, then batches mixing hits, misses and in-batch
    repeats, of uneven sizes."""
    warm = all_pattern_entries(schema, per_pattern=1)
    fresh = generate_query_log(schema, 240, rng=11)
    mixed = fresh[:120] + warm[::2] + fresh[:60]
    random.Random(3).shuffle(mixed)
    mixed += warm[:5] * 4
    batches = [warm[lo : lo + 32] for lo in range(0, len(warm), 32)]
    sizes = [1, 7, 64, 3, 128, 19]
    lo = 0
    for size in itertools.cycle(sizes):
        if lo >= len(mixed):
            break
        batches.append(mixed[lo : lo + size])
        lo += size
    return batches


OUTCOME_FIELDS = (
    "entry",
    "structure",
    "predicted_rows",
    "actual_rows",
    "fallback",
    "groups",
    "cached",
    "rescued",
)


def telemetry_without_latency(server: QueryServer) -> dict:
    collector = server.telemetry
    doc = collector.snapshot()
    cost = doc["cost"]
    return {
        "queries": doc["queries"],
        "fallbacks": doc["fallbacks"],
        "hits_in_order": list(collector._hits.items()),
        "predicted_rows": float.hex(cost["predicted_rows"]),
        "actual_rows": float.hex(cost["actual_rows"]),
        "exact_matches": cost["exact_matches"],
        "max_abs_error": float.hex(cost["max_abs_error"]),
        "records": doc["records"],
    }


@pytest.mark.parametrize("dims", [4, 5])
def test_serve_batch_equals_per_query_hit_loop(
    dims, serve_fact4, serve_model4, serve_fact5, serve_model5
):
    """A warmed dense server answers every batch as the former hit loop
    did: the same outcome fields in input order (hit answers are the
    cached objects themselves), the same cache state and the same
    telemetry apart from latency.  A batch's hits share one latency."""
    fact, model = (
        (serve_fact4, serve_model4) if dims == 4 else (serve_fact5, serve_model5)
    )
    selection = advise_selection(model.lattice)
    server = QueryServer(fact, selection, cost_model=model, cache=ResultCache())
    reference = ReferenceServer(
        fact, selection, cost_model=model, cache=ReferenceCache()
    )
    hits = 0
    for batch in serving_batches(fact.schema):
        outcomes = server.serve_batch(batch)
        expected = reference.serve_batch(batch)
        assert len(outcomes) == len(expected) == len(batch)
        for outcome, theirs, entry in zip(outcomes, expected, batch):
            assert outcome.entry is entry
            for name in OUTCOME_FIELDS:
                assert getattr(outcome, name) == getattr(theirs, name), name
            if outcome.cached:
                held = server.cache._entries[result_key(entry)]
                assert outcome.groups is held.groups
        hit_latencies = {o.latency_us for o in outcomes if o.cached}
        assert len(hit_latencies) <= 1
        assert all(latency > 0 for latency in hit_latencies)
        hits += sum(o.cached for o in outcomes)
        assert server.cache.stats() == reference.cache.stats()
        assert list(server.cache._entries) == list(reference.cache._entries)
        assert server.cache._freq == reference.cache._freq
    assert hits > 100
    assert telemetry_without_latency(server) == telemetry_without_latency(
        reference
    )


def test_concurrent_batches_lose_no_lookup():
    """Threads sharing one cache (as a replica's dispatcher and its
    health probes do), each looking batches up and putting its misses,
    with the switch interval shortened: every lookup is counted once, as
    a hit or a miss, and the byte count matches the entries held."""
    cache = ResultCache(capacity_bytes=6 * ONE_GROUP_BYTES, admission=True)
    cache.ensure_tag(TAGS[0])
    rounds, batch_size, n_threads = 200, 16, 6
    failures = []

    def worker(seed):
        rng = random.Random(seed)
        for __ in range(rounds):
            keys = [rng.choice(KEYS) for __ in range(batch_size)]
            found = cache.get_many(keys, TAGS[0])
            if len(found) != len(keys):
                failures.append(len(found))
            for key, result in zip(keys, found):
                if result is None:
                    cache.put(key, result_of(1), TAGS[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == n_threads * rounds * batch_size
    held = [result.estimated_bytes for result in cache._entries.values()]
    assert stats["bytes"] == sum(held) <= cache.capacity_bytes
