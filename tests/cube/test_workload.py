"""Tests for query workload generation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cube.workload import (
    normalize_frequencies,
    sampled_workload,
    total_variation,
    uniform_workload,
    zipf_frequencies,
)


class TestUniformWorkload:
    def test_count(self):
        assert len(uniform_workload(["a", "b", "c"])) == 27

    def test_no_duplicates(self):
        queries = uniform_workload(["a", "b"])
        assert len(set(queries)) == len(queries)


class TestZipfFrequencies:
    def test_sums_to_total(self):
        queries = uniform_workload(["a", "b"])
        freqs = zipf_frequencies(queries, 1.0, rng=0, total=5.0)
        assert sum(freqs.values()) == pytest.approx(5.0)

    def test_all_queries_covered(self):
        queries = uniform_workload(["a", "b"])
        freqs = zipf_frequencies(queries, 1.0, rng=0)
        assert set(freqs) == set(queries)

    def test_unshuffled_is_rank_ordered(self):
        queries = uniform_workload(["a", "b"])
        freqs = zipf_frequencies(queries, 1.0, shuffle=False)
        values = [freqs[q] for q in queries]
        assert values == sorted(values, reverse=True)

    def test_shuffle_reproducible_with_seed(self):
        queries = uniform_workload(["a", "b"])
        a = zipf_frequencies(queries, 1.0, rng=7)
        b = zipf_frequencies(queries, 1.0, rng=7)
        assert a == b

    def test_zero_exponent_is_uniform(self):
        queries = uniform_workload(["a"])
        freqs = zipf_frequencies(queries, 0.0, shuffle=False)
        assert len(set(round(f, 12) for f in freqs.values())) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_frequencies([], 1.0)
        with pytest.raises(ValueError):
            zipf_frequencies(uniform_workload(["a"]), -1.0)


class TestSampledWorkload:
    def test_subset_size(self):
        sampled = sampled_workload(["a", "b", "c"], 10, rng=0)
        assert len(sampled) == 10

    def test_subset_of_population(self):
        population = set(uniform_workload(["a", "b", "c"]))
        sampled = sampled_workload(["a", "b", "c"], 10, rng=0)
        assert set(sampled) <= population
        assert len(set(sampled)) == 10  # no replacement

    def test_oversized_request_returns_everything(self):
        assert len(sampled_workload(["a"], 100, rng=0)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_workload(["a"], 0)


class TestNormalize:
    def test_rescales(self):
        queries = uniform_workload(["a"])
        freqs = {q: 2.0 for q in queries}
        normalized = normalize_frequencies(freqs, total=1.0)
        assert sum(normalized.values()) == pytest.approx(1.0)

    def test_zero_sum_rejected(self):
        queries = uniform_workload(["a"])
        with pytest.raises(ValueError):
            normalize_frequencies({q: 0.0 for q in queries})


class TestTotalVariation:
    """The drift distance must not depend on the order of the queries:
    a ``set`` of ``SliceQuery`` iterates in string-hash order, which
    changes between processes."""

    def workloads(self):
        queries = uniform_workload(["a", "b", "c", "d", "e"])
        observed = zipf_frequencies(queries, 1.0, rng=0)
        advised = {q: 1.0 + i % 7 for i, q in enumerate(queries[::2])}
        return observed, advised

    def test_bounds(self):
        observed, advised = self.workloads()
        assert total_variation(observed, observed) == 0.0
        disjoint = {q: 1.0 for q in observed if q not in advised}
        assert total_variation(advised, disjoint) == pytest.approx(1.0)
        assert 0.0 < total_variation(observed, advised) < 1.0

    def test_insertion_order_does_not_matter(self):
        observed, advised = self.workloads()
        expected = total_variation(observed, advised).hex()
        rng = np.random.default_rng(0)
        for __ in range(5):
            o_keys, a_keys = list(observed), list(advised)
            rng.shuffle(o_keys)
            rng.shuffle(a_keys)
            got = total_variation(
                {q: observed[q] for q in o_keys}, {q: advised[q] for q in a_keys}
            )
            assert got.hex() == expected

    def test_same_in_processes_that_hash_strings_differently(self):
        program = (
            "from repro.cube.workload import total_variation, "
            "uniform_workload, zipf_frequencies\n"
            "queries = uniform_workload(['a', 'b', 'c', 'd', 'e'])\n"
            "observed = zipf_frequencies(queries, 1.0, rng=0)\n"
            "advised = {q: 1.0 + i % 7 for i, q in enumerate(queries[::2])}\n"
            "print(total_variation(observed, advised).hex())\n"
        )
        distances = set()
        for hash_seed in ("0", "1", "2", "3"):
            done = subprocess.run(
                [sys.executable, "-c", program],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                check=True,
            )
            distances.add(done.stdout)
        assert len(distances) == 1
