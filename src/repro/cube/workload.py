"""Query workloads: populations of slice queries with frequencies.

The paper's problem definition assumes a set of queries ``Q`` with
(optionally) a frequency ``f_i`` per query; Section 6 varies the query
frequencies as one of its experimental knobs.  This module builds the
standard populations:

* :func:`uniform_workload` — all ``3^n`` slice queries, equiprobable
  (the Example 2.1 setting);
* :func:`zipf_frequencies` — Zipf-distributed frequencies over a query
  population, with an optional shuffle so the skew is not correlated with
  the enumeration order;
* :func:`sampled_workload` — a uniform subset of the slice queries, for
  workloads that only touch part of the cube.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.query import SliceQuery, enumerate_slice_queries

RngLike = Union[int, np.random.Generator, None]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def uniform_workload(dimensions: Sequence[str]) -> List[SliceQuery]:
    """All ``3^n`` slice queries (equiprobable when no frequencies given)."""
    return list(enumerate_slice_queries(dimensions))


def zipf_frequencies(
    queries: Sequence[SliceQuery],
    exponent: float = 1.0,
    rng: RngLike = None,
    shuffle: bool = True,
    total: float = 1.0,
) -> Dict[SliceQuery, float]:
    """Zipf-distributed frequencies summing to ``total``.

    With ``shuffle=True`` (default) the rank order is a random permutation
    of the queries, so hot queries land anywhere in the lattice; with
    ``shuffle=False`` ranks follow the given order (deterministic without
    an rng).
    """
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    if not queries:
        raise ValueError("queries must be non-empty")
    n = len(queries)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights *= total / weights.sum()
    order = list(range(n))
    if shuffle:
        _as_rng(rng).shuffle(order)
    return {queries[pos]: float(weights[rank]) for rank, pos in enumerate(order)}


def sampled_workload(
    dimensions: Sequence[str],
    n_queries: int,
    rng: RngLike = None,
) -> List[SliceQuery]:
    """A uniform random subset of the slice queries (without replacement)."""
    population = uniform_workload(dimensions)
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    if n_queries >= len(population):
        return population
    rng = _as_rng(rng)
    picks = rng.choice(len(population), size=n_queries, replace=False)
    return [population[i] for i in sorted(picks)]


def normalize_frequencies(
    frequencies: Dict[SliceQuery, float], total: float = 1.0
) -> Dict[SliceQuery, float]:
    """Rescale frequencies to sum to ``total``."""
    current = math.fsum(frequencies.values())
    if current <= 0:
        raise ValueError("frequencies must have a positive sum")
    scale = total / current
    return {q: f * scale for q, f in frequencies.items()}


def total_variation(
    observed: Dict[SliceQuery, float], advised: Dict[SliceQuery, float]
) -> float:
    """Total-variation distance between two frequency distributions.

    Both mappings are normalized to sum to 1 first (missing queries
    count as 0), so the result is in ``[0, 1]``: 0 when the observed
    workload matches the advised one exactly, 1 when they are disjoint.
    This is the drift metric the serving layer watches — the largest
    probability mass the advisor assigned to the wrong queries.  The
    normalizing sums and the distance's sum are exactly rounded
    (``math.fsum``), so the result does not depend on the order of the
    queries, which follows string hashing.
    """
    observed = normalize_frequencies(observed)
    advised = normalize_frequencies(advised)
    keys = set(observed) | set(advised)
    return 0.5 * math.fsum(
        abs(observed.get(q, 0.0) - advised.get(q, 0.0)) for q in keys
    )
