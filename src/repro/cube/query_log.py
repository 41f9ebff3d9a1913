"""Query logs: deriving the workload frequencies from observed queries.

The selection problem takes per-query frequencies ``f_i`` as input
(Section 5.1); in practice these come from the warehouse's query log.
This module generates synthetic logs (concrete slice queries with bound
selection values) and estimates the generic-query frequency distribution
back from a log — closing the loop between the engine's executable
queries and the advisor's abstract workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.cube.schema import CubeSchema
from repro.cube.workload import zipf_frequencies

RngLike = Union[int, np.random.Generator, None]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class LogEntry:
    """One executed query: the generic pattern plus bound values."""

    query: SliceQuery
    values: Tuple[Tuple[str, int], ...]  # sorted (attr, value) pairs

    def __post_init__(self):
        selection = self.query.selection
        attrs = [attr for attr, __ in self.values]
        if len(attrs) != len(selection) or set(attrs) != selection:
            raise ValueError(
                f"values {self.values} must bind each selection attribute of "
                f"{self.query} exactly once"
            )

    @property
    def bound_values(self) -> Dict[str, int]:
        return dict(self.values)


def generate_query_log(
    schema: CubeSchema,
    n_entries: int,
    rng: RngLike = None,
    pattern_frequencies: Optional[Mapping[SliceQuery, float]] = None,
    zipf_exponent: float = 1.0,
) -> List[LogEntry]:
    """Generate a synthetic log of concrete slice queries.

    Patterns are drawn from ``pattern_frequencies`` (default: Zipf over
    all ``3^n`` slice queries with the given exponent); selection values
    are drawn uniformly from each attribute's domain.
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    rng = _as_rng(rng)
    patterns = list(enumerate_slice_queries(schema.names))
    if pattern_frequencies is None:
        pattern_frequencies = zipf_frequencies(patterns, zipf_exponent, rng=rng)
    weights = np.array([pattern_frequencies.get(q, 0.0) for q in patterns])
    if weights.sum() <= 0:
        raise ValueError("pattern frequencies must have a positive sum")
    weights = weights / weights.sum()

    picks = rng.choice(len(patterns), size=n_entries, p=weights).tolist()
    # draw in attribute order: a frozenset's iteration order follows
    # string hashing, which varies between processes
    selections = [sorted(query.selection) for query in patterns]
    bounds = [[schema.cardinality(attr) for attr in sel] for sel in selections]
    highs = np.array(
        [high for pick in picks for high in bounds[pick]], dtype=np.int64
    )
    # one call over every value's bound draws what one scalar call per
    # value in turn would, and leaves the generator in the same state
    values = iter(rng.integers(0, highs).tolist())
    return [
        LogEntry(
            query=patterns[pick],
            values=tuple((attr, next(values)) for attr in selections[pick]),
        )
        for pick in picks
    ]


def pattern_counts(log: Iterable[LogEntry]) -> Dict[SliceQuery, int]:
    """Raw occurrence count of each generic pattern in the log.

    The un-normalized companion of :func:`estimate_frequencies` — an
    empty log is an empty mapping, not an error, so streaming consumers
    (the serving drift monitor) can poll it before any query arrives.
    Accepts any iterable and makes exactly one pass, so a streaming
    :func:`repro.io.iter_query_log` generator feeds it without the log
    ever being resident in memory.
    """
    counts: Dict[SliceQuery, int] = {}
    for entry in log:
        counts[entry.query] = counts.get(entry.query, 0) + 1
    return counts


def estimate_frequencies(
    log: Iterable[LogEntry],
    smoothing: float = 0.0,
    universe: Optional[Sequence[SliceQuery]] = None,
) -> Dict[SliceQuery, float]:
    """Relative frequency of each generic pattern in the log.

    ``smoothing`` adds a Laplace pseudo-count to every pattern of the
    ``universe`` (required when smoothing > 0), so unseen-but-possible
    queries keep a nonzero weight.  Frequencies sum to 1.  Single-pass:
    a streaming iterator works.
    """
    counts: Dict[SliceQuery, float] = {}
    for entry in log:
        counts[entry.query] = counts.get(entry.query, 0.0) + 1.0
    if not counts:
        raise ValueError("log must be non-empty")
    if smoothing > 0:
        if universe is None:
            raise ValueError("smoothing requires an explicit query universe")
        for query in universe:
            counts[query] = counts.get(query, 0.0) + smoothing
    total = sum(counts.values())
    return {query: count / total for query, count in counts.items()}


def hot_selection_values(
    log: Iterable[LogEntry], attr: str, top_k: int = 5
) -> List[Tuple[int, int]]:
    """Most frequently selected values of an attribute, ``(value, count)``.

    Useful for diagnosing skewed access patterns (hot slices) that make
    per-prefix index benefit deviate from the uniform-average cost
    formula.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts: Dict[int, int] = {}
    for entry in log:
        bound = entry.bound_values
        if attr in bound:
            counts[bound[attr]] = counts.get(bound[attr], 0) + 1
    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:top_k]
