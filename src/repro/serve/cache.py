"""Result cache: memoizing answered slice queries across the serving loop.

OLAP workloads are highly repetitive (the observation Aouiche & Darmont
build their mining-based selection on), so the single most effective
serving optimization after routing is to not execute a repeated query at
all.  :class:`ResultCache` stores finished query results keyed on the
canonical concrete-query form — the generic :class:`SliceQuery` pattern
plus the sorted ``(attr, value)`` bindings — under an LRU eviction policy
with a frequency-aware admission filter (a TinyLFU-style sketch: a new
result only displaces the least-recently-used entry when it has been
*asked for* at least as often, so one-off queries cannot flush a hot
working set).

Correctness is generation-tagged: every cached result is stored under the
``(serving generation, catalog version)`` tag that produced it.  A hot
swap bumps the serving generation and a fact-table delta applied through
:func:`repro.engine.maintenance.apply_delta` bumps the catalog version,
so the first lookup after either sees a stale tag and drops the whole
cache — a reselection or a maintenance delta can never serve stale rows.
Late inserts from a batch that read the old state race-safely miss: a
``put`` whose tag disagrees with the cache's current tag is discarded.

A served batch looks up all of its keys with one :meth:`ResultCache.get_many`
call, which takes the cache lock once per batch; threads that share the
cache (a replica's dispatcher and its health probes) serialize per
batch, not per query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.table import Answer

#: Admission-sketch aging period: once this many lookups have been
#: counted, every frequency halves (keeps the sketch adaptive to shifts).
SKETCH_AGING_PERIOD = 100_000

#: Fixed per-entry overhead estimate, in bytes (key, dict slots, tag).
ENTRY_OVERHEAD_BYTES = 200

#: Estimated bytes per result group (sized for a dict's key tuple + float).
GROUP_BYTES = 48


@dataclass(frozen=True)
class CachedResult:
    """One finished query: the answer plus the cost accounting it had.

    ``groups`` is the immutable :class:`~repro.engine.table.Answer`
    every hit hands out.
    """

    structure: str
    predicted_rows: float
    actual_rows: int
    groups: Answer

    @property
    def estimated_bytes(self) -> int:
        return ENTRY_OVERHEAD_BYTES + GROUP_BYTES * len(self.groups)


def result_key(entry) -> tuple:
    """The canonical cache key of a concrete query.

    ``LogEntry.values`` is already the sorted ``(attr, value)`` tuple, so
    two textually different arrivals of the same slice query collapse to
    one key.
    """
    return (entry.query, entry.values)


class ResultCache:
    """LRU result cache with frequency-aware admission and tag
    invalidation.

    Parameters
    ----------
    capacity_bytes:
        Estimated-size budget (:attr:`CachedResult.estimated_bytes`);
        inserting past it evicts least-recently-used entries first.
    max_entries:
        Optional hard cap on the entry count (useful in tests).
    admission:
        ``True`` (default) enables the frequency filter: when the cache
        is full, a candidate only displaces the LRU victim if the sketch
        has counted it at least as often.  ``False`` always admits
        (plain LRU).
    """

    def __init__(
        self,
        capacity_bytes: int = 16 * 2**20,
        max_entries: Optional[int] = None,
        admission: bool = True,
    ):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.capacity_bytes = int(capacity_bytes)
        self.max_entries = max_entries
        self.admission = admission
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()
        self._bytes = 0
        self._tag: Optional[Tuple[int, int]] = None
        self._freq: Dict[int, int] = {}
        self._freq_total = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------ frequency

    def _count(self, key: tuple) -> int:
        """Bump and return the key's sketch frequency (lock held)."""
        slot = hash(key)
        count = self._freq.get(slot, 0) + 1
        self._freq[slot] = count
        self._freq_total += 1
        if self._freq_total >= SKETCH_AGING_PERIOD:
            self._freq = {k: v // 2 for k, v in self._freq.items() if v > 1}
            self._freq_total = sum(self._freq.values())
        return count

    def _frequency(self, key: tuple) -> int:
        return self._freq.get(hash(key), 0)

    # ----------------------------------------------------------- tag checks

    def ensure_tag(self, tag: Tuple[int, int]) -> None:
        """Align the cache with the serving tag, dropping stale entries.

        ``tag`` is ``(serving generation, catalog version)``; the first
        call after a hot swap or a maintenance delta sees a different tag
        and clears everything.
        """
        with self._lock:
            if self._tag == tag:
                return
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._bytes = 0
            self._tag = tag

    def invalidate(self) -> None:
        """Drop every cached result (explicit hook for swaps/deltas)."""
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._bytes = 0
            self._tag = None

    # -------------------------------------------------------------- get/put

    def get(self, key: tuple, tag: Tuple[int, int]) -> Optional[CachedResult]:
        """The cached result, or ``None`` on a miss (which also trains
        the admission sketch).  A lookup of one key: see :meth:`get_many`."""
        return self.get_many((key,), tag)[0]

    def get_many(
        self, keys: Sequence[tuple], tag: Tuple[int, int]
    ) -> List[Optional[CachedResult]]:
        """The cached result of each key, in order (``None`` on a miss),
        under one lock acquisition.

        Each key has a single lookup's effects, applied in order: a hit
        moves the key to the most-recently-used end and counts a hit; a
        miss trains the admission sketch and counts a miss.  A repeated
        key is looked up each time.  Under a stale ``tag`` every key is a
        miss.
        """
        with self._lock:
            if self._tag != tag:
                # caller should have run ensure_tag; treat as misses
                for key in keys:
                    self._count(key)
                self.misses += len(keys)
                return [None] * len(keys)
            results = list(map(self._entries.get, keys))
            move_to_end = self._entries.move_to_end
            hits = 0
            for key, result in zip(keys, results):
                if result is None:
                    self._count(key)
                else:
                    move_to_end(key)
                    hits += 1
            self.hits += hits
            self.misses += len(results) - hits
            return results

    def put(self, key: tuple, result: CachedResult, tag: Tuple[int, int]) -> bool:
        """Insert a finished result; returns whether it was admitted.

        Inserts tagged with a stale ``tag`` (a batch that read the old
        serving state) are silently dropped.  A full cache consults the
        admission sketch before displacing the LRU victim.  Re-putting a
        held key drops its old result first, then admits the new one like
        a new key, so the byte budget holds after every call.
        """
        size = result.estimated_bytes
        with self._lock:
            if self._tag != tag:
                return False
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self._bytes -= replaced.estimated_bytes
            if size > self.capacity_bytes:
                self.rejected += 1
                return False
            while self._entries and (
                self._bytes + size > self.capacity_bytes
                or (
                    self.max_entries is not None
                    and len(self._entries) >= self.max_entries
                )
            ):
                victim_key = next(iter(self._entries))
                if self.admission and self._frequency(key) < self._frequency(
                    victim_key
                ):
                    self.rejected += 1
                    return False
                __, victim = self._entries.popitem(last=False)
                self._bytes -= victim.estimated_bytes
                self.evictions += 1
            self._entries[key] = result
            self._bytes += size
            return True

    # ----------------------------------------------------------------- misc

    def stats(self) -> dict:
        """Counter snapshot for the telemetry document's ``cache`` block."""
        with self._lock:
            return {
                "enabled": True,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "invalidations": self.invalidations,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, capacity_bytes={self.capacity_bytes})"
        )


def empty_cache_stats() -> dict:
    """The ``cache`` telemetry block of a server with caching disabled."""
    return {
        "enabled": False,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "rejected": 0,
        "invalidations": 0,
        "entries": 0,
        "bytes": 0,
        "capacity_bytes": 0,
    }
