"""Mined candidate sets: from a query log to a pruned candidate space.

The full candidate universe of an ``n``-dimensional cube — ``2^n`` views,
``~2·n!`` fat indexes, ``3^n`` slice queries — is why advise tops out
around d=7–8.  :func:`mine_candidates` shrinks all three at once using
the observed workload:

* **queries** become the patterns actually seen in the log, weighted by
  occurrence;
* **views** become the attribute unions of the query clusters whose
  workload support clears a threshold, closed upward so every observed
  query keeps at least one answering plan besides the raw cube, plus
  the top view itself (the raw-cube fallback);
* **indexes** become at most ``max_indexes_per_view`` fat keys per kept
  view, ordered so the workload's hottest selection sets are key
  prefixes.

Everything is deterministic — same log, same parameters, same mined set,
same :meth:`MinedCandidates.fingerprint` — because mined candidates feed
checkpointed selection runs that must resume bit-identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.index import parse_index_label
from repro.core.query import SliceQuery
from repro.core.view import parse_view
from repro.cube.query_log import LogEntry, pattern_counts
from repro.mining.cluster import QueryCluster, cluster_queries

#: Minimum workload support for a cluster to sponsor candidates.
DEFAULT_SUPPORT = 0.01
#: Jaccard threshold for merging attribute sets into one cluster.
DEFAULT_SIMILARITY = 0.5
#: Cap on mined fat-index keys per kept view (the full universe has
#: ``m!`` per ``m``-attribute view).
DEFAULT_MAX_INDEXES_PER_VIEW = 8

LogSource = Union[Mapping[SliceQuery, float], Iterable[LogEntry]]


@dataclass
class MinedCandidates:
    """The pruned candidate space mined from a workload.

    ``view_attrs`` is ordered by (dimensionality, schema position) —
    the same order :meth:`~repro.core.lattice.CubeLattice.views` uses —
    so graphs built from mined candidates tie-break greedy argmax scans
    the same way full-universe graphs do.
    """

    schema_names: Tuple[str, ...]
    queries: Dict[SliceQuery, float]
    view_attrs: List[frozenset]
    index_keys: Dict[frozenset, List[Tuple[str, ...]]]
    clusters: List[QueryCluster] = field(default_factory=list)
    kept_clusters: int = 0
    dropped_weight: float = 0.0
    total_weight: float = 0.0
    support: float = DEFAULT_SUPPORT
    similarity: float = DEFAULT_SIMILARITY
    max_indexes_per_view: int = DEFAULT_MAX_INDEXES_PER_VIEW

    # ------------------------------------------------------------- reading

    @property
    def n_views(self) -> int:
        return len(self.view_attrs)

    @property
    def n_indexes(self) -> int:
        return sum(len(keys) for keys in self.index_keys.values())

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def covers(self, query: SliceQuery) -> bool:
        """True when some kept view answers the query."""
        return any(attrs >= query.attrs for attrs in self.view_attrs)

    def _schema_pos(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.schema_names)}

    def _view_key(self, attrs: frozenset) -> tuple:
        pos = self._schema_pos()
        return (len(attrs), tuple(sorted(pos[a] for a in attrs)))

    # ------------------------------------------------------------ mutation

    def ensure_view(self, attrs: Iterable[str]) -> frozenset:
        """Add a view candidate (no-op when already kept); returns its
        attribute set.  Keeps ``view_attrs`` in lattice order."""
        attrs = frozenset(attrs)
        unknown = attrs - set(self.schema_names)
        if unknown:
            raise ValueError(
                f"view attributes {sorted(unknown)} are not cube dimensions "
                f"(have {', '.join(self.schema_names)})"
            )
        if attrs not in self.index_keys:
            self.view_attrs.append(attrs)
            self.view_attrs.sort(key=self._view_key)
            self.index_keys[attrs] = []
        return attrs

    def ensure_index(self, view_attrs: Iterable[str], key: Sequence[str]) -> None:
        """Add an index candidate (and its view) when not already kept."""
        attrs = self.ensure_view(view_attrs)
        key = tuple(key)
        extraneous = set(key) - attrs
        if extraneous:
            raise ValueError(
                f"index key attributes {sorted(extraneous)} are not in view "
                f"{sorted(attrs)}"
            )
        if key not in self.index_keys[attrs]:
            self.index_keys[attrs].append(key)

    def ensure_structures(self, names: Iterable[str]) -> None:
        """Guarantee the named structures (paper-style labels, e.g. ``ps``
        or ``I_sp(ps)``) survive the pruning.

        The adaptive reselector injects the *currently deployed*
        selection here so a pruned re-advise can still price the
        incumbent configuration — otherwise τ_current would be computed
        on a graph missing its own structures.
        """
        for name in names:
            if name.startswith("I_"):
                index = parse_index_label(name)
                self.ensure_index(index.view.attrs, index.key)
            else:
                self.ensure_view(parse_view(name).attrs)

    # --------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Deterministic digest of the mined set (content + parameters).

        Stored in checkpoints by the mining stage boundary so a resumed
        run can prove it re-mined the identical candidate space.
        """
        pos = self._schema_pos()

        def attr_tuple(attrs):
            return [a for a in sorted(attrs, key=lambda x: pos[x])]

        doc = {
            "schema": list(self.schema_names),
            "support": self.support,
            "similarity": self.similarity,
            "max_indexes_per_view": self.max_indexes_per_view,
            "queries": sorted(
                [sorted(q.groupby), sorted(q.selection), float(w)]
                for q, w in self.queries.items()
            ),
            "views": [attr_tuple(attrs) for attrs in self.view_attrs],
            "indexes": [
                [attr_tuple(attrs), [list(key) for key in self.index_keys[attrs]]]
                for attrs in self.view_attrs
            ],
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def mine_candidates(
    source: LogSource,
    schema_names: Sequence[str],
    *,
    support: float = DEFAULT_SUPPORT,
    similarity: float = DEFAULT_SIMILARITY,
    max_indexes_per_view: int = DEFAULT_MAX_INDEXES_PER_VIEW,
) -> MinedCandidates:
    """Mine a pruned candidate set from a workload.

    ``source`` is either an iterable of :class:`LogEntry` (consumed in
    one streaming pass) or an already-aggregated ``{pattern: weight}``
    mapping, e.g. a drift monitor's observed counts.  ``schema_names``
    fixes the dimension order (and the valid attribute universe).

    The kept views are the attribute unions of every cluster with
    workload support ≥ ``support``, the top view (raw-cube fallback,
    always kept), and — upward closure — ``view(attrs(q))`` for any
    observed query no kept view below the top could answer.  Kept index
    keys per view put the view's hottest observed selection sets first.
    """
    if not support >= 0:  # also rejects NaN
        raise ValueError(f"support must be >= 0, got {support}")
    if max_indexes_per_view < 0:
        raise ValueError(
            f"max_indexes_per_view must be >= 0, got {max_indexes_per_view}"
        )
    schema_names = tuple(schema_names)
    if len(set(schema_names)) != len(schema_names) or not schema_names:
        raise ValueError("schema_names must be non-empty and unique")
    known = set(schema_names)
    pos = {name: i for i, name in enumerate(schema_names)}

    if isinstance(source, Mapping):
        raw_counts: Mapping[SliceQuery, float] = source
    else:
        raw_counts = pattern_counts(source)
    counts: Dict[SliceQuery, float] = {}
    for query, weight in raw_counts.items():
        weight = float(weight)
        if weight <= 0:
            continue
        unknown = query.attrs - known
        if unknown:
            raise ValueError(
                f"query {query} uses attributes {sorted(unknown)} that are "
                f"not cube dimensions (have {', '.join(schema_names)})"
            )
        counts[query] = counts.get(query, 0.0) + weight
    total = sum(counts.values())

    clusters = cluster_queries(counts, similarity=similarity)
    kept = [c for c in clusters if c.support >= support]
    dropped_weight = sum(c.weight for c in clusters if c.support < support)

    top = frozenset(schema_names)
    views = {c.attrs for c in kept}
    views.add(top)

    # group observed patterns by attribute set once; the upward closure
    # and per-view assignment then test set containment per distinct
    # attribute set, not per pattern — the d≥9 scale path.
    by_attrs: Dict[frozenset, List[Tuple[SliceQuery, float]]] = {}
    for query, weight in counts.items():
        by_attrs.setdefault(query.attrs, []).append((query, weight))

    # upward closure: every observed query keeps an answering plan
    # besides the raw-cube fallback (its own associated view when no
    # kept view below the top covers it).  Coverage depends only on
    # the attribute set, so each set is decided once.
    for attrs in sorted(by_attrs, key=lambda a: (len(a), tuple(sorted(a)))):
        if attrs == top:
            continue  # the top view IS this query's associated view
        if not any(v >= attrs and v != top for v in views):
            views.add(attrs)

    ordered_views = sorted(views, key=lambda v: (len(v), tuple(sorted(pos[a] for a in v))))
    index_keys: Dict[frozenset, List[Tuple[str, ...]]] = {}
    for view in ordered_views:
        keys: List[Tuple[str, ...]] = []
        if view and max_indexes_per_view > 0:
            assigned: List[Tuple[SliceQuery, float]] = []
            for attrs, members in by_attrs.items():
                if attrs <= view:
                    assigned.extend(members)
            # per-attribute selection heat within this view's workload
            sel_weight: Dict[str, float] = {}
            sel_sets: Dict[frozenset, float] = {}
            for query, weight in assigned:
                if not query.selection:
                    continue
                sel_sets[query.selection] = sel_sets.get(query.selection, 0.0) + weight
                for attr in query.selection:
                    sel_weight[attr] = sel_weight.get(attr, 0.0) + weight

            def order(attrs):
                return sorted(attrs, key=lambda a: (-sel_weight.get(a, 0.0), pos[a]))

            ranked = sorted(
                sel_sets.items(), key=lambda kv: (-kv[1], tuple(sorted(kv[0])))
            )
            for sel, _weight in ranked:
                # fat key: the selection set first (fully usable prefix
                # for its sponsors), remaining view attributes after
                key = tuple(order(sel)) + tuple(order(view - sel))
                if key not in keys:
                    keys.append(key)
                if len(keys) >= max_indexes_per_view:
                    break
        index_keys[view] = keys

    return MinedCandidates(
        schema_names=schema_names,
        queries=counts,
        view_attrs=ordered_views,
        index_keys=index_keys,
        clusters=clusters,
        kept_clusters=len(kept),
        dropped_weight=dropped_weight,
        total_weight=total,
        support=support,
        similarity=similarity,
        max_indexes_per_view=max_indexes_per_view,
    )
