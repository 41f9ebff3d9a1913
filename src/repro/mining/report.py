"""The mined-candidate report: what was kept, what was dropped, and the
certified price of the pruning.

Emitted by ``repro mine --output`` and uploaded as a CI artifact by the
pruned-advise smoke (both write it with :func:`repro.io.write_json`), so
every pruned selection ships with an auditable record of the candidate
space it ran on.
"""

from __future__ import annotations

from typing import Optional

from repro.core.index import Index, count_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.view import View

from repro.mining.bound import BenefitBound
from repro.mining.candidates import MinedCandidates

REPORT_KIND = "repro-mining-report"
REPORT_VERSION = 1


def _label(attrs: frozenset, lattice: Optional[CubeLattice]) -> str:
    if lattice is not None:
        return lattice.label(View(attrs))
    return str(View(attrs))


def mining_report(
    mined: MinedCandidates,
    bound: Optional[BenefitBound] = None,
    lattice: Optional[CubeLattice] = None,
) -> dict:
    """Serialize a mined candidate set (plus its benefit bound) to a dict."""
    n = len(mined.schema_names)
    report = {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "fingerprint": mined.fingerprint(),
        "params": {
            "support": mined.support,
            "similarity": mined.similarity,
            "max_indexes_per_view": mined.max_indexes_per_view,
        },
        "workload": {
            "total_weight": mined.total_weight,
            "distinct_patterns": mined.n_queries,
            "dropped_weight": mined.dropped_weight,
        },
        "clusters": [
            {
                "attrs": _label(c.attrs, lattice),
                "patterns": c.size,
                "weight": c.weight,
                "support": c.support,
                "kept": c.support >= mined.support,
            }
            for c in mined.clusters
        ],
        "candidates": {
            "n_views": mined.n_views,
            "n_indexes": mined.n_indexes,
            "views": [_label(attrs, lattice) for attrs in mined.view_attrs],
            "indexes": {
                _label(attrs, lattice): [
                    lattice.index_label(Index(View(attrs), key))
                    if lattice is not None
                    else str(Index(View(attrs), key))
                    for key in mined.index_keys[attrs]
                ]
                for attrs in mined.view_attrs
                if mined.index_keys[attrs]
            },
            "full_universe": {
                "views": 2 ** n,
                "fat_indexes": count_fat_indexes(n),
                "queries": 3 ** n,
            },
        },
    }
    if bound is not None:
        report["bound"] = bound.to_dict()
    return report
