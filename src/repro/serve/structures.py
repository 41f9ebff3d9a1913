"""Resolving selection labels back to physical structures.

A :class:`~repro.core.selection.SelectionResult` names its structures in
the paper's compact notation — views as ``psc`` / ``part,customer`` /
``none``, indexes as ``I_sp(ps)`` — which is also what ``repro advise``
persists to JSON.  The serving layer turns those labels back into
:class:`~repro.core.view.View` and :class:`~repro.core.index.Index`
objects, with :func:`~repro.core.index.parse_structure` reading each
label against the cube's attribute names, so the catalog can
materialize them.
"""

from __future__ import annotations

from typing import Collection, Iterable, List, Tuple

from repro.core.index import Index, parse_structure
from repro.core.view import View


def resolve_selection(
    labels: Iterable[str],
    schema_names: Collection[str],
) -> Tuple[List[View], List[Index]]:
    """Split selection labels into views and indexes, preserving order.

    Each label is read against ``schema_names``, the cube's attribute
    names (:func:`~repro.core.index.parse_structure`).  Raises
    ``ValueError`` when an index's owning view is not part of the
    selection — the catalog could never build it.
    """
    views: List[View] = []
    indexes: List[Index] = []
    for label in labels:
        structure = parse_structure(label, schema_names)
        if isinstance(structure, Index):
            indexes.append(structure)
        else:
            views.append(structure)
    view_set = set(views)
    for index in indexes:
        if index.view not in view_set:
            raise ValueError(
                f"selection has index {index} without its view {index.view}"
            )
    return views, indexes
