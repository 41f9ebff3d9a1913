"""JSON persistence for cubes, lattices, selections and query logs.

A deployed advisor needs its inputs (schema + sizes) and outputs
(selections) to survive a process; this module defines a small, stable
JSON format for both, and :func:`write_json`, the one atomic writer for
reports and checkpoints.

Lattice document::

    {
      "dimensions": {"p": 200000, "s": 10000, "c": 100000},
      "measure": "sales",
      "raw_rows": 6000000,                  # for analytical sizing, or:
      "view_rows": {"psc": 6000000, "ps": 800000, ...}   # exact sizes
    }

View labels use the lattice's schema-ordered compact form (``ps``,
``none``); multi-character dimension names join with commas.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, Union

from repro.core.lattice import CubeLattice
from repro.core.selection import SelectionResult
from repro.core.view import parse_view
from repro.cube.schema import CubeSchema, Dimension
from repro.estimation.sizes import analytical_lattice

PathLike = Union[str, Path]


def _require_finite(value, field: str) -> float:
    """Coerce to float and reject NaN/inf with the offending field named.

    Python's ``json`` accepts the non-standard ``NaN``/``Infinity``
    tokens, and a NaN row count or frequency silently poisons every
    comparison downstream (``NaN <= x`` is always false) — reject it at
    the door instead.
    """
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field} must be a number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value}")
    return value


def lattice_to_dict(lattice: CubeLattice) -> Dict:
    """Serialize a lattice with exact view sizes."""
    return {
        "dimensions": {
            d.name: d.cardinality for d in lattice.schema.dimensions
        },
        "measure": lattice.schema.measure,
        "view_rows": {
            lattice.label(view): lattice.size(view) for view in lattice.views()
        },
    }


def lattice_from_dict(document: Dict) -> CubeLattice:
    """Build a lattice from a JSON document.

    With ``view_rows`` the sizes are taken verbatim (every view must be
    present); otherwise ``raw_rows`` sizes the lattice analytically.
    """
    dimensions = document.get("dimensions")
    if not dimensions:
        raise ValueError("document needs a non-empty 'dimensions' mapping")
    schema = CubeSchema(
        [Dimension(name, int(card)) for name, card in dimensions.items()],
        measure=document.get("measure", "sales"),
    )
    view_rows = document.get("view_rows")
    if view_rows is not None:
        sizes = {}
        for label, rows in view_rows.items():
            view = parse_view(label, schema.names)
            sizes[view] = _require_finite(rows, f"view_rows[{label!r}]")
        return CubeLattice(schema, sizes)
    raw_rows = document.get("raw_rows")
    if raw_rows is None:
        raise ValueError("document needs 'view_rows' or 'raw_rows'")
    return analytical_lattice(schema, _require_finite(raw_rows, "raw_rows"))


def load_lattice(path: PathLike) -> CubeLattice:
    """Read a lattice document from a JSON file."""
    with open(path) as f:
        return lattice_from_dict(json.load(f))


def save_lattice(lattice: CubeLattice, path: PathLike) -> None:
    """Write a lattice document to a JSON file."""
    with open(path, "w") as f:
        # note: no sort_keys — the dimension order in the document IS the
        # schema order, which view labels depend on.
        json.dump(lattice_to_dict(lattice), f, indent=2)
        f.write("\n")


def hierarchical_cube_from_dict(document: Dict):
    """Build a :class:`~repro.core.hierarchy.HierarchicalCube` from JSON.

    Document format::

        {
          "hierarchies": {
            "time": [["day", 365], ["month", 12], ["year", 1]],
            "p": [["p", 100]]
          },
          "raw_rows": 50000
        }

    Levels are listed finest first; a single-level list is a flat
    dimension.
    """
    from repro.core.hierarchy import HierarchicalCube, Hierarchy, Level

    hierarchies = document.get("hierarchies")
    if not hierarchies:
        raise ValueError("document needs a non-empty 'hierarchies' mapping")
    raw_rows = document.get("raw_rows")
    if raw_rows is None:
        raise ValueError("document needs 'raw_rows'")
    built = []
    for name, levels in hierarchies.items():
        if not levels:
            raise ValueError(f"hierarchy {name!r} has no levels")
        built.append(
            Hierarchy(name, [Level(str(n), int(c)) for n, c in levels])
        )
    return HierarchicalCube(
        built, raw_rows=_require_finite(raw_rows, "raw_rows")
    )


def is_hierarchical_document(document: Dict) -> bool:
    """True when the document describes a hierarchical cube."""
    return "hierarchies" in document


def is_graph_document(document: Dict) -> bool:
    """True when the document is a raw query-view graph (Section 5.1)."""
    return "queries" in document and "views" in document


def graph_to_dict(graph) -> Dict:
    """Serialize a :class:`~repro.core.qvgraph.QueryViewGraph`.

    Payloads are not serialized (they are derivable for cube graphs and
    absent for hand-built ones).
    """
    return {
        "queries": [
            {
                "name": q.name,
                "default_cost": q.default_cost,
                "frequency": q.frequency,
            }
            for q in graph.queries
        ],
        "views": [
            {
                "name": v.name,
                "space": v.space,
                "indexes": [
                    {"name": i, "space": graph.structure(i).space}
                    for i in graph.indexes_of(v.name)
                ],
            }
            for v in graph.views
        ],
        "edges": [
            {"query": q, "structure": s, "cost": cost}
            for q, s, cost in graph.edges()
        ],
    }


def graph_from_dict(document: Dict):
    """Rebuild a query-view graph from :func:`graph_to_dict` output.

    Also accepts hand-written documents — the format doubles as the
    CLI's input for arbitrary (non-cube) instances like Figure 2.
    """
    from repro.core.qvgraph import QueryViewGraph

    if not is_graph_document(document):
        raise ValueError("document needs 'queries' and 'views' lists")
    graph = QueryViewGraph()
    for q in document["queries"]:
        name = q["name"]
        graph.add_query(
            name,
            default_cost=_require_finite(
                q["default_cost"], f"queries[{name!r}].default_cost"
            ),
            frequency=_require_finite(
                q.get("frequency", 1.0), f"queries[{name!r}].frequency"
            ),
        )
    for v in document["views"]:
        name = v["name"]
        graph.add_view(
            name, space=_require_finite(v["space"], f"views[{name!r}].space")
        )
        for idx in v.get("indexes", []):
            graph.add_index(
                name,
                idx["name"],
                space=_require_finite(
                    idx["space"], f"indexes[{idx['name']!r}].space"
                )
                if "space" in idx
                else None,
            )
    for edge in document.get("edges", []):
        graph.add_edge(
            edge["query"],
            edge["structure"],
            _require_finite(
                edge["cost"],
                f"edge ({edge['query']!r}, {edge['structure']!r}).cost",
            ),
        )
    graph.validate()
    return graph


def selection_to_dict(result: SelectionResult) -> Dict:
    """Serialize a selection result (structures, stages, headline stats)."""
    return {
        "algorithm": result.algorithm,
        "interrupted": result.interrupted,
        "stop_reason": result.stop_reason,
        "space_budget": result.space_budget,
        "space_used": result.space_used,
        "initial_tau": result.initial_tau,
        "tau": result.tau,
        "benefit": result.benefit,
        "average_query_cost": result.average_query_cost,
        "selected": list(result.selected),
        "stages": [
            {
                "structures": list(stage.structures),
                "benefit": stage.benefit,
                "space": stage.space,
                "tau_after": stage.tau_after,
            }
            for stage in result.stages
        ],
    }


def save_selection(result: SelectionResult, path: PathLike) -> None:
    """Write a selection report to a JSON file."""
    with open(path, "w") as f:
        json.dump(selection_to_dict(result), f, indent=2)
        f.write("\n")


def round_trip_lattice(lattice: CubeLattice) -> CubeLattice:
    """Serialize and re-parse (used by tests; exact sizes preserved)."""
    return lattice_from_dict(lattice_to_dict(lattice))


def write_json(document, path: PathLike) -> None:
    """Write a report or checkpoint as indented, key-sorted JSON, atomically.

    The document goes to a temporary file in the target's directory,
    which then replaces the target.  A crash or a failed write leaves
    the previous file intact and no temporary file behind, which is what
    a checkpoint must survive.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------- query logs

# One JSON object per line (JSONL) — the workload recorder's streaming
# format.  A record::
#
#     {"groupby": ["c"], "selection": ["p", "s"], "values": {"p": 3, "s": 1}}
#
# ``values`` binds every selection attribute to a concrete dimension
# value.  Attribute names are validated against the cube schema at load
# time: a record selecting on an attribute the cube does not have used
# to surface as a ``KeyError`` deep inside plan routing — now it is a
# one-line input error naming the record.


def log_entry_to_dict(entry) -> Dict:
    """Serialize a :class:`~repro.cube.query_log.LogEntry`."""
    return {
        "groupby": sorted(entry.query.groupby),
        "selection": sorted(entry.query.selection),
        "values": {attr: int(value) for attr, value in entry.values},
    }


def log_entry_from_dict(document: Dict, schema, where: str = "query-log entry"):
    """Rebuild a :class:`~repro.cube.query_log.LogEntry`, validated
    against ``schema`` (a :class:`~repro.cube.schema.CubeSchema`).

    Rejects attributes that are not cube dimensions, bound values
    outside the attribute's domain, and values that do not bind exactly
    the selection attributes — all as one-line ``ValueError``\\ s naming
    the record, so a bad log line fails at the door instead of as a
    ``KeyError`` in the middle of routing.
    """
    from repro.core.query import SliceQuery
    from repro.cube.query_log import LogEntry

    known = set(schema.names)
    groupby = list(document.get("groupby", []))
    selection = list(document.get("selection", []))
    for role, attrs in (("groupby", groupby), ("selection", selection)):
        unknown = [a for a in attrs if a not in known]
        if unknown:
            raise ValueError(
                f"{where}: {role} attribute {unknown[0]!r} is not a cube "
                f"dimension (have {', '.join(schema.names)})"
            )
    values = document.get("values", {})
    if set(values) != set(selection):
        raise ValueError(
            f"{where}: values must bind exactly the selection attributes "
            f"{sorted(selection)}, got {sorted(values)}"
        )
    bound = []
    for attr, value in values.items():
        try:
            value = int(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{where}: value for {attr!r} must be an integer, got {value!r}"
            ) from exc
        card = schema.cardinality(attr)
        if not 0 <= value < card:
            raise ValueError(
                f"{where}: value {value} for {attr!r} is outside [0, {card})"
            )
        bound.append((attr, value))
    query = SliceQuery(groupby=groupby, selection=selection)
    return LogEntry(query=query, values=tuple(sorted(bound)))


def save_query_log(log, path: PathLike) -> None:
    """Write a query log as JSONL (one record per line)."""
    with open(path, "w") as f:
        for entry in log:
            f.write(json.dumps(log_entry_to_dict(entry), sort_keys=True))
            f.write("\n")


def iter_query_log(path: PathLike, schema):
    """Stream a JSONL query log, validating each record against ``schema``.

    Yields one :class:`~repro.cube.query_log.LogEntry` per line without
    ever holding the file in memory, so a multi-million-query log from a
    long serve run mines in O(1) RSS.  An empty file is an empty log.
    Malformed JSON or invalid records raise ``ValueError`` naming the
    offending ``file:line``, exactly like :func:`load_query_log`.
    """
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid JSON in query log: {exc}"
                ) from exc
            yield log_entry_from_dict(document, schema, where=f"{path}:{line_no}")


def load_query_log(path: PathLike, schema) -> list:
    """Read a whole JSONL query log into a list (see :func:`iter_query_log`)."""
    return list(iter_query_log(path, schema))
