"""A small SQL front-end for slice queries.

The paper writes its queries in SQL (Section 3.1) and in the compact
``γ_A σ_B`` notation interchangeably.  This module accepts the SQL form
and produces the model objects, so the engine can be driven with the
statements a user would actually write::

    SELECT p, SUM(sales) FROM cube WHERE s = 17 GROUP BY p

maps to the slice query ``γ(p)σ(s)`` with the binding ``{s: 17}``.

Grammar (case-insensitive keywords)::

    SELECT select_list FROM name [WHERE conjunction] [GROUP BY attrs]
    select_list: (attr ",")* agg "(" measure ")" | attrs (aggregate optional
                 only when a GROUP BY names the same attrs)
    conjunction: attr "=" integer ("AND" attr "=" integer)*

Restrictions match the paper's query class: equality predicates only,
conjunctive WHERE, group-by attributes must equal the non-aggregate
select columns.

The module also works in the other direction: :func:`to_sql` (and
:meth:`ParsedQuery.to_sql`) emit the canonical SQL text of a slice
query, and ``parse_query(to_sql(...))`` round-trips exactly — the SQL
backend (:mod:`repro.backends.sqlite`) leans on this to drive a real
database with the statements the model objects describe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.query import SliceQuery
from repro.cube.schema import CubeSchema
from repro.engine.table import AGGREGATES

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_]\w*$")


class SqlError(ValueError):
    """Raised when a statement cannot be parsed or validated."""


def format_select(
    select: Sequence[str],
    agg: str,
    measure: str,
    table: str,
    where: Sequence[Tuple[str, int]] = (),
    groupby: Sequence[str] = (),
) -> str:
    """Format one SELECT statement from its clause pieces.

    The building block under :func:`to_sql` — also reused by the SQLite
    backend, whose view-table statements carry residual WHERE predicates
    that are not part of the slice-query grammar.  ``where`` is ordered
    ``(attr, value)`` pairs; clause order is taken verbatim.
    """
    items = list(select) + [f"{agg.upper()}({measure})"]
    text = f"SELECT {', '.join(items)} FROM {table}"
    if where:
        conjunction = " AND ".join(f"{attr} = {value}" for attr, value in where)
        text += f" WHERE {conjunction}"
    if groupby:
        text += f" GROUP BY {', '.join(groupby)}"
    return text


def to_sql(
    query: SliceQuery,
    values: Optional[Mapping[str, int]] = None,
    agg: str = "sum",
    measure: str = "sales",
    table: str = "cube",
) -> str:
    """Emit the canonical SQL text of a slice query.

    Attributes are emitted in sorted order (both the select/GROUP BY
    list and the WHERE conjunction), so the output is deterministic and
    ``parse_query(to_sql(q, v)) `` recovers exactly ``q`` and ``v``.
    ``values`` must bind every selection attribute — the grammar has no
    way to write an unbound selection.

    >>> to_sql(SliceQuery(groupby=["p"], selection=["s"]), {"s": 17})
    'SELECT p, SUM(sales) FROM cube WHERE s = 17 GROUP BY p'
    >>> to_sql(SliceQuery())
    'SELECT SUM(sales) FROM cube'
    """
    values = dict(values or {})
    missing = query.selection - set(values)
    if missing:
        raise SqlError(
            f"cannot emit SQL: selection attributes {sorted(missing)} "
            "have no bound value"
        )
    extraneous = set(values) - query.selection
    if extraneous:
        raise SqlError(
            f"cannot emit SQL: values bind {sorted(extraneous)}, which are "
            "not selection attributes"
        )
    if agg.lower() not in AGGREGATES:
        raise SqlError(
            f"unsupported aggregate {agg!r}; use one of {AGGREGATES}"
        )
    for name in (*query.groupby, *query.selection):
        if not _IDENTIFIER_RE.match(name):
            raise SqlError(f"attribute {name!r} is not a SQL identifier")
    groupby = sorted(query.groupby)
    where = [(attr, int(values[attr])) for attr in sorted(query.selection)]
    return format_select(groupby, agg, measure, table, where, groupby)


@dataclass(frozen=True)
class ParsedQuery:
    """The outcome of parsing one SELECT statement."""

    query: SliceQuery
    values: Dict[str, int]
    agg: str
    measure: str
    table: str

    @property
    def is_executable(self) -> bool:
        """True when every selection attribute has a bound value."""
        return set(self.values) == set(self.query.selection)

    def to_sql(self) -> str:
        """The canonical SQL text of this query (see :func:`to_sql`).

        ``parse_query(parsed.to_sql())`` equals ``parsed`` field for
        field — the emit → parse round trip the tests enforce.
        """
        return to_sql(
            self.query,
            self.values,
            agg=self.agg,
            measure=self.measure,
            table=self.table,
        )


_SELECT_RE = re.compile(
    r"""
    ^\s*select\s+(?P<select>.+?)
    \s+from\s+(?P<table>[A-Za-z_][\w.]*)
    (?:\s+where\s+(?P<where>.+?))?
    (?:\s+group\s+by\s+(?P<groupby>.+?))?
    \s*;?\s*$
    """,
    re.IGNORECASE | re.VERBOSE | re.DOTALL,
)

_AGG_RE = re.compile(
    r"^(?P<agg>\w+)\s*\(\s*(?P<measure>[A-Za-z_]\w*|\*)\s*\)\s*(?:as\s+\w+)?$",
    re.IGNORECASE,
)

_PREDICATE_RE = re.compile(
    r"^\s*(?P<attr>[A-Za-z_]\w*)\s*=\s*(?P<value>-?\d+)\s*$"
)


def _split_commas(text: str) -> List[str]:
    """Split on commas not inside parentheses."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SqlError("unbalanced parentheses in select list")
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]


def parse_query(
    text: str,
    schema: Optional[CubeSchema] = None,
    extra_measures: Tuple[str, ...] = (),
) -> ParsedQuery:
    """Parse one SELECT statement into a :class:`ParsedQuery`.

    With a ``schema``, attributes and the measure are validated against
    it (plus any ``extra_measures`` the fact table carries); without
    one, any identifiers are accepted.

    >>> parsed = parse_query(
    ...     "SELECT p, SUM(sales) FROM cube WHERE s = 17 GROUP BY p")
    >>> str(parsed.query)
    'γ(p)σ(s)'
    >>> parsed.values
    {'s': 17}
    """
    match = _SELECT_RE.match(text)
    if not match:
        raise SqlError(
            "expected: SELECT ... FROM name [WHERE ...] [GROUP BY ...]"
        )
    table = match.group("table")

    # ---- select list: plain attributes + at most one aggregate
    select_attrs: List[str] = []
    agg: Optional[str] = None
    measure: Optional[str] = None
    for part in _split_commas(match.group("select")):
        agg_match = _AGG_RE.match(part)
        if agg_match:
            if agg is not None:
                raise SqlError("only one aggregate is supported")
            agg = agg_match.group("agg").lower()
            measure = agg_match.group("measure")
            if agg not in AGGREGATES:
                raise SqlError(
                    f"unsupported aggregate {agg!r}; use one of {AGGREGATES}"
                )
            continue
        if not re.match(r"^[A-Za-z_]\w*$", part):
            raise SqlError(f"cannot parse select item {part!r}")
        if part in select_attrs:
            raise SqlError(f"duplicate attribute {part!r} in select list")
        select_attrs.append(part)
    if agg is None:
        raise SqlError("the select list needs an aggregate, e.g. SUM(sales)")

    # ---- where: conjunction of attr = integer
    values: Dict[str, int] = {}
    where = match.group("where")
    if where:
        for predicate in re.split(r"\s+and\s+", where, flags=re.IGNORECASE):
            pred_match = _PREDICATE_RE.match(predicate)
            if not pred_match:
                raise SqlError(
                    f"cannot parse predicate {predicate.strip()!r}; only "
                    "attr = integer conjunctions are supported"
                )
            attr = pred_match.group("attr")
            if attr in values:
                raise SqlError(f"attribute {attr!r} constrained twice")
            values[attr] = int(pred_match.group("value"))

    # ---- group by must equal the non-aggregate select columns
    groupby_text = match.group("groupby")
    groupby = (
        [part.strip() for part in groupby_text.split(",")] if groupby_text else []
    )
    if groupby and any(not re.match(r"^[A-Za-z_]\w*$", g) for g in groupby):
        raise SqlError(f"cannot parse GROUP BY list {groupby_text!r}")
    duplicates = sorted({g for g in groupby if groupby.count(g) > 1})
    if duplicates:
        raise SqlError(f"duplicate attributes {duplicates} in GROUP BY")
    if set(groupby) != set(select_attrs):
        raise SqlError(
            f"GROUP BY attributes {sorted(groupby)} must match the "
            f"non-aggregate select columns {sorted(select_attrs)}"
        )
    overlap = set(groupby) & set(values)
    if overlap:
        raise SqlError(
            f"attributes {sorted(overlap)} appear in both GROUP BY and WHERE"
        )

    if schema is not None:
        known = set(schema.names)
        unknown = (set(groupby) | set(values)) - known
        if unknown:
            raise SqlError(f"unknown attributes {sorted(unknown)}")
        allowed = {"*", schema.measure, *extra_measures}
        if measure not in allowed:
            raise SqlError(
                f"unknown measure {measure!r} (available: {sorted(allowed)})"
            )

    return ParsedQuery(
        query=SliceQuery(groupby=groupby, selection=values.keys()),
        values=values,
        agg=agg,
        measure=measure or "*",
        table=table,
    )


def run_sql(executor, text: str, schema: Optional[CubeSchema] = None):
    """Parse and execute a statement against an engine executor.

    Returns the executor's :class:`~repro.engine.executor.QueryResult`.
    ``count`` aggregates are served by re-aggregation only when the plan
    scans a base table whose measure is the count; for the row-count
    accounting this experiment suite cares about, ``sum`` is the common
    path.
    """
    fact = executor.catalog.fact
    if schema is None:
        schema = fact.schema
    parsed = parse_query(
        text, schema=schema, extra_measures=tuple(fact.extra_measures)
    )
    measure = None
    if parsed.measure not in ("*", schema.measure):
        measure = parsed.measure
    return executor.execute(parsed.query, parsed.values, measure=measure)
