"""A SQLite execution backend for the selected structures.

The backend mirrors a :class:`~repro.engine.catalog.Catalog` into a real
SQLite database: the fact table and every materialized view become
ordinary tables (view rows are inserted exactly as the row engine
aggregated them, so the mirrored contents are bit-identical by
construction), and every selected B-tree or fat index becomes a real
``CREATE INDEX`` over its view table.  Slice queries are then answered
by SQL statements built with :func:`repro.sql.format_select` — the same
emitter behind :func:`repro.sql.to_sql` — and executed by SQLite's own
planner, which is free to (and on prefix plans does) use the created
indexes.

Result fidelity mirrors the row engine's semantics exactly:

* answers are :class:`~repro.engine.table.Answer` objects keyed by the
  groupby attributes in schema order, in key order, like the engine's;
* an ungrouped query over zero matching rows has no groups (SQLite's
  ``SUM`` returns NULL there, which is mapped back to the empty answer);
* ``rows_processed`` follows the engine's accounting — a usable index
  prefix counts the entries behind the bound prefix (computed by SQLite
  itself with ``COUNT(*)`` over the prefix predicates), a view scan
  counts the whole view, the raw fallback counts the whole fact table.

On integer-valued measures (the dense serving fixtures and the
differential harness's random facts) answers are byte-identical to the
row engine regardless of accumulation order; with arbitrary floats the
sums agree to accumulation-order rounding, which is why the differential
suite pins integral measures.

The backend also reports what SQLite *actually did*: each result carries
the ``EXPLAIN QUERY PLAN`` detail lines and the index the plan used, the
raw material for the measured-vs-predicted validation pass
(:mod:`repro.backends.validate`).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Answer
from repro.sql import _IDENTIFIER_RE, format_select

#: Name of the mirrored fact table.
FACT_TABLE = "fact"


class BackendError(RuntimeError):
    """Raised when a catalog cannot be mirrored or a query cannot run."""


@dataclass
class SqlResult:
    """One slice query answered by the SQLite mirror.

    Field-compatible with the row engine's
    :class:`~repro.engine.executor.QueryResult` (``query``, ``view``,
    ``index``, ``rows_processed``, ``groups``) so differential checks
    can compare the two directly, plus the SQL-side specifics: the
    statement text, the ``EXPLAIN QUERY PLAN`` detail lines, and the
    wall-clock seconds the answer query took.
    """

    query: SliceQuery
    view: Optional[View]
    index: Optional[Index]
    rows_processed: int
    groups: Answer
    sql: str
    explain: Tuple[str, ...]
    wall_s: float

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def used_index(self) -> Optional[str]:
        """Name of the index SQLite's plan used, if any."""
        for detail in self.explain:
            if "USING INDEX " in detail or "USING COVERING INDEX " in detail:
                return detail.rsplit("INDEX ", 1)[1].split(" ")[0]
        return None


def view_table_name(attrs: Tuple[str, ...]) -> str:
    """The mirrored table name for a view with the given ordered attrs.

    ``("p", "s")`` → ``view_p_s``; the empty (grand-total) view is
    ``view_total``.
    """
    return "view_" + ("_".join(attrs) or "total")


def index_name(index: Index, table: str) -> str:
    """A unique SQLite index name: ``idx_<view table>__<key order>``."""
    return f"idx_{table}__{'_'.join(index.key)}"


class SqliteBackend:
    """Mirror a catalog into SQLite and answer slice queries there.

    Parameters
    ----------
    catalog:
        Loaded immediately when given; otherwise call :meth:`load` (or
        :meth:`sync`, which the serving path uses) before executing.
    cost_model:
        Used by the internal planner when :meth:`execute` is called
        without an explicit plan — pass the same model the row-engine
        executor plans with so both sides route identically.
    path:
        SQLite database path (default in-memory).
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        cost_model: Optional[LinearCostModel] = None,
        path: str = ":memory:",
    ):
        # serving may execute batches from pool threads; one coarse lock
        # serializes mirror rebuilds and statement execution, so a hot
        # swap can never race a concurrent reader on the shared handle
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self.cost_model = cost_model
        self.catalog: Optional[Catalog] = None
        self._planner: Optional[Executor] = None
        self._token: Optional[tuple] = None
        self._view_names: Dict[View, str] = {}
        self._view_rows: Dict[View, int] = {}
        self._fact_rows = 0
        #: How many times the mirror was (re)built — lets tests assert
        #: that version bumps invalidate and no-op batches do not.
        self.reloads = 0
        if catalog is not None:
            self.load(catalog)

    # ------------------------------------------------------------- mirror

    def load(self, catalog: Catalog, generation: int = 0) -> None:
        """(Re)build the SQLite mirror of ``catalog`` from scratch.

        Drops every mirrored table, recreates the fact table and one
        table per materialized view (rows inserted in engine row order),
        and issues one ``CREATE INDEX`` per selected index.
        """
        with self._lock:
            schema = catalog.fact.schema
            names = (*schema.names, schema.measure, *catalog.fact.extra_measures)
            for name in names:
                if not _IDENTIFIER_RE.match(name):
                    raise BackendError(
                        f"cannot mirror column {name!r}: not a SQL identifier"
                    )
            if len(set(names)) != len(names):
                raise BackendError(f"column names collide: {sorted(names)}")

            conn = self._conn
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall():
                conn.execute(f'DROP TABLE IF EXISTS "{name}"')

            fact = catalog.fact
            dim_cols = ", ".join(f"{n} INTEGER NOT NULL" for n in schema.names)
            measure_cols = ", ".join(
                f"{n} REAL NOT NULL" for n in (schema.measure, *fact.extra_measures)
            )
            conn.execute(f"CREATE TABLE {FACT_TABLE} ({dim_cols}, {measure_cols})")
            columns = [fact.columns[n].tolist() for n in schema.names]
            columns.append(fact.measures.tolist())
            columns.extend(col.tolist() for col in fact.extra_measures.values())
            placeholders = ", ".join("?" * len(columns))
            conn.executemany(
                f"INSERT INTO {FACT_TABLE} VALUES ({placeholders})", zip(*columns)
            )

            self._view_names = {}
            self._view_rows = {}
            for view in catalog.views():
                table = catalog.view_table(view)
                name = view_table_name(table.attrs)
                key_cols = ", ".join(f"{a} INTEGER NOT NULL" for a in table.attrs)
                cols = f"{key_cols}, " if key_cols else ""
                conn.execute(
                    f"CREATE TABLE {name} ({cols}{table.measure} REAL NOT NULL)"
                )
                view_columns = [table.key_columns[a].tolist() for a in table.attrs]
                view_columns.append(table.values.tolist())
                marks = ", ".join("?" * len(view_columns))
                conn.executemany(
                    f"INSERT INTO {name} VALUES ({marks})", zip(*view_columns)
                )
                self._view_names[view] = name
                self._view_rows[view] = table.n_rows

            for index in catalog.indexes():
                table_name = self._view_names[index.view]
                conn.execute(
                    f"CREATE INDEX {index_name(index, table_name)} "
                    f"ON {table_name} ({', '.join(index.key)})"
                )
            conn.commit()

            self.catalog = catalog
            self._planner = Executor(catalog, self.cost_model)
            self._fact_rows = fact.n_rows
            self._token = (generation, catalog.version)
            self.reloads += 1

    def sync(self, catalog: Catalog, generation: int = 0) -> bool:
        """Reload the mirror iff the serving data changed.

        The token is ``(generation, catalog.version)`` — the same pair
        the serving result cache tags entries with — so a hot swap (new
        generation, new catalog) and an applied fact delta (version
        bump on the same catalog) both rebuild the mirror, while steady
        batches are no-ops.  Returns whether a rebuild happened.
        """
        with self._lock:
            token = (generation, catalog.version)
            if catalog is self.catalog and token == self._token:
                return False
            self.load(catalog, generation=generation)
            return True

    def ddl(self) -> List[str]:
        """The mirror's ``CREATE`` statements, as SQLite stores them."""
        return [
            sql
            for (sql,) in self._conn.execute(
                "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL"
            ).fetchall()
        ]

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- execution

    def _require_loaded(self) -> Catalog:
        if self.catalog is None:
            raise BackendError("no catalog loaded; call load() first")
        return self.catalog

    def _run(self, sql: str) -> Tuple[list, Tuple[str, ...], float]:
        explain = tuple(
            str(row[-1])
            for row in self._conn.execute("EXPLAIN QUERY PLAN " + sql)
        )
        start = time.perf_counter()
        rows = self._conn.execute(sql).fetchall()
        return rows, explain, time.perf_counter() - start

    @staticmethod
    def _answer(rows: list, n_keys: int) -> Answer:
        """The ``(key..., sum)`` rows in key order (the statements carry
        no ``ORDER BY``: SQLite picks the row order)."""
        if not rows or (n_keys == 0 and rows[0][0] is None):
            return Answer()  # SUM over no rows is NULL: no groups
        *keys, sums = zip(*sorted(rows))
        return Answer(keys, sums)

    def execute(
        self,
        query: SliceQuery,
        selection_values: Mapping[str, int],
        plan: Optional[Tuple[View, Optional[Index]]] = None,
    ) -> SqlResult:
        """Answer a slice query from a mirrored view table.

        Mirrors :meth:`Executor.execute`: the engine's
        :meth:`~Executor.resolve_plan` checks a forced ``plan``, or picks
        the cheapest ``(view, index)`` (raising ``LookupError`` when
        nothing materialized answers — callers fall back to
        :meth:`execute_raw`, exactly like the engine's serving path).
        """
        with self._lock:
            catalog = self._require_loaded()
            view, index = self._planner.resolve_plan(query, selection_values, plan)

            table = catalog.view_table(view)
            table_name = self._view_names[view]
            groupby = [a for a in table.attrs if a in query.groupby]
            where = [
                (a, int(selection_values[a]))
                for a in table.attrs
                if a in query.selection
            ]
            sql = format_select(
                groupby, "sum", table.measure, table_name, where, groupby
            )
            rows, explain, wall_s = self._run(sql)
            groups = self._answer(rows, len(groupby))

            prefix = index.usable_prefix(query) if index is not None else ()
            if prefix:
                conjunction = " AND ".join(
                    f"{a} = {int(selection_values[a])}" for a in prefix
                )
                (rows_processed,) = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table_name} WHERE {conjunction}"
                ).fetchone()
            else:
                rows_processed = self._view_rows[view]
            return SqlResult(
                query=query,
                view=view,
                index=index,
                rows_processed=int(rows_processed),
                groups=groups,
                sql=sql,
                explain=explain,
                wall_s=wall_s,
            )

    def execute_raw(
        self, query: SliceQuery, selection_values: Mapping[str, int]
    ) -> SqlResult:
        """Answer a slice query from the mirrored raw fact table.

        The fallback path: the whole fact table counts as rows
        processed, matching the engine's raw-serving accounting.
        """
        with self._lock:
            catalog = self._require_loaded()
            missing = query.selection - set(selection_values)
            if missing:
                raise ValueError(f"missing selection values for {sorted(missing)}")
            schema = catalog.fact.schema
            groupby = list(schema.sort_attrs(query.groupby))
            where = [
                (a, int(selection_values[a]))
                for a in schema.sort_attrs(query.selection)
            ]
            sql = format_select(
                groupby, "sum", schema.measure, FACT_TABLE, where, groupby
            )
            rows, explain, wall_s = self._run(sql)
            return SqlResult(
                query=query,
                view=None,
                index=None,
                rows_processed=self._fact_rows,
                groups=self._answer(rows, len(groupby)),
                sql=sql,
                explain=explain,
                wall_s=wall_s,
            )
