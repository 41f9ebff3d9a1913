"""The linear cost model of Section 4 of the paper.

The cost of answering a query is the number of rows of the chosen view's
table that must be processed.  With a usable index the row count shrinks to
the view's size divided by the number of distinct values of the usable
prefix of the index key:

    c(Q, V, J) = |C| / |E|

where ``C`` is the view's attribute set, ``J = I_D(V)`` and ``E`` is the
largest prefix of ``D`` consisting only of selection attributes of ``Q``.
``|E|`` is the number of rows of the view grouping by exactly ``E`` — in a
data cube that is the size of the subcube ``E``, so a :class:`CubeLattice`
supplies every quantity the formula needs.  When ``E`` is empty the full
view must be scanned and the cost is ``|C|`` (the formula still applies
because the empty view has one row).
"""

from __future__ import annotations

from typing import Optional

from repro.core.index import Index
from repro.core.lattice import CubeLattice
from repro.core.query import SliceQuery
from repro.core.view import View


class LinearCostModel:
    """Row-count costs for answering slice queries on a cube lattice.

    Parameters
    ----------
    lattice:
        Supplies the size of every subcube, including the prefix subcubes
        ``E`` appearing in the denominator of the cost formula.
    default_view:
        The view consulted when a query is answered from raw data (the
        default cost ``T_i`` of Section 5.1).  Defaults to the lattice's
        top view.

    >>> # the paper's Section 4.1.1 worked example: Q = γ_p σ_s on view psc
    >>> # with index I_scp costs |psc| / |s| rows.
    """

    def __init__(self, lattice: CubeLattice, default_view: Optional[View] = None):
        self.lattice = lattice
        self.default_view = default_view if default_view is not None else lattice.top

    @classmethod
    def from_fact(cls, fact) -> "LinearCostModel":
        """Cost model over the *exact* lattice of a materialized fact table.

        Every view's size is measured as the fact table's distinct count
        of its attributes — the true row count of the materialized view —
        so the model's ``|C| / |E|`` predictions are falsifiable against
        the executor's actual rows-processed numbers (and on a dense cube
        they match exactly, query by query).  ``fact`` is a
        :class:`~repro.engine.table.FactTable`.
        """
        lattice = CubeLattice.from_estimator(
            fact.schema,
            lambda view: float(fact.distinct_count(fact.schema.sort_attrs(view.attrs))),
        )
        return cls(lattice)

    def cost(
        self,
        query: SliceQuery,
        view: View,
        index: Optional[Index] = None,
    ) -> float:
        """Rows processed answering ``query`` with ``view`` (and ``index``).

        Raises ``ValueError`` if the view cannot answer the query or the
        index is not an index on ``view``.
        """
        if not query.answerable_by(view):
            raise ValueError(f"{query} is not answerable by view {view}")
        view_rows = self.lattice.size(view)
        if index is None:
            return view_rows
        if index.view != view:
            raise ValueError(f"{index} is not an index on view {view}")
        prefix = index.usable_prefix(query)
        if not prefix:
            return view_rows
        prefix_rows = self.lattice.size(View(prefix))
        # a view never has fewer rows than any of its projections, so the
        # ratio is >= 1; guard against inconsistent user-supplied sizes.
        return max(1.0, view_rows / prefix_rows)

    def default_cost(self, query: SliceQuery) -> float:
        """Cost of answering ``query`` from raw data (no precomputation).

        This is ``T_i`` in the paper's problem definition: the raw data
        table is scanned in full.
        """
        if not query.answerable_by(self.default_view):
            raise ValueError(
                f"{query} is not answerable by the default view {self.default_view}"
            )
        return self.lattice.size(self.default_view)

    def __repr__(self) -> str:
        return f"LinearCostModel(default_view={self.default_view})"
