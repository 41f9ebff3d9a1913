"""Views (subcubes) of a data cube.

A *view* is identified by the set of dimensions in its ``GROUP BY`` clause
(Section 3.1 of the paper).  The subcube grouping by ``{part, supplier}`` is
written ``ps`` when the dimensions have single-letter abbreviations.  The
order of attributes in a view is irrelevant; only the set matters.

Views form a lattice under the *dependence relation* ``V1 <= V2`` iff
``attrs(V1) >= attrs(V2)`` (Section 3.4): a view can be computed from any
view whose attribute set is a superset of its own.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence, Tuple


def join_attrs(attrs: Sequence[str]) -> str:
    """Attributes in the paper's compact notation, in the order given:
    ``psc`` for one-letter names, ``part,customer`` otherwise."""
    return "".join(attrs) if all(len(a) == 1 for a in attrs) else ",".join(attrs)


class View:
    """An aggregate view (subcube), identified by its group-by attributes.

    Instances are immutable, hashable, and compare equal iff their attribute
    sets are equal.  The empty view (grouping by nothing — the single grand
    total row, written ``none`` in the paper) is ``View.none()``.

    >>> ps = View(["p", "s"])
    >>> ps == View(["s", "p"])
    True
    >>> str(ps)
    'ps'
    >>> str(View([]))
    'none'
    """

    __slots__ = ("_attrs", "_key", "_hash")

    def __init__(self, attrs: Iterable[str]):
        attrs = frozenset(attrs)
        for attr in attrs:
            if not isinstance(attr, str) or not attr:
                raise ValueError(f"view attributes must be non-empty strings, got {attr!r}")
        self._attrs = attrs
        self._key = tuple(sorted(attrs))
        self._hash = hash(self._key)

    @classmethod
    def of(cls, *attrs: str) -> "View":
        """Build a view from attribute names given as arguments.

        >>> View.of("p", "s") == View(["s", "p"])
        True
        """
        return cls(attrs)

    @classmethod
    def none(cls) -> "View":
        """The empty view: aggregation over all dimensions (one row)."""
        return cls(())

    @property
    def attrs(self) -> frozenset:
        """The set of group-by attributes."""
        return self._attrs

    @property
    def key(self) -> tuple:
        """Attributes as a canonical sorted tuple (stable across runs)."""
        return self._key

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._key)

    def __contains__(self, attr: str) -> bool:
        return attr in self._attrs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self._attrs == other._attrs

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "View") -> bool:
        """Computability order: ``self <= other`` iff ``self`` can be
        computed from ``other``, i.e. ``attrs(self) ⊆ attrs(other)``.

        This matches the intuitive reading "self is below other in
        Figure 1".  (The paper writes the same order with the opposite
        symbol: its ``V1 ⪯ V2`` holds iff ``attrs(V1) ⊇ attrs(V2)``.)
        """
        if not isinstance(other, View):
            return NotImplemented
        return self._attrs <= other._attrs

    def __lt__(self, other: "View") -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self._attrs < other._attrs

    def __ge__(self, other: "View") -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self._attrs >= other._attrs

    def __gt__(self, other: "View") -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self._attrs > other._attrs

    def can_compute(self, other: "View") -> bool:
        """True if ``other`` is computable from ``self`` (attrs ⊇)."""
        return self._attrs >= other._attrs

    def union(self, other: "View") -> "View":
        """Least view able to compute both ``self`` and ``other``."""
        return View(self._attrs | other._attrs)

    def intersection(self, other: "View") -> "View":
        """Greatest view computable from both ``self`` and ``other``."""
        return View(self._attrs & other._attrs)

    def __str__(self) -> str:
        return join_attrs(self._key) if self._attrs else "none"

    def __repr__(self) -> str:
        return f"View({str(self)})"


def label_attrs(text: str, schema_names: Collection[str]) -> Tuple[str, ...]:
    """The attributes a label lists, in order, read against the cube's
    attribute names: a label that is one of ``schema_names`` is that one
    attribute (``"week"``); otherwise commas separate attributes
    (``"part,customer"``), and without commas each character is one
    (``"ps"``), the way :func:`join_attrs` writes them.  Raises
    ``ValueError`` for an attribute outside ``schema_names``.

    >>> label_attrs("sp", "psc")
    ('s', 'p')
    >>> label_attrs("week", ["store", "week"])
    ('week',)
    """
    names = tuple(schema_names)
    text = text.strip()
    if text in names:
        attrs: Tuple[str, ...] = (text,)
    elif "," in text:
        attrs = tuple(part.strip() for part in text.split(","))
    else:
        attrs = tuple(text)
    unknown = [attr for attr in attrs if attr not in names]
    if unknown:
        raise ValueError(
            f"label {text!r} names unknown dimensions {unknown} "
            f"(have {', '.join(names)})"
        )
    return attrs


def parse_view(text: str, schema_names: Collection[str]) -> View:
    """Parse a view label (:meth:`~repro.core.lattice.CubeLattice.label`)
    against the cube's attribute names.

    ``"none"`` or ``""`` is the empty view; anything else lists its
    attributes as :func:`label_attrs` reads them, so ``"ps"`` is
    ``{p, s}``, ``"part,customer"`` is ``{part, customer}`` and
    ``"week"`` is ``{week}`` on a cube with a ``week`` dimension.

    >>> parse_view("ps", "psc") == View.of("p", "s")
    True
    >>> parse_view("week", ["store", "week"]) == View.of("week")
    True
    >>> parse_view("none", "psc") == View.none()
    True
    """
    text = text.strip()
    if text in ("", "none", "()"):
        return View.none()
    return View(label_attrs(text, schema_names))
