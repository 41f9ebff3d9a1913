"""The :class:`~repro.engine.table.Answer` contract.

An answer holds its groups' key columns and float64 sums, rows in key
order, and reads as the ``Mapping[tuple, float]`` the engine's former
dict answers were: the same items in the same order with the same
``float.hex``, lookups by key tuple, ``KeyError`` for anything absent,
and ``==``/``!=`` that agree with dict comparison.  Reading one stores
nothing in it.
"""

import numpy as np
import pytest

from repro.cube.schema import CubeSchema, Dimension
from repro.engine import Answer
from repro.engine.executor import _grouped_sums
from repro.engine.table import FactTable

from tests.engine.test_executor_reference import exact_items, reference_grouped_sums
from tests.engine.test_grouping import path

#: ``(radices, rows)`` per case; keys repeat, so groups hold several rows.
CASES = {
    "counted": ((6, 5, 4), 200),
    "counted-lone": ((9,), 40),
    "sorted": ((100, 90, 80), 150),
    "lexsort": ((2**40, 2**40), 120),
    "empty key": ((), 50),
    "zero rows": ((6, 5), 0),
}


def case(name):
    """``(answer, the former kernel's dict, key columns, radices)`` of
    seeded random columns summed by ``_grouped_sums``."""
    dims, n_rows = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    cards = dims or (3,)  # the empty key groups a one-column table
    names = "abc"[: len(cards)]
    pool = max(1, n_rows // 3)
    picks = rng.integers(0, pool, size=n_rows)
    values = rng.standard_normal(n_rows) * 100.0
    fact = FactTable(
        CubeSchema([Dimension(a, card) for a, card in zip(names, cards)]),
        {a: rng.integers(0, card, size=pool)[picks] for a, card in zip(names, cards)},
        values,
    )
    attrs = tuple(names[: len(dims)])
    key_columns = [fact.column(a) for a in attrs]
    answer = _grouped_sums(fact, attrs, key_columns, values)
    radices = tuple(fact.radix[a] for a in attrs)
    return answer, reference_grouped_sums(key_columns, values), key_columns, radices


def absent_keys(expected, arity, dims):
    """Keys of the right arity that the answer does not hold: held keys
    with their last attribute moved, and the key past every radix."""
    if not arity:
        return [] if expected else [()]
    moved = [key[:-1] + (key[-1] + step,) for key in expected for step in (-1, 1)]
    return [key for key in moved if key not in expected][:50] + [tuple(dims)]


def test_cases_reach_every_path():
    paths = {path(key_columns, dims) for __, __, key_columns, dims in map(case, CASES)}
    assert paths == {"counted", "sorted", "lexsort", "empty key"}
    assert len(case("zero rows")[0]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
class TestReadsAsTheFormerDict:
    def test_items_and_order(self, name):
        answer, expected, __, __ = case(name)
        assert isinstance(answer, Answer)
        assert exact_items(answer) == exact_items(expected)
        assert list(answer) == list(expected) == list(answer.keys())
        assert [v.hex() for v in answer.values()] == [v.hex() for v in expected.values()]
        assert all(type(k) is tuple and all(type(x) is int for x in k) for k in answer)
        assert len(answer) == len(expected) == len(answer.items()) == len(answer.values())
        assert exact_items(dict(answer)) == exact_items(expected)
        assert dict(answer) == expected

    def test_lookup(self, name):
        answer, expected, key_columns, dims = case(name)
        for key, value in expected.items():
            got = answer[key]
            assert type(got) is float and got.hex() == value.hex()
            assert key in answer and (key, value) in answer.items()
            assert answer.get(key) == value
        for key in absent_keys(expected, len(key_columns), dims):
            assert key not in expected and key not in answer
            with pytest.raises(KeyError):
                answer[key]
            assert answer.get(key, "missing") == "missing"
        held = next(iter(expected), (0,) * len(key_columns))
        for wrong in (held + (0,), held[:-1] if held else (0,), list(held), None, "ab", 3):
            with pytest.raises(KeyError):
                answer[wrong]
            assert wrong not in answer

    def test_reading_stores_nothing(self, name):
        answer, expected, __, __ = case(name)
        assert not hasattr(answer, "__dict__")
        columns, sums = answer.columns, answer.sums
        arrays = [*columns, sums]
        for __ in range(2):
            assert dict(answer.items()) == expected
            list(answer)
            for key in expected:
                answer[key]
        assert answer.columns is columns and answer.sums is sums
        assert all(a is b for a, b in zip([*answer.columns, answer.sums], arrays))


def from_dict(groups, arity):
    """An :class:`Answer` of a dict whose keys have ``arity`` attributes."""
    keys = sorted(groups)
    columns = [np.array([key[i] for key in keys], dtype=np.int64) for i in range(arity)]
    return Answer(columns, [groups[key] for key in keys])


#: ``(left, right, arity of each)``: pairs compared as Answers and dicts.
PAIRS = {
    "signed zero": ({(1, 2): 0.0, (3, 0): 4.5}, {(1, 2): -0.0, (3, 0): 4.5}, 2, 2),
    "equal": ({(1, 2): 1.25, (3, 0): 4.5}, {(1, 2): 1.25, (3, 0): 4.5}, 2, 2),
    "changed sum": ({(1, 2): 1.25, (3, 0): 4.5}, {(1, 2): 1.25, (3, 0): 4.0}, 2, 2),
    "extra key": ({(1, 2): 1.25}, {(1, 2): 1.25, (3, 0): 4.5}, 2, 2),
    "other key": ({(1, 2): 1.25}, {(1, 3): 1.25}, 2, 2),
    "ungrouped vs one attribute": ({(): 5.0}, {(0,): 5.0}, 0, 1),
    "empty vs empty": ({}, {}, 2, 0),
    "nan": ({(1,): float("nan")}, {(1,): float("nan")}, 1, 1),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_equality_agrees_with_dicts(name):
    left, right, left_arity, right_arity = PAIRS[name]
    equal = dict(left) == dict(right)  # two distinct dicts
    a, b = from_dict(left, left_arity), from_dict(right, right_arity)
    assert (a == b) is equal and (a != b) is (not equal)
    assert (b == a) is equal and (b != a) is (not equal)
    assert (a == right) is equal and (right == a) is equal
    assert (a != right) is (not equal) and (right != a) is (not equal)


def test_empty_and_ungrouped():
    empty = Answer()
    assert len(empty) == 0 and not empty and dict(empty) == {} and empty == {}
    assert () not in empty
    total = Answer((), [7.5])
    assert list(total.items()) == [((), 7.5)] and total[()] == 7.5
    assert total != {} and total == {(): 7.5}


def test_immutable_and_unhashable():
    answer = from_dict({(1, 2): 1.0, (2, 0): 2.0}, 2)
    with pytest.raises(AttributeError):
        answer.sums = np.zeros(2)
    with pytest.raises(ValueError):
        answer.sums[0] = 3.0
    with pytest.raises(ValueError):
        answer.columns[0][0] = 5
    with pytest.raises(TypeError):
        hash(answer)
    assert answer.sums.dtype == np.float64
