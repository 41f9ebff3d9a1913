"""Shared fixtures for the SQLite backend differential suite.

Dense TPC-D serving facts with *integral* measures: dense so the linear
cost model is exact (predicted rows == rows behind any plan), integral
so group sums are order-invariant and the engine-vs-SQLite comparison
can demand byte identity instead of a float tolerance.
"""

from __future__ import annotations

import pytest

from repro.algorithms import serving_advise
from repro.backends import SqliteBackend
from repro.core.costmodel import LinearCostModel
from repro.datasets.tpcd import tpcd_serving_fact
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.pipeline import materialize_selection
from repro.serve.structures import resolve_selection


class Bundle:
    """One mirrored serving setup: fact, model, catalog, both engines."""

    def __init__(self, n_dims: int):
        self.fact = tpcd_serving_fact(n_dims, integral_measures=True)
        self.model = LinearCostModel.from_fact(self.fact)
        self.selection = tuple(serving_advise(self.model).selected)
        views, indexes = resolve_selection(self.selection, self.fact.schema.names)
        self.catalog = Catalog(self.fact)
        materialize_selection(self.catalog, views, indexes)
        self.executor = Executor(self.catalog, self.model)
        self.backend = SqliteBackend(self.catalog, cost_model=self.model)


def build_bundle(n_dims: int) -> Bundle:
    """A fresh (mutable) bundle — use for delta/reload tests."""
    return Bundle(n_dims)


@pytest.fixture(scope="session")
def dense3():
    return Bundle(3)


@pytest.fixture(scope="session")
def dense4():
    return Bundle(4)


@pytest.fixture(scope="session")
def dense5():
    return Bundle(5)


@pytest.fixture
def bundle(request, dense3, dense4, dense5):
    """Indirect fixture: parametrize with dims 3/4/5."""
    return {3: dense3, 4: dense4, 5: dense5}[request.param]
