"""Run the doctest examples embedded in the library's docstrings.

Docstrings are documentation; these checks keep every ``>>>`` example
executable so the docs cannot rot.
"""

import doctest

import pytest

import repro.core.costmodel
import repro.core.hierarchy
import repro.core.index
import repro.core.lattice
import repro.core.query
import repro.core.view
import repro.cube.generator
import repro.cube.schema
import repro.engine.catalog
import repro.estimation.correlated
import repro.estimation.sampling
import repro.estimation.sizes
import repro.sql

MODULES = [
    repro.core.view,
    repro.core.lattice,
    repro.core.query,
    repro.core.index,
    repro.core.costmodel,
    repro.core.hierarchy,
    repro.cube.schema,
    repro.cube.generator,
    repro.engine.catalog,
    repro.estimation.sizes,
    repro.estimation.sampling,
    repro.estimation.correlated,
    repro.sql,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


def test_doctests_actually_cover_examples():
    """At least a handful of modules carry executable examples."""
    total = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert total >= 15
