"""Every ``TRACE_POINTS`` target of the end-to-end benchmark resolves.

``olapbench/workloads.py`` lists the public names its ``--trace 1`` pass
wraps, as ``"module:attr"`` or ``"module:Class.attr"`` strings, and
``olapbench/tracing.py``'s ``Tracer.patch`` resolves them when the
tracer is installed, so a renamed name would only fail there.  This
reads the table from the file's source, without importing or running
the benchmark, and resolves each target the way ``Tracer.patch`` does.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "olapbench" / "workloads.py"


def trace_targets():
    """The target strings of the ``TRACE_POINTS`` table, in order."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACE_POINTS"
            for target in node.targets
        ):
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"no TRACE_POINTS table in {WORKLOADS}")


TARGETS = trace_targets()


def resolve(target: str):
    """What ``Tracer.patch`` would wrap: a class attribute is read from
    the class's own namespace, so an inherited name does not resolve."""
    module_path, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_table_lists_the_compile():
    assert "repro.core.qvgraph:QueryViewGraph.from_cube" in TARGETS
    assert "repro.core.qvgraph:QueryViewGraph.from_mined" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    raw = resolve(target)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw)


@pytest.mark.parametrize("name", ["from_cube", "from_mined"])
def test_graph_builders_are_classmethods(name):
    """The tracer re-wraps a classmethod as a classmethod; a plain
    function in its place would lose the class argument."""
    assert isinstance(resolve(f"repro.core.qvgraph:QueryViewGraph.{name}"), classmethod)
