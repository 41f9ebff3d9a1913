"""API-contract tests: the public surface is importable and documented.

Every name in every package's ``__all__`` must resolve, and every public
callable/class must carry a docstring — the deliverable is a library, and
an undocumented export is a regression.
"""

import importlib
import inspect
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.algorithms",
    "repro.estimation",
    "repro.cube",
    "repro.engine",
    "repro.datasets",
    "repro.experiments",
    "repro.serve",
]

MODULES_WITHOUT_ALL = [
    "repro.analysis",
    "repro.sql",
    "repro.io",
    "repro.cli",
    "repro.core.hierarchy",
    "repro.core.lattice_draw",
    "repro.engine.navigate",
    "repro.engine.storage",
    "repro.engine.pipeline",
    "repro.engine.maintenance",
    "repro.cube.query_log",
    "repro.datasets.adversarial",
    "repro.datasets.tpcd_hierarchical",
    "repro.algorithms.local_search",
    "repro.algorithms.maintenance_aware",
    "repro.algorithms.pbs",
    "repro.serve.adaptive",
    "repro.serve.drift",
    "repro.serve.recorder",
    "repro.serve.server",
    "repro.serve.structures",
    "repro.serve.telemetry",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} listed but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_documented(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{package}.{name} has no docstring"


@pytest.mark.parametrize("module_name", PACKAGES + MODULES_WITHOUT_ALL)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} has no module docstring"
    )


@pytest.mark.parametrize("module_name", MODULES_WITHOUT_ALL)
def test_public_members_documented(module_name):
    """Every public top-level class/function defined in the module itself
    carries a docstring."""
    module = importlib.import_module(module_name)
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export
        assert inspect.getdoc(obj), f"{module_name}.{name} has no docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_no_private_leaks_in_all():
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert not name.startswith("_") or name == "__version__", (
                f"{package} exports private name {name}"
            )


def test_import_path_loads_no_scipy():
    """scipy is optional: the package, serving, mining and the CLI import
    without loading it (only ``repro.backends.validate``'s Spearman
    imports it, when called)."""
    program = (
        "import sys\n"
        "import repro, repro.serve, repro.mining, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
