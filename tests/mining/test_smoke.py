"""The pruned-advise smoke (``python -m repro.mining.smoke``) at d=3."""

import json

import pytest

from repro.cube.query_log import generate_query_log
from repro.datasets.tpcd import tpcd_serving_schema
from repro.io import save_query_log
from repro.mining.smoke import main, run_smoke

CHECKS = {"ideal_is_floor": True, "bound_holds": True}


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mining-smoke") / "observed.jsonl"
    save_query_log(generate_query_log(tpcd_serving_schema(3), 120, rng=0), path)
    return str(path)


def test_run_smoke_passes_both_checks(log_path):
    smoke = run_smoke(3, log_path)["smoke"]
    assert smoke["checks"] == CHECKS
    assert smoke["ok"]
    assert smoke["tau_full"] <= smoke["tau_pruned"]
    assert smoke["tau_gap"] <= smoke["forgone_bound"] + 1e-6


def test_main_exits_zero_and_writes_the_report(log_path, tmp_path, capsys):
    out = tmp_path / "mined-report.json"
    assert main(["--dims", "3", "--log", log_path, "--output", str(out)]) == 0
    assert "pruned-advise smoke ok" in capsys.readouterr().out
    smoke = json.loads(out.read_text())["smoke"]
    assert smoke["checks"] == CHECKS
    for key in ("tau_pruned", "tau_full", "forgone_bound"):
        assert isinstance(smoke[key], float), key
