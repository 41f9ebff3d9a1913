"""The chaos harness run small: every scenario green at d=3.

The harness is its own verifier (zero wrong answers, exact fault
accounting per scenario); this suite pins that it stays green on the
cheap fixture and that its report/CLI contract holds.
"""

import json

import numpy as np
import pytest

from repro.serve.chaos import (
    SCENARIOS,
    build_context,
    integer_measure_fact,
    main,
    run_matrix,
)


@pytest.fixture(scope="module")
def reports():
    return run_matrix(dims=3, queries=120, replicas=2, seed=0)


class TestScenarios:
    def test_all_scenarios_pass(self, reports):
        assert [r.scenario for r in reports] == list(SCENARIOS)
        for report in reports:
            assert report.ok, f"{report.scenario}: {report.detail}"

    def test_zero_wrong_answers_everywhere(self, reports):
        assert all(r.wrong_answers == 0 for r in reports)

    def test_every_fault_accounted(self, reports):
        for report in reports:
            assert report.injected > 0, report.scenario
            assert report.accounted == report.injected, (
                f"{report.scenario}: {report.injected} injected vs "
                f"{report.accounted} accounted"
            )

    def test_report_serializes(self, reports):
        for report in reports:
            document = report.to_json()
            json.dumps(document)  # no unserializable leftovers
            assert document["scenario"] == report.scenario
            assert document["ok"] is True


class TestFixture:
    def test_integer_measures_are_integral(self):
        fact = integer_measure_fact(3)
        assert np.array_equal(fact.measures, np.rint(fact.measures))

    def test_golden_answers_deterministic(self):
        a = build_context(3, 60, seed=0)
        b = build_context(3, 60, seed=0)
        assert a.golden == b.golden
        assert a.selection == b.selection


class TestCli:
    def test_single_scenario_and_json_report(self, tmp_path):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "--dims",
                "3",
                "--queries",
                "80",
                "--scenario",
                "structure_poison",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["failures"] == 0
        assert [s["scenario"] for s in document["scenarios"]] == [
            "structure_poison"
        ]
        assert document["scenarios"][0]["wrong_answers"] == 0
