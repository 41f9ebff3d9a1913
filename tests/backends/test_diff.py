"""The ``python -m repro.backends.diff`` harness itself."""

import json

import numpy as np

from repro.backends.diff import main, random_fact, random_schema, run_diff


class TestRandomInputs:
    def test_random_schema_shape(self):
        rng = np.random.default_rng(0)
        schema = random_schema(4, rng)
        assert schema.names == ("a", "b", "c", "d")
        assert all(2 <= schema.cardinality(n) <= 7 for n in schema.names)

    def test_random_fact_is_sparse_and_integral(self):
        rng = np.random.default_rng(0)
        schema = random_schema(4, rng)
        fact = random_fact(schema, rng, density=0.5)
        assert fact.n_rows == max(1, int(0.5 * schema.dense_cells))
        assert np.all(fact.measures == np.floor(fact.measures))


class TestRunDiff:
    def test_zero_mismatches_and_reload(self):
        report = run_diff(dims=(3,), queries=60, seed=1)
        total = report["total"]
        assert total["mismatches"] == 0
        assert report["reload_failures"] == 0
        run = report["runs"][0]
        assert run["mirror_reloaded_after_delta"] is True
        assert run["deltas"] == 2  # the second merges into merged tables
        assert total["queries"] == total["prefix"] + total["scan"] + total["raw"]
        assert total["raw"] > 0  # forced raw legs exercised the fallback

    def test_deterministic_for_a_seed(self):
        def stripped(report):
            for run in report["runs"]:
                run.pop("seconds")
            return report

        first = stripped(run_diff(dims=(3,), queries=30, seed=5))
        second = stripped(run_diff(dims=(3,), queries=30, seed=5))
        assert first == second

    def test_different_seeds_differ(self):
        one = run_diff(dims=(3,), queries=30, seed=1)
        two = run_diff(dims=(3,), queries=30, seed=2)
        assert (
            one["runs"][0]["cardinalities"] != two["runs"][0]["cardinalities"]
            or one["runs"][0]["fact_rows"] != two["runs"][0]["fact_rows"]
            or one["runs"][0]["selection"] != two["runs"][0]["selection"]
        )


class TestMain:
    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        out = tmp_path / "diff.json"
        rc = main(
            ["--dims", "3", "--queries", "40", "--seed", "3", "--output", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "d=3:" in printed
        assert "total:" in printed and "0 mismatches" in printed
        report = json.loads(out.read_text())
        assert report["dims"] == [3]
        assert report["total"]["mismatches"] == 0
