"""Tests for the command-line advisor."""

import json

import pytest

from repro.cli import main
from repro.io import save_lattice


@pytest.fixture
def cube_file(tmp_path, tpcd_lat):
    path = tmp_path / "cube.json"
    save_lattice(tpcd_lat, path)
    return str(path)


@pytest.fixture
def analytical_cube_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps({"dimensions": {"a": 20, "b": 12}, "raw_rows": 100})
    )
    return str(path)


class TestAdvise:
    def test_basic_run(self, cube_file, capsys):
        rc = main(["advise", "--lattice", cube_file, "--space", "25e6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "average query cost" in out
        assert "psc" in out

    def test_writes_output_json(self, cube_file, tmp_path, capsys):
        out_file = tmp_path / "selection.json"
        rc = main(
            [
                "advise",
                "--lattice",
                cube_file,
                "--space",
                "25e6",
                "--algorithm",
                "1greedy",
                "--fit",
                "paper",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["algorithm"] == "1-greedy"
        assert doc["selected"][0] == "psc"
        assert doc["average_query_cost"] < 0.75e6

    def test_budget_smaller_than_top_view_errors(self, cube_file, capsys):
        rc = main(["advise", "--lattice", cube_file, "--space", "1000"])
        assert rc == 2
        assert "top view" in capsys.readouterr().err

    def test_no_seed_top_allows_small_budget(self, cube_file, capsys):
        rc = main(
            [
                "advise",
                "--lattice",
                cube_file,
                "--space",
                "1.5e6",
                "--no-seed-top",
            ]
        )
        assert rc == 0

    def test_analytical_lattice_input(self, analytical_cube_file, capsys):
        rc = main(
            ["advise", "--lattice", analytical_cube_file, "--space", "300"]
        )
        assert rc == 0
        assert "average query cost" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["2greedy", "inner", "two-step", "hru"])
    def test_every_algorithm_runs(self, analytical_cube_file, algo, capsys):
        rc = main(
            [
                "advise",
                "--lattice",
                analytical_cube_file,
                "--space",
                "400",
                "--algorithm",
                algo,
            ]
        )
        assert rc == 0

    def test_index_universe_none(self, analytical_cube_file, capsys):
        rc = main(
            [
                "advise",
                "--lattice",
                analytical_cube_file,
                "--space",
                "400",
                "--index-universe",
                "none",
            ]
        )
        assert rc == 0
        assert "I_" not in capsys.readouterr().out


class TestExplain:
    def test_explain_round_trip(self, cube_file, tmp_path, capsys):
        sel_file = tmp_path / "sel.json"
        assert (
            main(
                [
                    "advise",
                    "--lattice",
                    cube_file,
                    "--space",
                    "25e6",
                    "--output",
                    str(sel_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            ["explain", "--lattice", cube_file, "--selection", str(sel_file)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "structure contributions" in out
        assert "coverage" in out

    def test_explain_bad_selection_document(self, cube_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["explain", "--lattice", cube_file, "--selection", str(bad)])
        assert rc == 2
        assert "selected" in capsys.readouterr().err


class TestOtherCommands:
    def test_tpcd_demo(self, capsys):
        rc = main(["tpcd"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "improvement" in out

    def test_experiments_subset(self, capsys):
        rc = main(["experiments", "figure3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "knee" in out

    def test_experiments_unknown_name(self, capsys):
        rc = main(["experiments", "bogus"])
        assert rc == 2

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestHierarchicalDocuments:
    @pytest.fixture
    def hier_file(self, tmp_path):
        path = tmp_path / "hier.json"
        path.write_text(
            json.dumps(
                {
                    "hierarchies": {
                        "time": [["day", 100], ["month", 10]],
                        "p": [["p", 30]],
                    },
                    "raw_rows": 2000,
                    "max_fat_indexes_per_view": 2,
                }
            )
        )
        return str(path)

    def test_advise_on_hierarchical_cube(self, hier_file, capsys):
        rc = main(["advise", "--lattice", hier_file, "--space", "4000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "day,p" in out  # the top view label

    def test_explain_on_hierarchical_cube(self, hier_file, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        assert (
            main(
                [
                    "advise", "--lattice", hier_file, "--space", "4000",
                    "--output", str(sel),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(["explain", "--lattice", hier_file, "--selection", str(sel)])
        assert rc == 0
        assert "coverage" in capsys.readouterr().out


class TestHierarchicalDocumentParsing:
    def test_missing_hierarchies_rejected(self):
        from repro.io import hierarchical_cube_from_dict

        with pytest.raises(ValueError, match="hierarchies"):
            hierarchical_cube_from_dict({"raw_rows": 10})

    def test_missing_raw_rows_rejected(self):
        from repro.io import hierarchical_cube_from_dict

        with pytest.raises(ValueError, match="raw_rows"):
            hierarchical_cube_from_dict({"hierarchies": {"a": [["a", 5]]}})

    def test_empty_levels_rejected(self):
        from repro.io import hierarchical_cube_from_dict

        with pytest.raises(ValueError, match="levels"):
            hierarchical_cube_from_dict(
                {"hierarchies": {"a": []}, "raw_rows": 10}
            )

    def test_round_trip_structure(self):
        from repro.io import hierarchical_cube_from_dict, is_hierarchical_document

        doc = {
            "hierarchies": {"t": [["day", 50], ["month", 5]]},
            "raw_rows": 100,
        }
        assert is_hierarchical_document(doc)
        cube = hierarchical_cube_from_dict(doc)
        assert cube.n_views() == 3


class TestErrorHandling:
    def test_missing_lattice_file_exits_2(self, capsys):
        rc = main(["advise", "--lattice", "/no/such/cube.json", "--space", "1e6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        rc = main(["advise", "--lattice", str(path), "--space", "1e6"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_raw_rows_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dimensions": {"a": 4, "b": 6}, "raw_rows": NaN}')
        rc = main(["advise", "--lattice", str(path), "--space", "1e6"])
        assert rc == 2
        assert "raw_rows" in capsys.readouterr().err

    def test_traceback_flag_reraises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        with pytest.raises(ValueError):
            main(
                ["--traceback", "advise", "--lattice", str(path),
                 "--space", "1e6"]
            )


class TestRuntimeFlags:
    def test_deadline_zero_exits_3_with_partial(
        self, cube_file, tmp_path, capsys
    ):
        out_file = tmp_path / "partial.json"
        rc = main(
            ["advise", "--lattice", cube_file, "--space", "25e6",
             "--deadline", "0", "--output", str(out_file)]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "stopped early" in captured.err
        doc = json.loads(out_file.read_text())
        assert doc["interrupted"] is True
        assert doc["stop_reason"] == "budget-exceeded"
        assert doc["selected"] == ["psc"]  # the seed stage completed

    @pytest.mark.parametrize("flag", ["--deadline", "--memory-limit-mb"])
    def test_nan_budget_is_bad_input(self, cube_file, flag, capsys):
        rc = main(
            ["advise", "--lattice", cube_file, "--space", "25e6", flag, "nan"]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_infinite_deadline_completes(self, cube_file, capsys):
        rc = main(
            ["advise", "--lattice", cube_file, "--space", "25e6",
             "--deadline", "inf"]
        )
        assert rc == 0

    def test_checkpoint_resume_round_trip(self, cube_file, tmp_path, capsys):
        full_file = tmp_path / "full.json"
        assert (
            main(
                ["advise", "--lattice", cube_file, "--space", "25e6",
                 "--output", str(full_file)]
            )
            == 0
        )
        ckpt = tmp_path / "run.ckpt"
        rc = main(
            ["advise", "--lattice", cube_file, "--space", "25e6",
             "--deadline", "0", "--checkpoint", str(ckpt)]
        )
        assert rc == 3
        assert "repro resume" in capsys.readouterr().err
        document = json.loads(ckpt.read_text())
        resumed_file = tmp_path / "resumed.json"
        rc = main(
            ["resume", "--lattice", cube_file, "--checkpoint", str(ckpt),
             "--output", str(resumed_file)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming" in out
        full = json.loads(full_file.read_text())
        resumed = json.loads(resumed_file.read_text())
        assert resumed["selected"] == full["selected"]
        assert resumed["benefit"] == full["benefit"]
        assert resumed["interrupted"] is False

        # checkpoints written while the algorithms took lazy= carry
        # params.lazy; they finish to the same selection, benefit and τ
        assert document["stage_counter"] == 1
        for lazy in (None, True, False):
            document["algorithm"]["params"]["lazy"] = lazy
            ckpt.write_text(json.dumps(document))
            assert main(
                ["resume", "--lattice", cube_file, "--checkpoint", str(ckpt),
                 "--output", str(resumed_file)]
            ) == 0
            resumed = json.loads(resumed_file.read_text())
            for key in ("selected", "benefit", "tau"):
                assert resumed[key] == full[key], (lazy, key)
        capsys.readouterr()

    def test_resume_wrong_index_universe_exits_2(
        self, cube_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        assert (
            main(
                ["advise", "--lattice", cube_file, "--space", "25e6",
                 "--deadline", "0", "--checkpoint", str(ckpt)]
            )
            == 3
        )
        capsys.readouterr()
        rc = main(
            ["resume", "--lattice", cube_file, "--checkpoint", str(ckpt),
             "--index-universe", "none"]
        )
        assert rc == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_checkpoint_without_deadline_still_completes(
        self, cube_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        rc = main(
            ["advise", "--lattice", cube_file, "--space", "25e6",
             "--checkpoint", str(ckpt)]
        )
        assert rc == 0
        from repro.runtime import load_checkpoint

        assert load_checkpoint(ckpt).stage_counter >= 1


class TestServeAndReplay:
    def test_serve_writes_telemetry_and_log(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.json"
        log = tmp_path / "observed.jsonl"
        rc = main(
            ["serve", "--dims", "3", "--queries", "40",
             "--record", str(log), "--telemetry", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 raw-cube fallbacks" in out
        from repro.serve import validate_telemetry

        doc = json.loads(telemetry.read_text())
        validate_telemetry(doc)
        assert doc["queries"] == 40
        assert doc["fallbacks"] == 0
        assert doc["cost"]["exact_matches"] == 40
        assert len(log.read_text().splitlines()) == 40

    def test_replay_missing_log_is_input_error(self, tmp_path, capsys):
        rc = main(
            ["replay", "--dims", "3", "--log", str(tmp_path / "missing.jsonl")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_invalid_record_is_input_error(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"groupby": ["p"], "selection": ["zz"], "values": {"zz": 1}}\n'
        )
        rc = main(["replay", "--dims", "3", "--log", str(log)])
        assert rc == 2
        assert "zz" in capsys.readouterr().err

    def test_replay_empty_log_is_bad_input(self, tmp_path, capsys):
        """An empty log exits 2 with one ``error:`` line on the
        single-server and the fleet path, as ``repro partition`` and both
        smokes do on the same file."""
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        for fleet in ([], ["--replicas", "3", "--divergent"]):
            rc = main(["replay", "--dims", "3", "--log", str(log), *fleet])
            assert rc == 2, fleet
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error: {log}: query log is empty, nothing to replay"
            ], fleet
            assert "replaying" not in captured.out, fleet

    def test_serve_with_saved_selection(self, tmp_path, capsys):
        """A selection advised on the matching lattice document serves
        without fallbacks."""
        from repro.core.costmodel import LinearCostModel
        from repro.datasets.tpcd import tpcd_serving_fact
        from repro.io import save_lattice

        lattice = LinearCostModel.from_fact(tpcd_serving_fact(3)).lattice
        cube = tmp_path / "cube3.json"
        save_lattice(lattice, cube)
        selection = tmp_path / "selection.json"
        assert (
            main(["advise", "--lattice", str(cube), "--space",
                  str(3 * lattice.size(lattice.top)), "--algorithm",
                  "1greedy", "--output", str(selection)])
            == 0
        )
        capsys.readouterr()
        rc = main(
            ["serve", "--dims", "3", "--queries", "25",
             "--selection", str(selection), "--fail-on-fallback"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 raw-cube fallbacks" in out

    def test_serve_batched_with_cache(self, tmp_path, capsys):
        """--cache-mb/--batch-size drive the batched path; telemetry
        validates with exact cost accounting."""
        telemetry = tmp_path / "telemetry.json"
        rc = main(
            ["serve", "--dims", "3", "--queries", "60",
             "--cache-mb", "4", "--batch-size", "16",
             "--telemetry", str(telemetry), "--fail-on-fallback"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch 16)" in out
        assert "result cache:" in out
        from repro.serve import validate_telemetry

        doc = validate_telemetry(json.loads(telemetry.read_text()))
        assert doc["queries"] == 60
        assert doc["fallbacks"] == 0
        assert doc["cost"]["exact_matches"] == 60
        assert doc["merged_from"] == 1
        assert doc["cache"]["enabled"] is True
        assert doc["cache"]["hits"] + doc["cache"]["misses"] == 60

    def test_replay_with_cache_matches_uncached(self, tmp_path, capsys):
        """Same log, cache on vs off: identical rows-scanned accounting."""
        log = tmp_path / "observed.jsonl"
        assert (
            main(["serve", "--dims", "3", "--queries", "50",
                  "--record", str(log)])
            == 0
        )
        plain = tmp_path / "plain.json"
        cached = tmp_path / "cached.json"
        assert (
            main(["replay", "--dims", "3", "--log", str(log),
                  "--telemetry", str(plain)])
            == 0
        )
        assert (
            main(["replay", "--dims", "3", "--log", str(log),
                  "--cache-mb", "4", "--telemetry", str(cached)])
            == 0
        )
        capsys.readouterr()
        a = json.loads(plain.read_text())
        b = json.loads(cached.read_text())
        assert a["cost"]["actual_rows"] == b["cost"]["actual_rows"]
        assert a["cost"]["predicted_rows"] == b["cost"]["predicted_rows"]
        assert a["hits"] == b["hits"]
        assert not a["cache"]["enabled"]
        assert b["cache"]["enabled"]

    def test_adaptive_replay_swaps_selection(self, tmp_path, capsys):
        """A drift-injected log triggers a re-advise and a hot swap."""
        from repro.core.query import enumerate_slice_queries
        from repro.cube.query_log import generate_query_log
        from repro.datasets.tpcd import tpcd_serving_schema
        from repro.io import save_query_log

        schema = tpcd_serving_schema(3)
        patterns = list(enumerate_slice_queries(schema.names))
        hot = next(
            q for q in patterns
            if q.groupby == frozenset({"c"}) and q.selection == frozenset({"s"})
        )
        log = tmp_path / "drifted.jsonl"
        save_query_log(
            generate_query_log(
                schema, 120, rng=3, pattern_frequencies={hot: 1.0}
            ),
            log,
        )
        # start from the poorest always-answering selection (top view
        # only) so the drifted workload has room to win a swap
        selection = tmp_path / "top_only.json"
        selection.write_text(json.dumps({"selected": ["psc"]}))
        telemetry = tmp_path / "telemetry.json"
        rc = main(
            ["replay", "--dims", "3", "--log", str(log), "--adaptive",
             "--selection", str(selection), "--space", "360",
             "--drift-min-queries", "30", "--telemetry", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(telemetry.read_text())
        assert doc["swaps"] >= 1
        assert doc["meta"]["readvises"] >= 1
        assert doc["meta"]["generation"] >= 1


class TestServeFleet:
    def test_serve_through_replica_fleet(self, tmp_path, capsys):
        telemetry = tmp_path / "fleet.json"
        rc = main(
            ["serve", "--dims", "3", "--queries", "60", "--replicas", "2",
             "--retry-attempts", "3", "--telemetry", str(telemetry),
             "--fail-on-fallback"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "through 2 replicas" in out
        assert "0 failed typed" in out
        assert "2/2 replicas healthy" in out
        doc = json.loads(telemetry.read_text())
        assert doc["queries"] == 60
        assert doc["fallbacks"] == 0
        assert doc["fleet"]["replicas"] == 2
        assert doc["fleet"]["routed"] == 60
        assert doc["resilience"]["raw_rescues"] == 0

    def test_fleet_telemetry_reports_replica_caches(self, tmp_path, capsys):
        """With --cache-mb the fleet's telemetry carries its replicas'
        cache counters, summed, instead of a disabled cache."""
        from repro.serve import validate_telemetry

        telemetry = tmp_path / "fleet.json"
        rc = main(
            ["serve", "--dims", "3", "--queries", "60", "--replicas", "2",
             "--cache-mb", "4", "--telemetry", str(telemetry),
             "--fail-on-fallback"]
        )
        assert rc == 0
        doc = validate_telemetry(json.loads(telemetry.read_text()))
        assert doc["cache"]["enabled"] is True
        assert doc["cache"]["hits"] + doc["cache"]["misses"] == 60
        assert doc["queries"] == 60
        assert doc["merged_from"] == 3  # the fleet's own + 2 replicas

    def test_fleet_replay(self, tmp_path, capsys):
        log = tmp_path / "observed.jsonl"
        assert (
            main(["serve", "--dims", "3", "--queries", "30",
                  "--record", str(log)])
            == 0
        )
        capsys.readouterr()
        rc = main(
            ["replay", "--dims", "3", "--log", str(log), "--replicas", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 30/30" in out

    def test_fleet_rejects_single_server_features(self, tmp_path, capsys):
        rc = main(
            ["serve", "--dims", "3", "--queries", "10", "--replicas", "2",
             "--adaptive"]
        )
        assert rc == 2
        assert "single-server" in capsys.readouterr().err

    def test_replicas_help_matches_fleet_error(self, capsys):
        """The --replicas help documents the --adaptive/--record
        rejection in the same words the fleet path raises with."""
        phrase = (
            "the single-server features --adaptive and --record are "
            "rejected on the fleet path"
        )
        # argparse re-wraps help text at arbitrary points (including
        # inside hyphenated words), so compare whitespace-free
        squash = lambda text: "".join(text.split())  # noqa: E731
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert squash(phrase) in squash(capsys.readouterr().out)
        rc = main(
            ["serve", "--dims", "3", "--queries", "10", "--replicas", "2",
             "--record", "never-written.jsonl"]
        )
        assert rc == 2
        assert squash(phrase) in squash(capsys.readouterr().err)


class TestUnreadServingFlags:
    """A flag that nothing on the chosen serving path reads is an input
    error (one ``error:`` line, exit 2), not silently ignored."""

    SERVE = ["serve", "--dims", "3", "--queries", "10"]

    @pytest.mark.parametrize(
        "extra,flag",
        [
            (["--probe-interval", "0", "--query-deadline", "nan"], "--query-deadline"),
            (["--probe-interval", "0.01"], "--probe-interval"),
            (["--retry-attempts", "3"], "--retry-attempts"),
            (["--query-deadline", "2"], "--query-deadline"),
            (["--divergent"], "--divergent"),
        ],
    )
    def test_fleet_flags_need_replicas(self, extra, flag, capsys):
        assert main(self.SERVE + extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {flag} requires --replicas >= 2"]

    @pytest.mark.parametrize(
        "extra,flag",
        [
            (["--deadline", "nan"], "--deadline"),
            (["--deadline", "60"], "--deadline"),
            (["--margin", "0.1"], "--margin"),
            (["--checkpoint", "never-written.ckpt"], "--checkpoint"),
            (["--full-readvise"], "--full-readvise"),
        ],
    )
    @pytest.mark.parametrize("replicas", [[], ["--replicas", "2"]])
    def test_readvise_flags_need_adaptive(self, extra, flag, replicas, capsys):
        assert main(self.SERVE + replicas + extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
        assert "--adaptive" in err[0]

    @pytest.mark.parametrize(
        "extra", [["--drift-threshold", "0.3"], ["--drift-min-queries", "5"]]
    )
    def test_drift_flags_rejected_on_fleet(self, extra, capsys):
        assert main(self.SERVE + ["--replicas", "2"] + extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {extra[0]} ")
        assert "single server" in err[0]

    def test_replay_checks_the_same_flags(self, tmp_path, capsys):
        log = tmp_path / "observed.jsonl"
        assert main(self.SERVE + ["--record", str(log)]) == 0
        capsys.readouterr()
        rc = main(["replay", "--dims", "3", "--log", str(log), "--margin", "0.1"])
        assert rc == 2
        assert "requires --adaptive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--drift-threshold", "0.3", "--drift-min-queries", "5"],
            ["--adaptive", "--margin", "0.1", "--deadline", "inf"],
            ["--adaptive", "--full-readvise"],
            ["--replicas", "2", "--retry-attempts", "2", "--query-deadline", "5"],
        ],
    )
    def test_flags_read_on_their_path_still_serve(self, extra, capsys):
        assert main(self.SERVE + extra) == 0


class TestDivergentServing:
    def test_partition_command_writes_report(self, tmp_path, capsys):
        log = tmp_path / "observed.jsonl"
        assert (
            main(["serve", "--dims", "3", "--queries", "90",
                  "--record", str(log)])
            == 0
        )
        capsys.readouterr()
        report_path = tmp_path / "divergence.json"
        rc = main(
            ["partition", "--dims", "3", "--log", str(log),
             "--partitions", "3", "--output", str(report_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "into 3 slices" in out
        assert "predicted-cost ratio" in out
        doc = json.loads(report_path.read_text())
        assert doc["replicas"] == 3
        assert len(doc["selections"]) == 3
        assert doc["predicted_cost_ratio"] <= 1.0
        assert len(doc["partitions"]) == 3

    def test_partition_empty_log_rejected(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        rc = main(["partition", "--dims", "3", "--log", str(log)])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_divergent_serve_routes_by_cost(self, tmp_path, capsys):
        telemetry = tmp_path / "divergent.json"
        rc = main(
            ["serve", "--dims", "3", "--queries", "80", "--replicas", "3",
             "--divergent", "--telemetry", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 divergent replicas" in out
        assert "predicted-cost ratio" in out
        assert "predicted-cheapest replica" in out
        doc = json.loads(telemetry.read_text())
        assert doc["fleet"]["routed_dispatch"] is True
        assert doc["fleet"]["predicted_cost_ratio"] <= 1.0
        routed = sum(doc["fleet"]["routed_hits"].values()) + sum(
            doc["fleet"]["misroutes"].values()
        )
        assert routed == 80

    def test_divergent_requires_fleet(self, capsys):
        rc = main(["serve", "--dims", "3", "--queries", "10", "--divergent"])
        assert rc == 2
        assert "--replicas >= 2" in capsys.readouterr().err


@pytest.fixture
def mining_cube_file(tmp_path):
    path = tmp_path / "mcube.json"
    path.write_text(
        json.dumps(
            {"dimensions": {"a": 6, "b": 5, "c": 4}, "raw_rows": 500}
        )
    )
    return str(path)


@pytest.fixture
def mining_log_file(tmp_path):
    from repro.cube.query_log import generate_query_log
    from repro.cube.schema import CubeSchema, Dimension
    from repro.serve import WorkloadRecorder

    schema = CubeSchema(
        [Dimension("a", 6), Dimension("b", 5), Dimension("c", 4)]
    )
    path = tmp_path / "observed.jsonl"
    with WorkloadRecorder(path) as recorder:
        for entry in generate_query_log(schema, 150, rng=6):
            recorder.record(entry)
    return str(path)


class TestMine:
    def test_mine_reports_candidates_and_bound(
        self, mining_cube_file, mining_log_file, tmp_path, capsys
    ):
        report = tmp_path / "mined.json"
        rc = main(
            ["mine", "--lattice", mining_cube_file, "--log",
             mining_log_file, "--output", str(report)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "candidates kept" in out
        assert "pruning gap" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "repro-mining-report"
        assert doc["candidates"]["n_views"] >= 1
        assert doc["bound"]["ideal_tau"] <= doc["bound"]["kept_tau"]

    def test_mine_empty_log_exits_2(
        self, mining_cube_file, tmp_path, capsys
    ):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(
            ["mine", "--lattice", mining_cube_file, "--log", str(empty)]
        )
        assert rc == 2
        assert "nothing to mine" in capsys.readouterr().err

    def test_mine_nan_support_exits_2(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["mine", "--lattice", mining_cube_file, "--log",
             mining_log_file, "--support", "nan"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: support must be >= 0, got nan"

    def test_mine_malformed_log_names_file_and_line(
        self, mining_cube_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"groupby": ["a"], "selection": []}\nnot json\n')
        rc = main(
            ["mine", "--lattice", mining_cube_file, "--log", str(bad)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err


class TestPrunedAdvise:
    def test_prune_log_advises_and_reports_bound(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mined" in out
        assert "full universe" in out
        assert "pruning bound: forgone benefit" in out

    def test_benefit_bound_gate_fails_when_exceeded(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file, "--benefit-bound", "1e-12",
             "--support", "0.9", "--max-indexes-per-view", "0"]
        )
        assert rc == 2
        assert "exceeds --benefit-bound" in capsys.readouterr().err

    def test_benefit_bound_gate_passes_when_loose(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file, "--benefit-bound", "1.0"]
        )
        assert rc == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_benefit_bound_nan_or_negative_rejected_before_mining(
        self, mining_cube_file, mining_log_file, capsys, value
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file, "--benefit-bound", value]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing mined
        assert captured.err.strip() == (
            f"error: --benefit-bound must be >= 0, got {float(value):g}"
        )

    def test_mining_flags_require_prune_log(self, mining_cube_file, capsys):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--support", "0.1"]
        )
        assert rc == 2
        assert "require --prune-log" in capsys.readouterr().err

    def test_prune_log_rejects_index_universe_none(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file, "--index-universe", "none"]
        )
        assert rc == 2
        assert "fat" in capsys.readouterr().err

    def test_pruned_checkpoint_resume_round_trip(
        self, mining_cube_file, mining_log_file, tmp_path, capsys
    ):
        full_file = tmp_path / "full.json"
        assert (
            main(
                ["advise", "--lattice", mining_cube_file, "--space", "2000",
                 "--prune-log", mining_log_file, "--output", str(full_file)]
            )
            == 0
        )
        ckpt = tmp_path / "run.ckpt"
        assert (
            main(
                ["advise", "--lattice", mining_cube_file, "--space", "2000",
                 "--prune-log", mining_log_file, "--checkpoint", str(ckpt)]
            )
            == 0
        )
        from repro.runtime import load_checkpoint
        from repro.runtime.context import MINING_EXTRA_KEY

        record = load_checkpoint(ckpt).extra[MINING_EXTRA_KEY]
        assert record["log"] == mining_log_file
        assert len(record["fingerprint"]) == 64
        capsys.readouterr()
        resumed_file = tmp_path / "resumed.json"
        rc = main(
            ["resume", "--lattice", mining_cube_file, "--checkpoint",
             str(ckpt), "--output", str(resumed_file)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming" in out
        full = json.loads(full_file.read_text())
        resumed = json.loads(resumed_file.read_text())
        assert resumed["selected"] == full["selected"]
        assert resumed["benefit"] == full["benefit"]

    def test_pruned_resume_rejects_changed_log(
        self, mining_cube_file, mining_log_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        assert (
            main(
                ["advise", "--lattice", mining_cube_file, "--space", "2000",
                 "--prune-log", mining_log_file, "--checkpoint", str(ckpt)]
            )
            == 0
        )
        # truncate the recorded log: the resume's re-mine must not match
        log_path = tmp_path / "observed.jsonl"
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        capsys.readouterr()
        rc = main(
            ["resume", "--lattice", mining_cube_file, "--checkpoint",
             str(ckpt)]
        )
        assert rc == 2
        assert "mining record" in capsys.readouterr().err

    def test_prune_log_deadline_zero_exits_3(
        self, mining_cube_file, mining_log_file, capsys
    ):
        rc = main(
            ["advise", "--lattice", mining_cube_file, "--space", "2000",
             "--prune-log", mining_log_file, "--deadline", "0"]
        )
        assert rc == 3
        assert "stopped early" in capsys.readouterr().err


class TestSqlBackend:
    def test_serve_backend_sqlite_reports_mirror(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.json"
        rc = main(
            ["serve", "--dims", "3", "--queries", "40",
             "--backend", "sqlite", "--telemetry", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend: sqlite (1 mirror rebuild)" in out
        doc = json.loads(telemetry.read_text())
        assert doc["queries"] == 40
        assert doc["cost"]["exact_matches"] == 40
        assert doc["resilience"]["raw_rescues"] == 0

    def test_replay_backend_sqlite(self, tmp_path, capsys):
        log = tmp_path / "observed.jsonl"
        assert (
            main(["serve", "--dims", "3", "--queries", "30",
                  "--record", str(log)])
            == 0
        )
        capsys.readouterr()
        rc = main(
            ["replay", "--dims", "3", "--log", str(log),
             "--backend", "sqlite"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "30/30 exact" in out
        assert "backend: sqlite (1 mirror rebuild)" in out

    def test_backend_sqlite_rejects_fleet(self, capsys):
        rc = main(
            ["serve", "--dims", "3", "--queries", "10",
             "--backend", "sqlite", "--replicas", "2"]
        )
        assert rc == 2
        assert "single-server" in capsys.readouterr().err

    def test_validate_cost_reports_and_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "correlation.json"
        rc = main(
            ["validate-cost", "--dims", "3", "--queries", "80",
             "--output", str(out_file)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "validate-cost: 80 queries, 0 answer mismatches" in out
        assert "overall" in out
        report = json.loads(out_file.read_text())
        assert report["dims"] == 3
        assert report["mismatches"] == 0
        assert report["overall"]["exact_rows"] == 80
        for stats in report["classes"].values():
            assert stats["exact_rows"] == stats["queries"]

    def test_validate_cost_with_saved_selection(self, tmp_path, capsys):
        """A selection advised on the matching lattice feeds straight in."""
        from repro.core.costmodel import LinearCostModel
        from repro.datasets.tpcd import tpcd_serving_fact
        from repro.io import save_lattice

        lattice = LinearCostModel.from_fact(tpcd_serving_fact(3)).lattice
        cube = tmp_path / "cube3.json"
        save_lattice(lattice, cube)
        selection_file = tmp_path / "selection.json"
        assert (
            main(["advise", "--lattice", str(cube), "--space",
                  str(3 * lattice.size(lattice.top)), "--algorithm",
                  "1greedy", "--output", str(selection_file)])
            == 0
        )
        capsys.readouterr()
        rc = main(
            ["validate-cost", "--dims", "3", "--queries", "40",
             "--selection", str(selection_file)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 answer mismatches" in out
