"""The fault-injection acceptance matrix: kill every algorithm at every
stage boundary, resume from the JSON checkpoint, require bit-identical
selections."""

import dataclasses

import pytest

from repro.algorithms import FIT_PAPER, LocalSearchRefiner, RGreedy
from repro.core.benefit import BenefitEngine
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.runtime.faults import (
    _cube_graph,
    compare_results,
    default_algorithms,
    fault_matrix,
    fault_scan,
    main,
    smoke_budget,
    top_view_of,
)


class TestFaultMatrixD5:
    """The acceptance matrix at d=5: every algorithm, every stage
    boundary.

    The budget fraction is the smallest that still gives local search an
    improving move to checkpoint (~115 cases in ~3s); the CI smoke and
    ``python -m repro.runtime.faults --dims 5`` run the wider-budget
    version.
    """

    @pytest.fixture(scope="class")
    def cases(self):
        graph = _cube_graph(5)
        probe = BenefitEngine(graph)
        return fault_matrix(graph, smoke_budget(probe, 0.02))

    def test_every_case_resumes_bit_identical(self, cases):
        failures = [str(case) for case in cases if not case.ok]
        assert failures == []

    def test_matrix_covers_all_algorithms(self, cases):
        expected = {label for label, __ in default_algorithms()}
        assert {case.algorithm for case in cases} == expected

    def test_every_boundary_was_killed(self, cases):
        """Each algorithm has one case per stage boundary, 1..n_stages."""
        by_algorithm = {}
        for case in cases:
            by_algorithm.setdefault(case.algorithm, []).append(case)
        for label, algorithm_cases in by_algorithm.items():
            stages = sorted(case.stage for case in algorithm_cases)
            n = algorithm_cases[0].n_stages
            assert stages == list(range(1, n + 1)), label
            if label != "LocalSearchRefiner":  # may have few moves
                assert n >= 2, label  # the matrix must exercise resume


class TestLocalSearchOnFigure2:
    """Local search only emits moves on instances where greedy is
    suboptimal; Figure 2 is the paper's pathology for exactly that."""

    def test_kill_resume_with_real_moves(self, fig2_g):
        engine = BenefitEngine(fig2_g)
        base = RGreedy(1, fit=FIT_PAPER).run(engine, FIGURE2_SPACE)

        def run(refiner, context=None):
            return refiner.refine(
                engine, FIGURE2_SPACE, base.selected, context=context
            )

        golden, cases = fault_scan(
            run, LocalSearchRefiner(), label="LocalSearchRefiner"
        )
        assert golden.benefit >= 194  # it escaped the 1-greedy trap (46)
        assert len(cases) >= 2  # improving rounds produced boundaries
        assert [str(c) for c in cases if not c.ok] == []


class TestResumesWithRebuiltAlgorithm:
    def test_config_that_drops_r_fails(self, fig2_g, monkeypatch):
        """Every resume runs the algorithm rebuilt from the checkpoint,
        as ``repro resume`` does, so a ``config()`` that loses a
        parameter which changes selections shows up as failed cases."""
        engine = BenefitEngine(fig2_g)

        def scan():
            def run(algorithm, context=None):
                return algorithm.run(engine, FIGURE2_SPACE, context=context)

            __, cases = fault_scan(run, RGreedy(2), label="RGreedy(r=2)")
            return [str(case) for case in cases if not case.ok]

        assert scan() == []
        # without "r" the checkpoint rebuilds a 1-greedy, which resumes
        # Figure 2 onto another selection than the golden 2-greedy
        config = RGreedy.config

        def config_without_r(self):
            document = config(self)
            del document["params"]["r"]
            return document

        monkeypatch.setattr(RGreedy, "config", config_without_r)
        assert scan() != []


class TestHarnessSelfChecks:
    def test_compare_results_detects_divergence(self, fig2_g):
        engine = BenefitEngine(fig2_g)
        golden = RGreedy(1, fit=FIT_PAPER).run(engine, FIGURE2_SPACE)
        assert compare_results(golden, golden) == ""
        tampered = dataclasses.replace(golden, selected=golden.selected[:-1])
        assert "selected" in compare_results(golden, tampered)
        flagged = dataclasses.replace(golden, interrupted=True)
        assert "interrupted" in compare_results(golden, flagged)

    def test_smoke_budget_includes_top_view(self):
        engine = BenefitEngine(_cube_graph(3))
        top = top_view_of(engine)
        top_space = float(engine.spaces[engine.structure_id(top)])
        assert smoke_budget(engine, 0.0) == pytest.approx(top_space)
        assert smoke_budget(engine, 0.1) > top_space

    def test_cli_smoke_passes(self, capsys):
        assert main(["--dims", "3", "--budget-fraction", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dims", "0"], "--dims must be >= 1"),
            (["--dims", "-2"], "--dims must be >= 1"),
            (["--budget-fraction", "nan"], "--budget-fraction must be a finite"),
            (["--budget-fraction", "inf"], "--budget-fraction must be a finite"),
            (["--budget-fraction", "-1"], "--budget-fraction must be a finite"),
        ],
    )
    def test_cli_bad_arguments_exit_2(self, capsys, argv, message):
        """A typo exits 2 with one ``error:`` line — never 1, which is
        what a failed kill/resume case returns."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and message in error_lines[0]
