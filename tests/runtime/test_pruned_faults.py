"""Kill/resume matrix for pruned (workload-mined) advise runs.

The mining stage is boundary 1 of every pruned run: killing there leaves
no checkpoint (no engine exists yet) and recovery is a fresh run; every
later kill resumes from a checkpoint whose ``extra`` block carries the
mining record, which ``mining_boundary`` verifies fingerprint-exactly
before a single greedy stage replays.
"""

import pytest

from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.mining import mine_candidates
from repro.runtime.context import (
    MINING_EXTRA_KEY,
    CheckpointError,
    InjectedFault,
    RunContext,
)
from repro.runtime.faults import mined_cube_instance, pruned_fault_matrix


class TestPrunedFaultMatrix:
    @pytest.fixture(scope="class")
    def cases(self):
        # d=3, eager+lazy: the fast cross-section (the d=4 matrix runs
        # in CI via python -m repro.runtime.faults --pruned)
        return pruned_fault_matrix(3)

    def test_every_case_resumes_bit_identical(self, cases):
        failures = [str(case) for case in cases if not case.ok]
        assert failures == []

    def test_mining_boundary_killed_in_every_combination(self, cases):
        by_combo = {}
        for case in cases:
            by_combo.setdefault((case.algorithm, case.lazy), []).append(case)
        for key, combo_cases in by_combo.items():
            stages = sorted(case.stage for case in combo_cases)
            n = combo_cases[0].n_stages
            assert stages == list(range(1, n + 1)), key
            assert 1 in stages  # the mining boundary itself

    def test_algorithms_labeled_pruned(self, cases):
        assert all(case.algorithm.startswith("pruned:") for case in cases)


class TestMiningBoundary:
    def make_run(self, n_dims=3):
        lattice, log, params = mined_cube_instance(n_dims)
        mined = mine_candidates(log, lattice.schema.names, **params)
        record = {"fingerprint": mined.fingerprint(), **params}
        return lattice, mined, record

    def test_fault_at_mining_boundary_is_pre_engine(self):
        __, __mined, record = self.make_run()
        context = RunContext(fault_stage=1)
        with pytest.raises(InjectedFault) as exc:
            context.mining_boundary(record)
        assert exc.value.pre_engine is True
        assert exc.value.checkpoint is None

    def test_checkpoints_carry_the_mining_record(self, tmp_path):
        from repro.algorithms import RGreedy
        from repro.runtime import load_checkpoint

        lattice, mined, record = self.make_run()
        engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
        path = tmp_path / "run.ckpt"
        context = RunContext(checkpoint_path=path)
        context.mining_boundary(record)
        RGreedy(1).run(
            engine,
            1.2 * lattice.size(lattice.top),
            seed=(lattice.label(lattice.top),),
            context=context,
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.extra[MINING_EXTRA_KEY] == record

    def test_resume_rejects_a_different_mined_set(self, tmp_path):
        from repro.algorithms import RGreedy
        from repro.runtime import load_checkpoint

        lattice, mined, record = self.make_run()
        engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
        path = tmp_path / "run.ckpt"
        context = RunContext(checkpoint_path=path)
        context.mining_boundary(record)
        RGreedy(1).run(
            engine,
            1.2 * lattice.size(lattice.top),
            seed=(lattice.label(lattice.top),),
            context=context,
        )
        resumed = RunContext(resume_from=load_checkpoint(path))
        tampered = dict(record, fingerprint="0" * 64)
        with pytest.raises(CheckpointError, match="mining record"):
            resumed.mining_boundary(tampered)

    def test_resume_accepts_the_identical_record(self, tmp_path):
        from repro.algorithms import RGreedy
        from repro.runtime import load_checkpoint

        lattice, mined, record = self.make_run()
        engine = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
        path = tmp_path / "run.ckpt"
        context = RunContext(checkpoint_path=path)
        context.mining_boundary(record)
        golden = RGreedy(1).run(
            engine,
            1.2 * lattice.size(lattice.top),
            seed=(lattice.label(lattice.top),),
            context=context,
        )
        resumed = RunContext(resume_from=load_checkpoint(path))
        resumed.mining_boundary(dict(record))
        engine2 = BenefitEngine(QueryViewGraph.from_mined(lattice, mined))
        result = RGreedy(1).run(
            engine2,
            1.2 * lattice.size(lattice.top),
            seed=(lattice.label(lattice.top),),
            context=resumed,
        )
        assert list(result.selected) == list(golden.selected)
        assert result.tau == golden.tau
