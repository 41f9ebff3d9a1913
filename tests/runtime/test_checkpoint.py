"""Tests for checkpoint serialization, validation, and resume guards."""

import dataclasses
import json
import math

import pytest

from repro.algorithms import (
    FIT_PAPER,
    HRUGreedy,
    InnerLevelGreedy,
    LocalSearchRefiner,
    MaintenanceAwareGreedy,
    RGreedy,
    TwoStep,
)
from repro.core.benefit import BenefitEngine
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.runtime import (
    CheckpointError,
    RunContext,
    load_checkpoint,
    save_checkpoint,
)
from repro.algorithms.base import StageTracker
from repro.runtime.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    Checkpoint,
    StageRecord,
    algorithm_from_config,
    records_picked_order,
)
from repro.runtime.context import InjectedFault
from repro.runtime.faults import (
    _cube_graph,
    compare_results,
    smoke_budget,
    top_view_of,
)


@pytest.fixture(scope="module")
def engine():
    return BenefitEngine(_cube_graph(3))


@pytest.fixture(scope="module")
def space(engine):
    return smoke_budget(engine, 0.2)


@pytest.fixture(scope="module")
def seed(engine):
    return [top_view_of(engine)]


def checkpoint_at(engine, space, seed, stage=2, algorithm=None):
    """Run until the injected fault at ``stage`` and return the checkpoint."""
    algorithm = algorithm or RGreedy(2)
    with pytest.raises(InjectedFault) as excinfo:
        algorithm.run(
            engine, space, seed=seed, context=RunContext(fault_stage=stage)
        )
    return excinfo.value.checkpoint


class TestRoundTrip:
    def test_file_round_trip_is_exact(self, engine, space, seed, tmp_path):
        checkpoint = checkpoint_at(engine, space, seed)
        path = tmp_path / "run.ckpt"
        save_checkpoint(checkpoint, path)
        restored = load_checkpoint(path)
        assert restored == checkpoint  # dataclass equality, floats exact

    def test_document_shape(self, engine, space, seed):
        document = checkpoint_at(engine, space, seed).to_dict()
        assert document["kind"] == CHECKPOINT_KIND
        assert document["version"] == CHECKPOINT_VERSION
        assert document["stage_counter"] == 2
        assert document["algorithm"]["class"] == "RGreedy"
        assert len(document["stages"]) == 2
        assert document["remaining_space"] == pytest.approx(
            document["space_budget"] - document["space_used"]
        )


class TestValidation:
    def test_wrong_kind_rejected(self, engine, space, seed, tmp_path):
        document = checkpoint_at(engine, space, seed).to_dict()
        document["kind"] = "something-else"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, engine, space, seed, tmp_path):
        document = checkpoint_at(engine, space, seed).to_dict()
        document["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, engine, space, seed, tmp_path):
        document = checkpoint_at(engine, space, seed).to_dict()
        del document["fingerprint"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_malformed_stage_record_rejected(self, engine, space, seed):
        document = checkpoint_at(engine, space, seed).to_dict()
        del document["stages"][0]["benefit"]
        from repro.runtime import Checkpoint

        with pytest.raises(CheckpointError, match="stage record"):
            Checkpoint.from_dict(document)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.json")


class TestAlgorithmFromConfig:
    def test_round_trips_constructor_params(self):
        rebuilt = algorithm_from_config(RGreedy(2, fit=FIT_PAPER).config())
        assert isinstance(rebuilt, RGreedy)
        assert rebuilt.config() == RGreedy(2, fit=FIT_PAPER).config()

    def test_unknown_class_rejected(self):
        with pytest.raises(CheckpointError, match="unknown algorithm"):
            algorithm_from_config({"class": "EvilAlgorithm", "params": {}})

    def test_non_dict_params_rejected(self):
        with pytest.raises(CheckpointError, match="params"):
            algorithm_from_config({"class": "RGreedy", "params": [1]})

    def test_bad_params_rejected(self):
        with pytest.raises(CheckpointError, match="cannot rebuild"):
            algorithm_from_config(
                {"class": "RGreedy", "params": {"bogus_kw": 1}}
            )


class TestResumeGuards:
    def test_wrong_algorithm_rejected(self, engine, space, seed):
        checkpoint = checkpoint_at(engine, space, seed)
        with pytest.raises(CheckpointError, match="cannot resume"):
            HRUGreedy().run(
                engine, space, seed=seed,
                context=RunContext(resume_from=checkpoint),
            )

    def test_wrong_fingerprint_rejected(self, engine, space, seed):
        checkpoint = checkpoint_at(engine, space, seed)
        tampered = dataclasses.replace(checkpoint, fingerprint="0" * 64)
        with pytest.raises(CheckpointError, match="fingerprint"):
            RGreedy(2).run(
                engine, space, seed=seed,
                context=RunContext(resume_from=tampered),
            )

    def test_wrong_budget_rejected(self, engine, space, seed):
        checkpoint = checkpoint_at(engine, space, seed)
        with pytest.raises(CheckpointError, match="budget"):
            RGreedy(2).run(
                engine, space * 2, seed=seed,
                context=RunContext(resume_from=checkpoint),
            )

    def test_wrong_seed_rejected(self, engine, space, seed):
        checkpoint = checkpoint_at(engine, space, seed)
        with pytest.raises(CheckpointError, match="seed"):
            RGreedy(2).run(
                engine, space, seed=(),
                context=RunContext(resume_from=checkpoint),
            )


#: ``params.lazy`` as checkpoints written before the full-rescan stage
#: loops were removed carry it (``None`` was the default)
LEGACY_LAZY = (None, True, False)


class TestLegacyCheckpoints:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: RGreedy(2),
            lambda: HRUGreedy(),
            lambda: InnerLevelGreedy(),
            lambda: TwoStep(),
            lambda: MaintenanceAwareGreedy(update_weight=0.5),
        ],
        ids=["2-greedy", "hru", "inner", "two-step", "maintenance"],
    )
    def test_workers_fields_resume_bit_identically(self, make, tmp_path):
        """Checkpoints written while the greedy algorithms still took a
        ``workers=`` knob carry ``params.workers`` and ``extra.workers``,
        and those written while they took ``lazy=`` carry
        ``params.lazy``.  They rebuild, pass the resume guards, and
        finish bit-identical to the uninterrupted run."""
        graph = _cube_graph(4)
        probe = BenefitEngine(graph)
        space = smoke_budget(probe, 0.3)
        seed = [top_view_of(probe)]

        def run(algorithm, context):
            engine = BenefitEngine(graph)
            return algorithm.run(engine, space, seed=seed, context=context)

        golden_context = RunContext()
        golden = run(make(), golden_context)
        assert golden_context.stage_counter >= 3
        kill_at = golden_context.stage_counter // 2
        with pytest.raises(InjectedFault) as excinfo:
            run(make(), RunContext(fault_stage=kill_at))
        document = excinfo.value.checkpoint.to_dict()
        document["algorithm"]["params"]["workers"] = 2
        document["extra"]["workers"] = 2
        path = tmp_path / "legacy.ckpt"
        for lazy in LEGACY_LAZY:
            document["algorithm"]["params"]["lazy"] = lazy
            path.write_text(json.dumps(document))

            legacy = load_checkpoint(path)
            algorithm = algorithm_from_config(legacy.algorithm)
            resumed = run(algorithm, RunContext(resume_from=legacy))
            assert compare_results(golden, resumed) == "", lazy
            assert [s.benefit for s in resumed.stages] == [
                s.benefit for s in golden.stages
            ], lazy

    def test_local_search_lazy_param_resumes(self, fig2_g, tmp_path):
        """Local search checkpoints carried ``params.lazy`` too; they
        resume through ``refine`` to the uninterrupted result."""
        engine = BenefitEngine(fig2_g)
        base = RGreedy(1, fit=FIT_PAPER).run(engine, FIGURE2_SPACE).selected

        def refine(refiner, context):
            return refiner.refine(engine, FIGURE2_SPACE, base, context=context)

        golden = refine(LocalSearchRefiner(), RunContext())
        with pytest.raises(InjectedFault) as excinfo:
            refine(LocalSearchRefiner(), RunContext(fault_stage=1))
        document = excinfo.value.checkpoint.to_dict()
        path = tmp_path / "legacy.ckpt"
        for lazy in LEGACY_LAZY:
            document["algorithm"]["params"]["lazy"] = lazy
            path.write_text(json.dumps(document))

            legacy = load_checkpoint(path)
            refiner = algorithm_from_config(legacy.algorithm)
            assert isinstance(refiner, LocalSearchRefiner)
            resumed = refine(refiner, RunContext(resume_from=legacy))
            assert compare_results(golden, resumed) == "", lazy
            assert resumed.stages == golden.stages, lazy

    @pytest.mark.parametrize(
        "make", [RGreedy, HRUGreedy, InnerLevelGreedy, TwoStep, LocalSearchRefiner]
    )
    def test_lazy_keyword_is_gone(self, make):
        """Only a checkpoint's params may still name ``lazy``; passed to a
        constructor it is an unknown keyword like any other."""
        with pytest.raises(TypeError, match="lazy"):
            make(lazy=None)


class TestReplayTolerance:
    """A replayed stage's benefit is checked against its record within
    ``StageTracker.REPLAY_RTOL``: last-bit differences (a checkpoint
    written by eager loops that summed in another order) resume, a
    benefit off by more marks a checkpoint of another instance."""

    def tampered(self, engine, space, seed, factor=None):
        """The stage-3 checkpoint with its last stage's benefit moved
        1 ulp up (``factor=None``) or scaled by ``factor``."""
        document = checkpoint_at(engine, space, seed, stage=3).to_dict()
        record = document["stages"][-1]
        assert record["scope"] == "RGreedy"
        if factor is None:
            record["benefit"] = math.nextafter(record["benefit"], math.inf)
        else:
            record["benefit"] *= factor
        return Checkpoint.from_dict(json.loads(json.dumps(document)))

    def test_one_ulp_off_resumes_to_golden(self, engine, space, seed):
        golden = RGreedy(2).run(engine, space, seed=seed)
        checkpoint = self.tampered(engine, space, seed)
        resumed = RGreedy(2).run(
            engine, space, seed=seed, context=RunContext(resume_from=checkpoint)
        )
        assert compare_results(golden, resumed) == ""

    def test_off_beyond_tolerance_rejected(self, engine, space, seed):
        checkpoint = self.tampered(
            engine, space, seed, factor=1 + 10 * StageTracker.REPLAY_RTOL
        )
        with pytest.raises(CheckpointError, match="does not belong to this instance"):
            RGreedy(2).run(
                engine, space, seed=seed, context=RunContext(resume_from=checkpoint)
            )


class TestAtomicSave:
    def test_overwrite_leaves_single_file(self, engine, space, seed, tmp_path):
        path = tmp_path / "run.ckpt"
        first = checkpoint_at(engine, space, seed, stage=1)
        second = checkpoint_at(engine, space, seed, stage=2)
        save_checkpoint(first, path)
        save_checkpoint(second, path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
        assert load_checkpoint(path).stage_counter == 2

    def test_failed_write_preserves_previous(
        self, engine, space, seed, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.ckpt"
        save_checkpoint(checkpoint_at(engine, space, seed, stage=1), path)
        bad = checkpoint_at(engine, space, seed, stage=2)
        import repro.io as io_module

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(io_module.os, "replace", boom)
        with pytest.raises(OSError):
            save_checkpoint(bad, path)
        monkeypatch.undo()
        assert load_checkpoint(path).stage_counter == 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


class TestRecordsPickedOrder:
    def test_move_records_excluded(self):
        records = [
            StageRecord("seed", ("top",), 0.0, 10.0, 100.0),
            StageRecord("RGreedy", ("v1", "i1"), 5.0, 3.0, 95.0),
            StageRecord("move", ("swap v1 -> v2",), 7.0, 0.0, 93.0),
        ]
        assert records_picked_order(records) == ("top", "v1", "i1")
