"""Per-partition advising: budgets, checkpoint/resume, runtime stops."""

import json

import pytest

from repro.distributed import advise_partitions, partition_workload
from repro.runtime.context import BudgetExceeded, RunContext
from tests.distributed.conftest import make_algorithm


@pytest.fixture(scope="module")
def partitioned4(dist_counts4):
    return partition_workload(dist_counts4, 3)


def advise(lattice, partitioned, space=None, **kwargs):
    if space is None:
        space = 3.0 * lattice.size(lattice.top)
    top_label = lattice.label(lattice.top)
    return advise_partitions(
        lattice,
        partitioned,
        make_algorithm(),
        space,
        seed=(top_label,),
        **kwargs,
    )


class TestAdvise:
    def test_one_plan_per_partition_under_budget(
        self, dist_model4, partitioned4
    ):
        lattice = dist_model4.lattice
        space = 3.0 * lattice.size(lattice.top)
        advice = advise(lattice, partitioned4, space=space)
        assert len(advice.plans) == partitioned4.n_partitions
        top_label = lattice.label(lattice.top)
        for plan, partition in zip(advice.plans, partitioned4.partitions):
            assert plan.replica_id == partition.partition_id
            assert plan.space_used <= space
            assert top_label in plan.selection
            assert not plan.resumed
        assert advice.fingerprint == partitioned4.fingerprint()

    def test_selections_diverge(self, dist_model4, partitioned4):
        """Different partitions want different structures — that is the
        entire point of the subsystem."""
        advice = advise(dist_model4.lattice, partitioned4)
        assert len(set(advice.selections)) > 1

    def test_empty_partition_gets_seed_only(self, dist_model4, dist_counts4):
        lattice = dist_model4.lattice
        few = dict(list(dist_counts4.items())[:2])
        partitioned = partition_workload(few, 4)
        advice = advise(lattice, partitioned)
        top_label = lattice.label(lattice.top)
        empty_plans = [
            plan
            for plan, part in zip(advice.plans, partitioned.partitions)
            if part.empty
        ]
        assert empty_plans
        for plan in empty_plans:
            assert plan.selection == (top_label,)
            assert plan.n_patterns == 0

    def test_invalid_space_rejected(self, dist_model4, partitioned4):
        with pytest.raises(ValueError, match="space"):
            advise(dist_model4.lattice, partitioned4, space=0.0)


class TestCheckpoint:
    def test_full_resume_replays_every_partition(
        self, dist_model4, partitioned4, tmp_path
    ):
        lattice = dist_model4.lattice
        path = str(tmp_path / "divergent.ckpt")
        first = advise(lattice, partitioned4, checkpoint_path=path)
        second = advise(lattice, partitioned4, checkpoint_path=path)
        assert all(plan.resumed for plan in second.plans)
        assert second.selections == first.selections
        assert [p.tau for p in second.plans] == [p.tau for p in first.plans]

    def test_partial_resume_advises_only_the_rest(
        self, dist_model4, partitioned4, tmp_path
    ):
        lattice = dist_model4.lattice
        path = str(tmp_path / "divergent.ckpt")
        first = advise(lattice, partitioned4, checkpoint_path=path)
        # simulate a kill after partition 0: drop the later plans
        document = json.loads((tmp_path / "divergent.ckpt").read_text())
        document["plans"] = document["plans"][:1]
        (tmp_path / "divergent.ckpt").write_text(json.dumps(document))
        second = advise(lattice, partitioned4, checkpoint_path=path)
        assert [plan.resumed for plan in second.plans] == [True, False, False]
        assert second.selections == first.selections

    def test_legacy_workers_param_still_resumes(
        self, dist_model4, partitioned4, tmp_path
    ):
        """Checkpoints from before the ``workers=`` knob was removed name
        it in the algorithm params; they still resume every partition."""
        lattice = dist_model4.lattice
        path = tmp_path / "divergent.ckpt"
        first = advise(lattice, partitioned4, checkpoint_path=str(path))
        document = json.loads(path.read_text())
        document["algorithm"]["params"]["workers"] = None
        path.write_text(json.dumps(document))
        second = advise(lattice, partitioned4, checkpoint_path=str(path))
        assert all(plan.resumed for plan in second.plans)
        assert second.selections == first.selections

    def test_fingerprint_mismatch_rejected(
        self, dist_model4, dist_counts4, partitioned4, tmp_path
    ):
        lattice = dist_model4.lattice
        path = str(tmp_path / "divergent.ckpt")
        advise(lattice, partitioned4, checkpoint_path=path)
        other = partition_workload(dist_counts4, 4)
        with pytest.raises(ValueError, match="fingerprint"):
            advise(lattice, other, checkpoint_path=path)

    def test_space_mismatch_rejected(
        self, dist_model4, partitioned4, tmp_path
    ):
        lattice = dist_model4.lattice
        path = str(tmp_path / "divergent.ckpt")
        space = 3.0 * lattice.size(lattice.top)
        advise(lattice, partitioned4, space=space, checkpoint_path=path)
        with pytest.raises(ValueError, match="space"):
            advise(lattice, partitioned4, space=space / 2, checkpoint_path=path)


class TestRuntimeStops:
    def test_budget_stop_fires_at_partition_boundary(
        self, dist_model4, partitioned4
    ):
        with pytest.raises(BudgetExceeded):
            advise(
                dist_model4.lattice,
                partitioned4,
                context=RunContext(deadline=0),
            )

    def test_stopped_run_resumes_from_checkpoint(
        self, dist_model4, partitioned4, tmp_path
    ):
        """A stop mid-run leaves completed partitions committed; the
        rerun replays them and advises only the remainder."""
        lattice = dist_model4.lattice
        path = str(tmp_path / "divergent.ckpt")

        class StopAfter:
            def __init__(self, allowed):
                self.allowed = allowed

            def check(self):
                if self.allowed <= 0:
                    raise BudgetExceeded("out of budget")
                self.allowed -= 1

        with pytest.raises(BudgetExceeded):
            advise(
                lattice,
                partitioned4,
                context=StopAfter(2),
                checkpoint_path=path,
            )
        document = json.loads((tmp_path / "divergent.ckpt").read_text())
        assert len(document["plans"]) == 2
        resumed = advise(lattice, partitioned4, checkpoint_path=path)
        assert [plan.resumed for plan in resumed.plans] == [True, True, False]
