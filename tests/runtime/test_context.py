"""Tests for the cooperative execution context (budgets, signals,
checkpoint writes)."""

import os
import signal

import pytest

from repro.algorithms import RGreedy
from repro.core.benefit import BenefitEngine
from repro.runtime import (
    BudgetExceeded,
    Interrupted,
    RunContext,
    load_checkpoint,
)
from repro.runtime.faults import (
    _cube_graph,
    compare_results,
    smoke_budget,
    top_view_of,
)


@pytest.fixture(scope="module")
def graph():
    return _cube_graph(3)


@pytest.fixture(scope="module")
def engine(graph):
    return BenefitEngine(graph)


@pytest.fixture(scope="module")
def space(engine):
    return smoke_budget(engine, 0.2)


@pytest.fixture(scope="module")
def seed(engine):
    return [top_view_of(engine)]


def run_greedy(engine, space, seed, context=None):
    return RGreedy(2).run(engine, space, seed=seed, context=context)


class FakeClock:
    """A monotonic clock advanced by a fixed step per call."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            RunContext(deadline=-1)

    def test_zero_deadline_allowed(self):
        assert RunContext(deadline=0).deadline == 0

    def test_nonpositive_memory_limit_rejected(self):
        with pytest.raises(ValueError, match="memory_limit_mb"):
            RunContext(memory_limit_mb=0)

    def test_nan_budgets_rejected_infinite_deadline_allowed(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="deadline"):
            RunContext(deadline=nan)
        with pytest.raises(ValueError, match="memory_limit_mb"):
            RunContext(memory_limit_mb=nan)
        assert RunContext(deadline=inf).deadline == inf

    def test_negative_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            RunContext(checkpoint_interval=-0.1)

    def test_stage_boundary_requires_bind(self, engine):
        with pytest.raises(RuntimeError, match="bind"):
            RunContext().stage_boundary(engine)


class TestDeadline:
    def test_zero_deadline_stops_at_first_boundary(self, engine, space, seed):
        with pytest.raises(BudgetExceeded) as excinfo:
            run_greedy(engine, space, seed, RunContext(deadline=0))
        stop = excinfo.value
        assert stop.budget == "deadline"
        # the in-flight stage (the seed) finished before the stop
        assert stop.result is not None
        assert stop.result.interrupted
        assert stop.result.stop_reason == "budget-exceeded"
        assert tuple(stop.result.selected) == tuple(seed)
        assert stop.checkpoint is not None
        assert stop.checkpoint.stage_counter == 1

    def test_deadline_checked_against_injected_clock(self, engine, space, seed):
        clock = FakeClock(step=10.0)
        with pytest.raises(BudgetExceeded):
            run_greedy(
                engine, space, seed, RunContext(deadline=5, clock=clock)
            )

    def test_generous_deadline_does_not_stop(self, engine, space, seed):
        golden = run_greedy(engine, space, seed)
        result = run_greedy(engine, space, seed, RunContext(deadline=3600))
        assert not result.interrupted
        assert compare_results(golden, result) == ""


class TestMemoryBudget:
    def test_tiny_memory_limit_stops(self, engine, space, seed):
        # any real process has a peak RSS far above a fraction of a MiB
        with pytest.raises(BudgetExceeded) as excinfo:
            run_greedy(engine, space, seed, RunContext(memory_limit_mb=0.01))
        assert excinfo.value.budget == "memory"
        assert excinfo.value.result.interrupted


class TestSignals:
    def test_requested_stop_interrupts_at_boundary(self, engine, space, seed):
        context = RunContext()
        context.request_stop(signal.SIGTERM)
        with pytest.raises(Interrupted) as excinfo:
            run_greedy(engine, space, seed, context)
        stop = excinfo.value
        assert "SIGTERM" in str(stop)
        assert stop.result is not None and stop.result.interrupted
        assert stop.result.stop_reason == "interrupted"

    def test_sigint_during_run_is_cooperative(self, engine, space, seed):
        """A real SIGINT under handle_signals() stops at the next stage
        boundary with a checkpoint, instead of dying mid-commit."""
        context = RunContext()
        with context.handle_signals():
            os.kill(os.getpid(), signal.SIGINT)
            with pytest.raises(Interrupted) as excinfo:
                run_greedy(engine, space, seed, context)
        assert excinfo.value.checkpoint is not None
        assert excinfo.value.checkpoint.stage_counter >= 1

    def test_handlers_restored_after_context(self, engine):
        before = signal.getsignal(signal.SIGINT)
        with RunContext().handle_signals():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_resume_after_interrupt_matches_golden(self, engine, space, seed):
        golden = run_greedy(engine, space, seed)
        context = RunContext()
        context.request_stop()
        with pytest.raises(Interrupted) as excinfo:
            run_greedy(engine, space, seed, context)
        checkpoint = excinfo.value.checkpoint
        resumed = run_greedy(
            engine, space, seed, RunContext(resume_from=checkpoint)
        )
        assert compare_results(golden, resumed) == ""


class TestCheckpointWrites:
    def test_interval_zero_writes_every_boundary(
        self, engine, space, seed, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        context = RunContext(checkpoint_path=path, checkpoint_interval=0)
        result = run_greedy(engine, space, seed, context)
        checkpoint = load_checkpoint(path)
        assert checkpoint.stage_counter == context.stage_counter
        assert tuple(checkpoint.selected) == tuple(result.selected)

    def test_writes_throttled_by_interval(self, engine, space, seed, tmp_path):
        """With a frozen clock only the first boundary is written — later
        boundaries are within the interval."""
        path = tmp_path / "run.ckpt"
        context = RunContext(
            checkpoint_path=path, clock=FakeClock(step=0.0)
        )
        run_greedy(engine, space, seed, context)
        assert context.stage_counter > 1
        assert load_checkpoint(path).stage_counter == 1

    def test_stop_flushes_latest_checkpoint(self, engine, space, seed, tmp_path):
        """A cooperative stop writes the stopping boundary even when the
        throttle would have skipped it."""
        path = tmp_path / "run.ckpt"
        clock = FakeClock(step=0.0)
        context = RunContext(
            checkpoint_path=path, deadline=5, clock=clock
        )
        clock.step = 2.0  # now every check advances toward the deadline
        with pytest.raises(BudgetExceeded) as excinfo:
            run_greedy(engine, space, seed, context)
        on_disk = load_checkpoint(path)
        assert on_disk.stage_counter == excinfo.value.checkpoint.stage_counter

    def test_no_temp_files_left_behind(self, engine, space, seed, tmp_path):
        path = tmp_path / "run.ckpt"
        run_greedy(
            engine, space, seed,
            RunContext(checkpoint_path=path, checkpoint_interval=0),
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
