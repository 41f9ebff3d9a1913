"""Circuit breaker, retry policy, raw rescue: degraded but never wrong.

The load-bearing assertions: a poisoned structure's answers are rescued
from the raw cube *byte-identically* on the integer-measure fixture, the
breaker automaton walks closed -> open -> half-open -> closed under an
injectable clock, and every executor error reconciles 1:1 with the
telemetry counters.
"""

import random

import numpy as np
import pytest

from repro.cube.query_log import generate_query_log
from repro.datasets.tpcd import tpcd_serving_schema
from repro.cube.generator import dense_fact_table
from repro.engine.table import FactTable
from repro.serve import QueryServer, validate_telemetry
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RETRY_JITTER,
    RETRY_MAX_DELAY,
    RETRY_MULTIPLIER,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.telemetry import RAW_LABEL

from tests.serve.test_server import advise_selection


class Boom(RuntimeError):
    pass


@pytest.fixture(scope="module")
def int_fact4():
    """Integer measures: sums are exact in float64, so raw-path answers
    are byte-identical to structure-path answers."""
    schema = tpcd_serving_schema(4)
    base = dense_fact_table(schema, rng=0)
    return FactTable(schema, base.columns, np.rint(base.measures))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_exactly_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=5.0)
        assert breaker.record_failure("ps") is False
        assert breaker.record_failure("ps") is False
        assert breaker.state("ps") == BREAKER_CLOSED
        assert breaker.record_failure("ps") is True
        assert breaker.state("ps") == BREAKER_OPEN
        assert breaker.trips == 1

    def test_open_circuit_denies_until_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=clock
        )
        breaker.record_failure("ps")
        assert not breaker.allow("ps")
        clock.now = 4.9
        assert not breaker.allow("ps")
        clock.now = 5.1
        assert breaker.allow("ps")  # the half-open probe
        assert breaker.state("ps") == BREAKER_HALF_OPEN

    def test_half_open_grants_a_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=1.0, clock=clock
        )
        breaker.record_failure("ps")
        clock.now = 2.0
        assert breaker.allow("ps")
        assert not breaker.allow("ps")  # second caller waits for the verdict

    def test_half_open_success_closes_and_fires_reset(self):
        clock = FakeClock()
        events = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_seconds=1.0,
            clock=clock,
            on_trip=lambda s: events.append(("trip", s)),
            on_reset=lambda s: events.append(("reset", s)),
        )
        breaker.record_failure("ps")
        clock.now = 2.0
        assert breaker.allow("ps")
        breaker.record_success("ps")
        assert breaker.state("ps") == BREAKER_CLOSED
        assert breaker.allow("ps")
        assert events == [("trip", "ps"), ("reset", "ps")]
        assert breaker.resets == 1

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=1.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure("ps")
        clock.now = 2.0
        assert breaker.allow("ps")
        assert breaker.record_failure("ps") is True  # re-trip from half-open
        assert breaker.state("ps") == BREAKER_OPEN
        assert not breaker.allow("ps")
        assert breaker.trips == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=1.0)
        breaker.record_failure("ps")
        breaker.record_success("ps")
        breaker.record_failure("ps")
        assert breaker.state("ps") == BREAKER_CLOSED

    def test_structures_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=9.0)
        breaker.record_failure("ps")
        assert not breaker.allow("ps")
        assert breaker.allow("sc")
        assert breaker.open_structures() == ["ps"]
        stats = breaker.stats()
        assert stats["states"] == {"ps": BREAKER_OPEN, "sc": BREAKER_CLOSED}
        assert stats["trips"] == 1

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1.0)


class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1)
        delays = [policy.delay(a) for a in range(8)]  # no rng: no jitter
        growing = [d for d in delays if d < RETRY_MAX_DELAY]
        assert growing == [0.1 * RETRY_MULTIPLIER**a for a in range(len(growing))]
        assert delays[len(growing):] == [RETRY_MAX_DELAY] * (8 - len(growing))
        assert len(growing) < 8  # the cap was reached

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.01)
        rng = random.Random(7)
        for attempt in range(8):
            nominal = min(RETRY_MAX_DELAY, 0.01 * RETRY_MULTIPLIER**attempt)
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert (
                    (1 - RETRY_JITTER) * nominal
                    <= delay
                    <= (1 + RETRY_JITTER) * nominal
                )

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


class TestRawRescue:
    """Executor errors against a structure degrade to raw — never wrong."""

    def _poisoned_server(self, fact, target, threshold=1000):
        from repro.core.costmodel import LinearCostModel

        model = LinearCostModel.from_fact(fact)
        selection = advise_selection(model.lattice)
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown_seconds=600.0
        )

        def poison(structure, entry):
            if structure == target:
                raise Boom(f"poisoned {structure}")

        server = QueryServer(
            fact,
            selection,
            cost_model=model,
            breaker=breaker,
            fault_hook=poison,
        )
        return server, model

    def _target_structure(self, fact):
        """The structure answering the most workload queries."""
        from collections import Counter

        from repro.core.costmodel import LinearCostModel

        model = LinearCostModel.from_fact(fact)
        selection = advise_selection(model.lattice)
        server = QueryServer(fact, selection, cost_model=model)
        log = generate_query_log(fact.schema, 120, rng=1)
        outcomes = server.serve_batch(log)
        counts = Counter(
            o.structure for o in outcomes if o.structure != RAW_LABEL
        )
        return counts.most_common(1)[0][0], log, [o.groups for o in outcomes]

    def test_rescued_answers_byte_identical(self, int_fact4):
        target, log, golden = self._target_structure(int_fact4)
        server, __ = self._poisoned_server(int_fact4, target)
        outcomes = server.serve_batch(log)
        hit = 0
        for outcome, reference in zip(outcomes, golden):
            assert outcome.groups == reference
            if outcome.rescued:
                hit += 1
                assert outcome.structure == RAW_LABEL
                assert outcome.fallback
        assert hit > 0, "workload never touched the poisoned structure"

    def test_error_counters_reconcile_exactly(self, int_fact4):
        target, log, __ = self._target_structure(int_fact4)
        server, __ = self._poisoned_server(int_fact4, target)
        outcomes = server.serve_batch(log)
        # counters tick once per *unique* execution: duplicate concrete
        # queries in a batch share one (rescued) execution
        rescued = len(
            {
                (o.entry.query, o.entry.values)
                for o in outcomes
                if o.rescued
            }
        )
        document = validate_telemetry(server.telemetry_snapshot())
        resilience = document["resilience"]
        assert rescued > 0
        assert resilience["executor_errors"] == {target: rescued}
        assert resilience["raw_rescues"] == rescued

    def test_breaker_trips_within_threshold_then_short_circuits(
        self, int_fact4
    ):
        target, log, golden = self._target_structure(int_fact4)
        server, __ = self._poisoned_server(int_fact4, target, threshold=3)
        outcomes = server.serve_batch(log)
        for outcome, reference in zip(outcomes, golden):
            assert outcome.groups == reference
        document = validate_telemetry(server.telemetry_snapshot())
        resilience = document["resilience"]
        # the breaker stopped touching the structure after 3 errors
        assert resilience["executor_errors"] == {target: 3}
        assert resilience["breaker_trips"] == 1
        assert resilience["breaker_short_circuits"] > 0
        assert server.breaker.state(target) == BREAKER_OPEN

    def test_short_circuited_answers_not_cached(self, int_fact4):
        from repro.serve import ResultCache

        from repro.core.costmodel import LinearCostModel

        target, log, __ = self._target_structure(int_fact4)
        model = LinearCostModel.from_fact(int_fact4)
        selection = advise_selection(model.lattice)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=600.0)
        hits = [0]

        def poison(structure, entry):
            if structure == target:
                hits[0] += 1
                raise Boom("poisoned")

        cache = ResultCache()
        server = QueryServer(
            int_fact4,
            selection,
            cost_model=model,
            breaker=breaker,
            fault_hook=poison,
            cache=cache,
        )
        server.serve_batch(log)
        server.serve_batch(log)  # degraded answers must re-execute
        stats = cache.stats()
        degraded = sum(
            1
            for o in server.serve_batch(log)
            if o.rescued or o.structure == RAW_LABEL and not o.cached
        )
        assert hits[0] == 1  # breaker opened after the single error
        assert degraded > 0
        # every cached entry came from a healthy structure execution
        assert stats["entries"] < len(log)

    def test_healthy_path_identical_with_breaker_attached(self, int_fact4):
        from repro.core.costmodel import LinearCostModel

        model = LinearCostModel.from_fact(int_fact4)
        selection = advise_selection(model.lattice)
        log = generate_query_log(int_fact4.schema, 100, rng=2)
        plain = QueryServer(int_fact4, selection, cost_model=model)
        guarded = QueryServer(
            int_fact4,
            selection,
            cost_model=model,
            breaker=CircuitBreaker(),
        )
        for a, b in zip(plain.serve_batch(log), guarded.serve_batch(log)):
            assert a.groups == b.groups
            assert a.structure == b.structure
            assert a.predicted_rows == b.predicted_rows
            assert a.actual_rows == b.actual_rows
        resilience = guarded.telemetry.resilience_stats()
        assert resilience["executor_errors"] == {}
        assert resilience["raw_rescues"] == 0
        assert resilience["breaker_trips"] == 0

    def test_raw_path_errors_propagate(self, int_fact4):
        """No cheaper-but-correct plan under raw: the error is a bug."""
        from repro.core.costmodel import LinearCostModel

        model = LinearCostModel.from_fact(int_fact4)

        def poison_raw(structure, entry):
            if structure == RAW_LABEL:
                raise Boom("raw poisoned")

        # a single tiny view: anything grouping by other attributes
        # routes to the raw cube
        server = QueryServer(
            int_fact4,
            ["p"],
            cost_model=model,
            breaker=CircuitBreaker(),
            fault_hook=poison_raw,
        )
        from repro.serve.batch import plan_for

        log = generate_query_log(int_fact4.schema, 200, rng=3)
        raw_hits = [
            entry
            for entry in log
            if plan_for(server.state, model, entry.query).kind == "raw"
        ]
        assert raw_hits, "tiny selection must leave raw-routed patterns"
        with pytest.raises(Boom):
            server.serve(raw_hits[0])
