"""ReplicaFleet: routing, failover, health checks, typed failure modes.

The contract under test: a query either returns a correct answer or a
typed :class:`ServingError` — never a hang, never a wrong answer — and
replica/fleet availability is accounted exactly.
"""

import threading
import time

import pytest

from repro.core.costmodel import LinearCostModel
from repro.cube.query_log import generate_query_log
from repro.datasets.tpcd import tpcd_serving_fact
from repro.serve import (
    NoHealthyReplica,
    QueryServer,
    ReplicaFleet,
    RetriesExhausted,
    RetryPolicy,
    ServingError,
    validate_telemetry,
)
from repro.serve.fleet import HealthChecker

from tests.serve.test_server import advise_selection


class Boom(RuntimeError):
    pass


@pytest.fixture(scope="module")
def selection4(serve_model4):
    return advise_selection(serve_model4.lattice)


@pytest.fixture(scope="module")
def log4(serve_schema4):
    return generate_query_log(serve_schema4, 120, rng=0)


def make_fleet(fact, model, selection, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("cost_model", model)
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, base_delay=0.001))
    return ReplicaFleet(fact, selection, **kwargs)


class TestRouting:
    def test_answers_match_single_server(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        golden = QueryServer(
            serve_fact4, selection4, cost_model=serve_model4
        ).serve_batch(log4)
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            results = fleet.serve_many(log4)
        finally:
            fleet.close()
        assert len(results) == len(log4)
        for result, reference in zip(results, golden):
            assert not isinstance(result, ServingError)
            assert result.groups == reference.groups
            assert result.structure == reference.structure

    def test_round_robin_spreads_load(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4, replicas=3)
        try:
            fleet.serve_many(log4)
        finally:
            fleet.close()
        served = [
            replica.server.telemetry.snapshot()["queries"]
            for replica in fleet.replicas
        ]
        assert sum(served) == len(log4)
        assert all(count > 0 for count in served), served

    def test_merged_telemetry_covers_fleet(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        fleet.serve_many(log4)
        fleet.close()
        document = validate_telemetry(fleet.merged_telemetry().snapshot())
        assert document["queries"] == len(log4)
        assert document["fallbacks"] == 0
        assert fleet.telemetry_snapshot()["cache"]["enabled"] is False

    def test_snapshot_sums_replica_caches(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        """The fleet's document carries its replicas' result-cache
        counters, summed, instead of reporting a disabled cache."""
        fleet = make_fleet(
            serve_fact4, serve_model4, selection4, cache_bytes=1 << 20
        )
        try:
            fleet.serve_many(log4 + log4)
            document = validate_telemetry(fleet.telemetry_snapshot())
            blocks = [replica.server.cache.stats() for replica in fleet.replicas]
        finally:
            fleet.close()
        cache = document["cache"]
        assert cache["enabled"] is True
        for field in ("hits", "misses", "evictions", "entries", "bytes"):
            assert cache[field] == sum(block[field] for block in blocks)
        assert cache["hits"] > 0
        assert cache["hits"] + cache["misses"] == 2 * len(log4)
        assert document["fleet"]["replicas"] == 2
        assert document["fleet"]["routed"] == 2 * len(log4)

    def test_per_replica_selections(self, serve_fact4, serve_model4, selection4):
        fleet = ReplicaFleet(
            serve_fact4,
            [selection4, list(selection4)[:3]],
            cost_model=serve_model4,
        )
        try:
            assert len(fleet.replicas) == 2
            assert list(fleet.replicas[1].server.selection) == list(
                selection4
            )[:3]
        finally:
            fleet.close()

    def test_selection_count_mismatch_rejected(
        self, serve_fact4, serve_model4, selection4
    ):
        with pytest.raises(ValueError, match="disagrees"):
            ReplicaFleet(
                serve_fact4,
                [selection4, selection4],
                replicas=3,
                cost_model=serve_model4,
            )


class TestFailover:
    def test_killed_replica_routes_around(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            assert fleet.replicas[0].kill()
            assert not fleet.replicas[0].kill()  # idempotent
            results = fleet.serve_many(log4)
            assert not any(isinstance(r, ServingError) for r in results)
        finally:
            fleet.close()
        # worker collectors fold into the server's on front-end close
        survivor = fleet.replicas[1].server.telemetry.snapshot()
        assert survivor["queries"] == len(log4)
        assert fleet.replicas[0].downtime_seconds > 0.0

    def test_all_dead_raises_no_healthy_replica(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            for replica in fleet.replicas:
                replica.kill()
            with pytest.raises(NoHealthyReplica):
                fleet.serve(log4[0])
            assert fleet.unavailable_seconds > 0.0
        finally:
            fleet.close()

    def test_no_healthy_replica_carries_per_replica_strikes(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        """Regression: the raise must say *why* every replica was out of
        rotation, not just that it was."""
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            for replica in fleet.replicas:
                replica.kill()
            with pytest.raises(NoHealthyReplica) as excinfo:
                fleet.serve(log4[0])
            strikes = excinfo.value.strikes
            assert set(strikes) == {r.replica_id for r in fleet.replicas}
            for state in strikes.values():
                assert state["dead"] is True
                assert state["healthy"] is False
                assert state["last_reason"] == "killed"
                assert state["strikes"] >= 0
        finally:
            fleet.close()

    def test_no_healthy_replica_default_strikes_empty(self):
        assert NoHealthyReplica("nothing routable").strikes == {}

    def test_crashing_replica_strikes_out_and_queries_survive(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4, strike_limit=1)

        def crash():
            raise Boom("worker down")

        for replica in fleet.replicas:
            replica.frontend.max_worker_restarts = 0
        fleet.replicas[0].frontend.crash_hook = crash
        try:
            results = fleet.serve_many(log4)
        finally:
            fleet.close()
        assert not any(isinstance(r, ServingError) for r in results)
        resilience = fleet.merged_telemetry().resilience_stats()
        assert resilience["worker_crashes"] >= 1
        assert resilience["retries"] >= 1

    def test_exhausted_retries_raise_typed(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        fleet = make_fleet(
            serve_fact4,
            serve_model4,
            selection4,
            strike_limit=1000,  # passive strikes never mark it unhealthy
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )

        def crash():
            raise Boom("always down")

        for replica in fleet.replicas:
            replica.frontend.max_worker_restarts = 0
            replica.frontend.crash_hook = crash
        try:
            with pytest.raises((RetriesExhausted, NoHealthyReplica)) as info:
                fleet.serve(log4[0])
            if isinstance(info.value, RetriesExhausted):
                assert info.value.attempts == 2
        finally:
            fleet.close()


class TestDeadline:
    def test_attempt_ends_within_one_deadline(
        self, serve_fact4, serve_model4, selection4, log4
    ):
        """Queue space that frees while an attempt waits for admission
        does not buy the attempt a second deadline: admission and answer
        share one."""
        deadline = 0.4
        fleet = make_fleet(
            serve_fact4,
            serve_model4,
            selection4,
            replicas=1,
            batch_size=1,
            query_deadline=deadline,
            retry=RetryPolicy(max_attempts=1),
            strike_limit=1000,
        )
        frontend = fleet.replicas[0].frontend
        frontend.queue_depth = 1
        real = fleet.replicas[0].server.serve_batch
        started = [threading.Event(), threading.Event()]
        gates = [threading.Event(), threading.Event()]
        calls = [0]

        def gated(entries):
            call = calls[0]
            calls[0] += 1
            if call < len(gates):
                started[call].set()
                assert gates[call].wait(10)
            return real(entries)

        fleet.replicas[0].server.serve_batch = gated
        outcome = {}

        def client():
            start = time.monotonic()
            try:
                fleet.serve(log4[2])
            except ServingError as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=client, daemon=True)
        try:
            frontend.submit(log4[0])  # in flight, parked on gate 0
            assert started[0].wait(10)
            frontend.submit(log4[1])  # fills the queue
            thread.start()
            time.sleep(0.75 * deadline)
            gates[0].set()  # space frees; log4[1] parks on gate 1
            assert started[1].wait(10)
            thread.join(10)
            assert not thread.is_alive()
        finally:
            for gate in gates:
                gate.set()
            fleet.close()
        assert isinstance(outcome["error"], RetriesExhausted)
        assert outcome["elapsed"] < deadline + 0.15


    def test_timed_out_attempt_is_not_executed(self):
        """An attempt that hits its deadline while still queued is
        cancelled: the slow replica never executes it, and the fleet's
        telemetry counts each served query once."""
        fact = tpcd_serving_fact(3, rng=0, integral_measures=True)
        model = LinearCostModel.from_fact(fact)
        fleet = make_fleet(
            fact,
            model,
            advise_selection(model.lattice),
            batch_size=1,
            query_deadline=0.1,
            strike_limit=10,
        )
        # round-robin routes the fleet's first query to replica 1
        slow = fleet.replicas[1]
        started, gate = threading.Event(), threading.Event()
        executed = []

        def hook(structure, entry):
            executed.append(entry)
            if len(executed) == 1:
                started.set()
                assert gate.wait(10)

        slow.server.fault_hook = hook
        log = generate_query_log(fact.schema, 2, rng=0)
        try:
            held = slow.frontend.submit(log[0])  # parks the slow dispatcher
            assert started.wait(10)
            outcome = fleet.serve(log[1])
            gate.set()
            held.result(10)
        finally:
            gate.set()
            fleet.close()
        assert fleet.stats()["deadline_timeouts"] == 1
        assert outcome.entry is log[1]
        assert executed == [log[0]]
        assert fleet.merged_telemetry().queries == 2


class TestHealthChecker:
    def test_probe_recovers_struck_replica(
        self, serve_fact4, serve_model4, selection4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4, strike_limit=1)
        try:
            replica = fleet.replicas[0]
            assert replica.record_strike("synthetic", fleet.strike_limit)
            assert not replica.available
            sweep = fleet.checker.check_now()
            assert sweep[replica.replica_id] is True
            assert replica.available
            assert replica.downtime_seconds > 0.0
        finally:
            fleet.close()

    def test_dead_replica_fails_probe(
        self, serve_fact4, serve_model4, selection4
    ):
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            fleet.replicas[0].kill()
            sweep = fleet.checker.check_now()
            assert sweep[0] is False
            assert sweep[1] is True
            history = fleet.checker.probe_history(0)
            assert history[-1]["reason"] == "dead"
        finally:
            fleet.close()

    def test_slow_probe_strikes(self, serve_fact4, serve_model4, selection4):
        fleet = make_fleet(
            serve_fact4,
            serve_model4,
            selection4,
            strike_limit=1,
            probe_latency_threshold_us=0.0,  # everything is "slow"
        )
        try:
            sweep = fleet.checker.check_now()
            assert all(ok is False for ok in sweep.values())
            assert fleet.healthy_replicas() == []
            assert fleet.unavailable_seconds >= 0.0
            history = fleet.checker.probe_history(0)
            assert history[-1]["reason"] == "slow probe"
        finally:
            fleet.close()

    def test_probe_raise_strikes(self, serve_fact4, serve_model4, selection4):
        """An executor error inside the probe fails it.  Replica 1
        materializes nothing, so its probe runs on the raw cube, where
        an error has no rescue (a structure's error is rescued raw)."""
        fleet = make_fleet(
            serve_fact4, serve_model4, [selection4, ()], strike_limit=1
        )

        def boom(structure, entry):
            raise Boom(f"probe poisoned on {structure}")

        for replica in fleet.replicas:
            replica.server.fault_hook = boom
        try:
            sweep = fleet.checker.check_now()
        finally:
            fleet.close()
        assert sweep == {0: True, 1: False}
        assert not fleet.replicas[1].available
        reason = fleet.checker.probe_history(1)[-1]["reason"]
        assert reason.startswith("probe raised: Boom('probe poisoned on raw")

    def test_background_checker_runs(
        self, serve_fact4, serve_model4, selection4
    ):
        fleet = make_fleet(
            serve_fact4, serve_model4, selection4, probe_interval=0.02
        )
        try:
            deadline = time.monotonic() + 5.0
            while fleet.checker.checks < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fleet.checker.checks >= 2
        finally:
            fleet.close()
        checks_at_close = fleet.checker.checks
        time.sleep(0.08)
        assert fleet.checker.checks == checks_at_close  # stopped with fleet

    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20], ids=["no-cache", "cache"])
    def test_probes_stay_out_of_serving_telemetry(
        self, serve_fact4, serve_model4, selection4, log4, cache_bytes
    ):
        fleet = make_fleet(
            serve_fact4, serve_model4, selection4, cache_bytes=cache_bytes
        )
        try:
            for _ in range(5):
                fleet.checker.check_now()
            fleet.serve_many(log4)
            for _ in range(5):
                fleet.checker.check_now()
        finally:
            fleet.close()
        document = fleet.telemetry_snapshot()
        assert document["queries"] == len(log4)
        cache = document["cache"]
        if cache_bytes:
            assert cache["hits"] + cache["misses"] == len(log4)
        else:
            assert cache["enabled"] is False

    def test_cached_slow_replica_fails_every_probe(
        self, serve_fact4, serve_model4, selection4
    ):
        """Each probe runs on the executor, so a cached answer cannot
        pass a slow replica after its first probe."""
        fleet = make_fleet(
            serve_fact4, serve_model4, selection4, cache_bytes=16 << 20
        )
        slow_calls = []

        def sleeper(structure, entry):
            slow_calls.append(structure)
            time.sleep(0.06)  # over the 50 ms probe threshold

        fleet.replicas[0].server.fault_hook = sleeper
        try:
            sweeps = [fleet.checker.check_now() for __ in range(5)]
        finally:
            fleet.close()
        assert [sweep[0] for sweep in sweeps] == [False] * 5
        assert [sweep[1] for sweep in sweeps] == [True] * 5
        assert len(slow_calls) == 5
        history = fleet.checker.probe_history(0)
        assert [record["reason"] for record in history] == ["slow probe"] * 5
        assert not fleet.replicas[0].available


class TestUnavailabilityAccounting:
    def test_exact_zero_healthy_span(self, serve_fact4, serve_model4, selection4):
        clock = [100.0]
        fleet = make_fleet(
            serve_fact4,
            serve_model4,
            selection4,
            strike_limit=1,
            clock=lambda: clock[0],
        )
        try:
            fleet.replicas[0].record_strike("down", 1)
            fleet._health_event()
            assert fleet.unavailable_seconds == 0.0  # one replica left
            fleet.replicas[1].record_strike("down", 1)
            fleet._health_event()
            clock[0] = 107.5
            assert fleet.unavailable_seconds == 7.5
            assert fleet.replicas[0].record_probe_ok()
            fleet._health_event()
            clock[0] = 120.0
            assert fleet.unavailable_seconds == 7.5  # span closed exactly
        finally:
            fleet.close()

    def test_fleet_stats_shape(self, serve_fact4, serve_model4, selection4, log4):
        fleet = make_fleet(serve_fact4, serve_model4, selection4)
        try:
            fleet.serve_many(log4[:20])
            stats = fleet.stats()
        finally:
            fleet.close()
        assert stats["healthy"] == 2
        assert stats["routed"] == 20
        assert stats["exhausted"] == 0
        assert len(stats["replicas"]) == 2
        assert stats["replicas"][0]["frontend"]["live_workers"] >= 1
        assert stats["unavailable_seconds"] == 0.0
