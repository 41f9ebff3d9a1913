"""Serving front-end: admission bounds, batches in submission order, one
dispatcher thread, and telemetry indistinguishable from serial serving."""

import sys
import threading
import time

import pytest

from repro.cube.query_log import generate_query_log
from repro.serve import (
    AdmissionQueueFull,
    QueryServer,
    ReplicaFleet,
    ServingFrontend,
    validate_telemetry,
)

from tests.serve.test_server import advise_selection


@pytest.fixture
def server4(serve_fact4, serve_model4):
    return QueryServer(
        serve_fact4,
        advise_selection(serve_model4.lattice),
        cost_model=serve_model4,
    )


class _BlockedFirstBatch:
    """Wraps serve_batch so the first batch parks on an event — a
    deterministic way to stage work behind a busy dispatcher."""

    def __init__(self, server):
        self.real = server.serve_batch
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def __call__(self, entries):
        self.batches.append(list(entries))
        if len(self.batches) == 1:
            self.started.set()
            assert self.release.wait(10)
        return self.real(entries)


class TestAdmission:
    def test_bounded_queue_rejects_when_full(self, server4, serve_schema4):
        log = generate_query_log(serve_schema4, 8, rng=1)
        blocker = _BlockedFirstBatch(server4)
        server4.serve_batch = blocker
        frontend = ServingFrontend(server4, queue_depth=2)
        try:
            frontend.submit(log[0])
            assert blocker.started.wait(10)  # dispatcher busy; queue empty
            frontend.submit(log[1])
            frontend.submit(log[2])  # queue at capacity
            with pytest.raises(AdmissionQueueFull):
                frontend.submit(log[3], timeout=0)
            with pytest.raises(AdmissionQueueFull):
                frontend.submit(log[4], timeout=0.05)
            assert frontend.rejected == 2
        finally:
            blocker.release.set()
            frontend.close()
        assert frontend.stats()["served"] == 3

    def test_blocking_submit_waits_for_space(self, server4, serve_schema4):
        log = generate_query_log(serve_schema4, 6, rng=2)
        blocker = _BlockedFirstBatch(server4)
        server4.serve_batch = blocker
        frontend = ServingFrontend(server4, queue_depth=1)
        frontend.submit(log[0])
        assert blocker.started.wait(10)
        frontend.submit(log[1])  # fills the queue
        unblocked = threading.Event()

        def late_submit():
            frontend.submit(log[2])  # must block until the dispatcher drains
            unblocked.set()

        thread = threading.Thread(target=late_submit, daemon=True)
        thread.start()
        assert not unblocked.wait(0.1), "submit did not block on a full queue"
        blocker.release.set()
        assert unblocked.wait(10)
        thread.join(10)
        frontend.close()
        assert frontend.stats()["served"] == 3

    def test_submit_after_close_raises(self, server4, serve_schema4):
        frontend = ServingFrontend(server4)
        frontend.close()
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit(generate_query_log(serve_schema4, 1, rng=3)[0])

    def test_invalid_parameters(self, server4):
        with pytest.raises(ValueError, match="batch_size"):
            ServingFrontend(server4, batch_size=0)
        with pytest.raises(ValueError, match="queue_depth"):
            ServingFrontend(server4, queue_depth=0)


class TestOrder:
    def test_batches_take_entries_in_submission_order(
        self, server4, serve_schema4
    ):
        """Interleaved submitters share one FIFO: behind a busy
        dispatcher, each batch is the next ``batch_size`` entries in the
        order they were submitted, whichever thread submitted them."""
        log = generate_query_log(serve_schema4, 41, rng=4)
        blocker = _BlockedFirstBatch(server4)
        server4.serve_batch = blocker
        frontend = ServingFrontend(server4, batch_size=8)
        submitted, lock = [], threading.Lock()

        def submitter(k):
            for entry in log[1 + k :: 4]:
                with lock:  # the lock order is the submission order
                    frontend.submit(entry)
                    submitted.append(entry)

        try:
            frontend.submit(log[0])
            assert blocker.started.wait(10)
            threads = [
                threading.Thread(target=submitter, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            blocker.release.set()
            frontend.close()  # serves the queue first
        assert len(submitted) == len(log) - 1
        assert blocker.batches[1:] == [
            submitted[lo : lo + 8] for lo in range(0, len(submitted), 8)
        ]


class TestMergedTelemetry:
    def test_counters_equal_serial(self, serve_fact4, serve_schema4, serve_model4):
        """The dispatcher records into the server's own collector as
        batches finish: before close its counters equal a serial run's,
        and closing (twice) adds nothing."""
        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 200, rng=5)
        serial = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        serial.replay(log)
        fronted = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        frontend = ServingFrontend(fronted, batch_size=16)
        futures = [frontend.submit(entry) for entry in log]
        outcomes = [future.result(30) for future in futures]
        assert len(outcomes) == 200
        assert fronted.telemetry.queries == 200  # live, before close
        frontend.close()
        frontend.close()  # idempotent: no double counting
        doc = validate_telemetry(fronted.telemetry_snapshot())
        reference = serial.telemetry_snapshot()
        assert doc["queries"] == 200
        assert doc["merged_from"] == 1
        assert len(doc["records"]) == 200
        assert doc["hits"] == reference["hits"]
        assert doc["fallbacks"] == reference["fallbacks"]
        assert doc["cost"]["predicted_rows"] == reference["cost"]["predicted_rows"]
        assert doc["cost"]["actual_rows"] == reference["cost"]["actual_rows"]
        assert doc["cost"]["exact_matches"] == reference["cost"]["exact_matches"]

    def test_live_fleet_counts_every_query_before_close(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        """A serving fleet's merged telemetry is complete while it runs,
        not only once its front-ends close."""
        from repro.serve import ServingError

        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 200, rng=6)
        fleet = ReplicaFleet(
            serve_fact4, selection, replicas=2, cost_model=serve_model4
        )
        try:
            results = fleet.serve_many(log)
            merged = fleet.merged_telemetry()
            assert merged.queries == len(log)
            assert merged.merged_from == 3  # the fleet's own + 2 replicas
        finally:
            fleet.close()
        assert not any(isinstance(r, ServingError) for r in results)
        assert fleet.merged_telemetry().queries == len(log)

    def test_worker_exception_propagates_to_future(
        self, server4, serve_schema4
    ):
        entry = generate_query_log(serve_schema4, 1, rng=7)[0]

        def boom(entries):
            raise RuntimeError("injected execution failure")

        server4.serve_batch = boom
        with ServingFrontend(server4) as frontend:
            future = frontend.submit(entry)
            with pytest.raises(RuntimeError, match="injected"):
                future.result(10)

    def test_replay_through_frontend_keeps_cache_coherent(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        """A log served twice through the front-end with the cache on
        still answers exactly."""
        from repro.serve import ResultCache

        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 150, rng=8)
        plain = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        plain.replay(log)
        cached = QueryServer(
            serve_fact4,
            selection,
            cost_model=serve_model4,
            cache=ResultCache(),
        )
        with ServingFrontend(cached) as frontend:
            for __ in range(2):  # second pass: mostly hits
                for future in [frontend.submit(entry) for entry in log]:
                    future.result(30)
        assert cached.cache.hits > 0
        a, b = plain.telemetry_snapshot(), cached.telemetry_snapshot()
        assert b["queries"] == 300
        assert b["cost"]["exact_matches"] == 300
        assert b["cost"]["actual_rows"] == 2 * a["cost"]["actual_rows"]
        assert b["fallbacks"] == 0


class TestDispatcher:
    def test_one_thread_until_a_crash_restart(self, server4, serve_schema4):
        """One dispatcher thread serves every batch; a crash hands over
        to exactly one new thread."""
        from repro.serve import WorkerCrashed

        log = generate_query_log(serve_schema4, 24, rng=10)
        real = server4.serve_batch
        serving = []

        def recording(entries):
            serving.append(threading.current_thread())
            return real(entries)

        server4.serve_batch = recording
        crash = threading.Event()

        def crash_hook():
            if crash.is_set():
                crash.clear()
                raise KeyboardInterrupt("injected dispatcher death")

        before = set(threading.enumerate())

        def dispatchers():
            return {
                thread
                for thread in threading.enumerate()
                if thread not in before
                and thread.name.startswith("serve-dispatcher")
            }

        frontend = ServingFrontend(server4, batch_size=1, crash_hook=crash_hook)
        try:
            (first,) = dispatchers()
            for entry in log[:12]:
                frontend.submit(entry).result(10)
            assert set(serving) == {first}
            crash.set()
            with pytest.raises(WorkerCrashed):
                frontend.submit(log[12]).result(10)
            for entry in log[13:]:
                frontend.submit(entry).result(10)
            first.join(10)
            assert not first.is_alive()
            (second,) = set(serving) - {first}
            assert dispatchers() == {second}
            assert frontend.stats()["live_workers"] == 1
        finally:
            frontend.close()
        assert not second.is_alive()

    def test_submit_timeout_bounds_the_whole_wait(self, server4, serve_schema4):
        """Wake-ups on a still-full queue do not restart a submit's
        timeout: it raises once, after ``timeout`` seconds in all."""
        log = generate_query_log(serve_schema4, 3, rng=11)
        blocker = _BlockedFirstBatch(server4)
        server4.serve_batch = blocker
        frontend = ServingFrontend(server4, queue_depth=1)
        stop = threading.Event()

        def poke():  # a notify every 20 ms for one second
            for __ in range(50):
                if stop.wait(0.02):
                    return
                with frontend._cond:
                    frontend._cond.notify_all()

        poker = threading.Thread(target=poke, daemon=True)
        try:
            frontend.submit(log[0])
            assert blocker.started.wait(10)
            frontend.submit(log[1])  # queue at capacity
            poker.start()
            start = time.monotonic()
            with pytest.raises(AdmissionQueueFull):
                frontend.submit(log[2], timeout=0.2)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            blocker.release.set()
            frontend.close()
        poker.join(5)
        assert not poker.is_alive()
        assert 0.2 <= elapsed < 0.5


class TestCancellation:
    def test_cancelled_entries_are_dropped_under_contention(
        self, server4, serve_schema4
    ):
        """More clients than cores cancel half their futures while the
        dispatcher takes batches: every future ends cancelled or
        answered, the dispatcher never crashes on a cancelled future,
        and only answered entries are served and recorded."""
        log = generate_query_log(serve_schema4, 64, rng=3)
        frontend = ServingFrontend(server4, batch_size=8)
        futures, lock = [], threading.Lock()

        def client(k):
            mine = [frontend.submit(entry) for entry in log]
            for future in mine[k % 2 :: 2]:
                future.cancel()
            with lock:
                futures.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            frontend.close(timeout=30)
        answered = [future for future in futures if not future.cancelled()]
        assert len(futures) == 6 * len(log) and all(f.done() for f in futures)
        assert all(future.exception() is None for future in answered)
        assert 0 < len(answered) < len(futures)
        stats = frontend.stats()
        assert stats["worker_crashes"] == 0
        assert stats["served"] == len(answered) == server4.telemetry.snapshot()["queries"]


class TestWorkerSupervision:
    """A crashed dispatcher restarts; its queries fail typed, never hang."""

    def test_crash_fails_inflight_future_typed(self, server4, serve_schema4):
        from repro.serve import WorkerCrashed

        calls = [0]

        def crash_once():
            calls[0] += 1
            if calls[0] == 1:
                raise KeyboardInterrupt("injected dispatcher death")

        entry = generate_query_log(serve_schema4, 1, rng=0)[0]
        with ServingFrontend(server4, crash_hook=crash_once) as fe:
            future = fe.submit(entry)
            with pytest.raises(WorkerCrashed) as info:
                future.result(10)
            assert isinstance(info.value.__cause__, KeyboardInterrupt)
            # supervision restarted the dispatcher: serving continues
            assert fe.submit(entry).result(10).groups is not None
            stats = fe.stats()
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] == 1
        assert stats["live_workers"] == 1

    def test_crash_lands_in_telemetry(self, server4, serve_schema4):
        calls = [0]

        def crash_once():
            calls[0] += 1
            if calls[0] == 1:
                raise SystemExit(3)

        log = generate_query_log(serve_schema4, 40, rng=1)
        frontend = ServingFrontend(server4, crash_hook=crash_once)
        for entry in log:
            try:
                frontend.submit(entry).result(10)
            except RuntimeError:
                pass
        frontend.close()
        resilience = server4.telemetry.resilience_stats()
        assert resilience["worker_crashes"] == 1
        assert resilience["worker_restarts"] == 1

    def test_restart_budget_exhausted_fails_pending_typed(
        self, server4, serve_schema4
    ):
        from repro.serve import WorkerCrashed

        def always_crash():
            raise KeyboardInterrupt("dead on arrival")

        log = generate_query_log(serve_schema4, 8, rng=2)
        frontend = ServingFrontend(
            server4, max_worker_restarts=0, crash_hook=always_crash
        )
        future = frontend.submit(log[0])
        with pytest.raises(WorkerCrashed):
            future.result(10)
        # the dispatcher is down: submits fail fast instead of queueing
        with pytest.raises(WorkerCrashed):
            deadline = 50
            for entry in log[1:]:
                frontend.submit(entry).result(10)
                deadline -= 1
                assert deadline > 0
        stats = frontend.stats()
        assert stats["live_workers"] == 0
        frontend.close()

    def test_close_without_drain_fails_queued_typed(
        self, server4, serve_schema4
    ):
        from repro.serve import FrontendClosed

        wrapper = _BlockedFirstBatch(server4)
        server4.serve_batch = wrapper
        log = generate_query_log(serve_schema4, 6, rng=3)
        frontend = ServingFrontend(server4, batch_size=1)
        first = frontend.submit(log[0])
        assert wrapper.started.wait(10)
        queued = [frontend.submit(entry) for entry in log[1:]]
        wrapper.release.set()
        frontend.close(drain=False)
        assert first.result(10).groups is not None  # in-flight completes
        for future in queued:
            with pytest.raises(FrontendClosed):
                future.result(10)

    def test_drain_close_still_serves_queue(self, server4, serve_schema4):
        wrapper = _BlockedFirstBatch(server4)
        server4.serve_batch = wrapper
        log = generate_query_log(serve_schema4, 6, rng=4)
        frontend = ServingFrontend(server4, batch_size=1)
        futures = [frontend.submit(entry) for entry in log]
        assert wrapper.started.wait(10)
        wrapper.release.set()
        frontend.close(drain=True)
        for future in futures:
            assert future.result(10).groups is not None
