"""Serving front-end: one admission queue, one dispatcher.

:class:`ServingFrontend` is the request loop in front of a
:class:`~repro.serve.server.QueryServer` — the shape cubes' slicer
server has, scaled down to an in-process component.  Requests enter
through a **bounded admission queue** (one FIFO behind one condition
variable; a full queue blocks until ``timeout`` and then rejects, it
never grows unbounded), and one dispatcher thread drains it into
batches of the next ``batch_size`` entries in submission order, each
answered by the server's vectorized :meth:`serve_batch` and recorded
into the server's own telemetry collector as it finishes.

One thread, not none: the dispatcher runs every execution, so a client
waiting on its future can give up at a deadline even when one execution
hangs — which is how :class:`~repro.serve.fleet.ReplicaFleet` abandons a
slow replica.  One thread, not a pool: measured, extra workers lost to
serial batching on both throughput and tail latency.

**Supervision**: a dispatcher that dies outside the serve path fails its
in-flight batch with a typed
:class:`~repro.serve.resilience.WorkerCrashed` and is restarted (up to
``max_worker_restarts`` across the front-end's lifetime); once that
budget is spent, every queued future and every new submission fails
instead of hanging.  :meth:`close` likewise fails any still-queued
future with :class:`~repro.serve.resilience.FrontendClosed`.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Deque, List, Optional, Tuple

from repro.cube.query_log import LogEntry
from repro.serve.batch import DEFAULT_BATCH_SIZE
from repro.serve.resilience import FrontendClosed, ServingError, WorkerCrashed

#: Default bound on queued-but-unserved entries.
DEFAULT_QUEUE_DEPTH = 4096

#: Default lifetime budget of dispatcher restarts per front-end.
DEFAULT_MAX_WORKER_RESTARTS = 16


class AdmissionQueueFull(ServingError):
    """The bounded admission queue rejected a request (over capacity)."""


class ServingFrontend:
    """Admission queue and one dispatcher thread over a :class:`QueryServer`.

    Parameters
    ----------
    server:
        The query server whose :meth:`serve_batch` answers every batch.
    batch_size:
        Most entries the dispatcher drains into one ``serve_batch`` call.
    queue_depth:
        Bound on queued entries; once reached, :meth:`submit` blocks
        and raises :class:`AdmissionQueueFull` on timeout.
    max_worker_restarts:
        Lifetime budget of dispatcher restarts after crashes; past it
        the dispatcher stays down and every queued future fails with
        :class:`WorkerCrashed`.
    crash_hook:
        Optional ``hook()`` called after the dispatcher takes a batch and
        before it serves — the chaos harness's dispatcher-kill injection
        point (anything it raises crashes the dispatcher).
    """

    def __init__(
        self,
        server,
        batch_size: int = DEFAULT_BATCH_SIZE,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
        crash_hook=None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.server = server
        self.batch_size = int(batch_size)
        self.queue_depth = int(queue_depth)
        self.max_worker_restarts = int(max_worker_restarts)
        self.crash_hook = crash_hook
        self._cond = threading.Condition()
        self._queue: Deque[Tuple[LogEntry, Future]] = deque()
        self._inflight = 0
        self._closing = False
        self._abandon = False
        self._live = True
        self.submitted = 0
        self.served = 0
        self.rejected = 0
        self.batches = 0
        self.worker_crashes = 0
        self.worker_restarts = 0
        self._threads: List[threading.Thread] = []
        self._start_dispatcher()

    # -------------------------------------------------------------- submit

    def submit(
        self, entry: LogEntry, timeout: Optional[float] = None
    ) -> "Future[object]":
        """Queue one query; returns a future resolving to its
        :class:`~repro.serve.server.ServeOutcome`.

        A full queue blocks until space frees; ``timeout`` bounds the
        whole wait, however often the queue wakes it, and then raises
        :class:`AdmissionQueueFull` (``timeout=0`` rejects at once).
        Cancelling the future before the dispatcher takes the entry
        drops it unserved.
        """
        future: "Future[object]" = Future()
        with self._cond:
            if not self._cond.wait_for(self._admissible_locked, timeout):
                self.rejected += 1
                raise AdmissionQueueFull(
                    f"admission queue still at capacity ({self.queue_depth}) "
                    f"after {timeout}s"
                )
            if self._closing:
                raise FrontendClosed("frontend is closed")
            self._check_live_locked()
            self._queue.append((entry, future))
            self.submitted += 1
            self._cond.notify_all()
        return future

    def _admissible_locked(self) -> bool:
        """A blocked submit may stop waiting: space, closing, or a
        dispatcher that is down for good."""
        return (
            self._closing or not self._live or len(self._queue) < self.queue_depth
        )

    # ---------------------------------------------------------- dispatcher

    def _check_live_locked(self) -> None:
        """Fail fast (under the condition lock) once the dispatcher has
        crashed for good — blocking submitters must not hang on a queue
        that can never drain."""
        if not self._live:
            raise WorkerCrashed(
                f"dispatcher crashed ({self.worker_crashes} crashes, restart "
                f"budget {self.max_worker_restarts} spent)"
            )

    def _start_dispatcher(self) -> None:
        thread = threading.Thread(
            target=self._dispatch,
            name=f"serve-dispatcher-{len(self._threads)}",
            daemon=True,
        )
        with self._cond:
            self._threads.append(thread)
        thread.start()

    def _take_batch(self) -> Optional[List[Tuple[LogEntry, Future]]]:
        """Wait for work; take the next ``batch_size`` entries in
        submission order.

        Returns ``None`` when closing and drained (or closing with
        ``drain=False`` — the abandoned queue is failed by :meth:`close`,
        not served)."""
        with self._cond:
            while not self._closing and not self._queue:
                self._cond.wait()
            if not self._queue or self._abandon:
                return None
            queue = self._queue
            batch = [queue.popleft() for __ in range(min(self.batch_size, len(queue)))]
            self._inflight += 1
            self._cond.notify_all()
            return batch

    def _dispatch(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # claim each future; one its client cancelled is dropped unserved
            batch = [item for item in batch if item[1].set_running_or_notify_cancel()]
            try:
                try:
                    if self.crash_hook is not None:
                        self.crash_hook()
                    entries = [entry for entry, __ in batch]
                    try:
                        outcomes = self.server.serve_batch(entries)
                    except Exception as exc:
                        # a serving error fails the batch, not the dispatcher
                        for __, future in batch:
                            future.set_exception(exc)
                    else:
                        for (__, future), outcome in zip(batch, outcomes):
                            future.set_result(outcome)
                finally:
                    with self._cond:
                        self._inflight -= 1
                        self.served += len(batch)
                        self.batches += 1
                        self._cond.notify_all()
            except BaseException as exc:
                # the dispatcher itself died (crash hook, future
                # bookkeeping, interpreter-level errors): supervise
                # instead of hanging
                self._on_crash(batch, exc)
                return

    def _on_crash(
        self, batch: List[Tuple[LogEntry, Future]], exc: BaseException
    ) -> None:
        """Supervision: fail the crashed batch with a typed error, then
        restart the dispatcher while budget lasts, or fail the queue."""
        error = WorkerCrashed(f"dispatcher crashed: {exc!r}")
        error.__cause__ = exc
        for __, future in batch:
            if not future.done():
                future.set_exception(error)
        self.server.telemetry.note_worker_crash()
        with self._cond:
            self.worker_crashes += 1
            restart = (
                not self._closing
                and self.worker_restarts < self.max_worker_restarts
            )
            if restart:
                self.worker_restarts += 1
            else:
                self._live = False
            self._cond.notify_all()
        if restart:
            self.server.telemetry.note_worker_restart()
            self._start_dispatcher()
        else:
            self._fail_pending(
                WorkerCrashed(
                    f"dispatcher crashed (restart budget "
                    f"{self.max_worker_restarts} spent); queued request failed"
                )
            )

    def _fail_pending(self, error: ServingError) -> None:
        """Fail every still-queued future with a typed error (never let
        a request hang on a queue nobody will drain)."""
        with self._cond:
            victims = [future for __, future in self._queue]
            self._queue.clear()
            self._cond.notify_all()
        for future in victims:
            if future.set_running_or_notify_cancel():  # not cancelled
                future.set_exception(error)

    # --------------------------------------------------------------- drain

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no batch is in flight."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and self._inflight == 0, timeout
            )

    def close(self, timeout: Optional[float] = None, drain: bool = True) -> None:
        """Stop the dispatcher.

        ``drain=True`` (default) serves the remaining queue first;
        ``drain=False`` abandons it — the dispatcher finishes only its
        current batch and every still-queued future fails with
        :class:`FrontendClosed`.  Either way no future is ever left
        pending: anything the dispatcher did not serve is failed typed.
        """
        with self._cond:
            self._closing = True
            if not drain:
                self._abandon = True
            self._cond.notify_all()
        # two passes: a restart approved just before _closing was set can
        # add one more thread while we snapshot the list
        for __ in range(2):
            with self._cond:
                threads = [t for t in self._threads if t.is_alive()]
            for thread in threads:
                thread.join(timeout)
        self._fail_pending(FrontendClosed("frontend closed with queued requests"))

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Front-end counters for reports and tests."""
        with self._cond:
            return {
                "batch_size": self.batch_size,
                "queue_depth": self.queue_depth,
                "submitted": self.submitted,
                "served": self.served,
                "rejected": self.rejected,
                "batches": self.batches,
                "pending": len(self._queue),
                "live_workers": int(self._live),
                "worker_crashes": self.worker_crashes,
                "worker_restarts": self.worker_restarts,
            }
