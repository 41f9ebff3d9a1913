"""Resilience primitives for the serving layer.

Three small, composable pieces keep a degraded server *correct* instead
of wedged:

* a **typed error hierarchy** rooted at :class:`ServingError` — every
  failure the serving stack can hand a caller (a crashed dispatcher, a
  closed front-end, an exhausted retry budget, a fleet with no healthy
  replica) is a distinct class, so callers and the chaos harness can
  tell "degraded but accounted for" apart from "bug";
* a per-structure **circuit breaker** (:class:`CircuitBreaker`) — the
  classic closed → open → half-open automaton.  Repeated executor
  errors against one materialized structure trip its circuit; while
  open, the batch executor short-circuits that structure onto the
  raw-cube fallback (degraded-but-correct: the raw path answers every
  slice query, just slower).  After a cooldown one probe execution is
  allowed through (half-open); success closes the circuit, failure
  re-opens it;
* a **retry policy** (:class:`RetryPolicy`) — bounded attempts with
  jittered exponential backoff, used by the replica fleet's router to
  re-route a failed or timed-out query to another healthy replica.

Both the breaker and the policy take injectable clocks / RNGs so tests
and the chaos harness are deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Consecutive executor errors against one structure before its circuit
#: trips (the "configured error threshold" of the acceptance criteria).
BREAKER_FAILURE_THRESHOLD = 3

#: Seconds an open circuit waits before allowing one half-open probe.
BREAKER_COOLDOWN_SECONDS = 5.0

#: Retry backoff: each delay is the previous one times this, at most
#: ``RETRY_MAX_DELAY`` seconds, then scaled by a uniform factor in
#: ``[1 - RETRY_JITTER, 1 + RETRY_JITTER]``.
RETRY_MULTIPLIER = 2.0
RETRY_MAX_DELAY = 0.5
RETRY_JITTER = 0.5

#: Circuit states (string-valued for easy snapshotting).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


# ------------------------------------------------------------- errors


class ServingError(RuntimeError):
    """Base class of every typed serving-layer failure.

    Anything the resilience machinery *expects* and accounts for raises
    a subclass of this; an exception outside the hierarchy reaching a
    caller means an unhandled bug, and the chaos harness treats it as a
    failed run.
    """


class WorkerCrashed(ServingError):
    """A front-end dispatcher thread died; the affected queries were
    failed (never left hanging) and the dispatcher was restarted if
    budget allows."""


class FrontendClosed(ServingError):
    """The front-end shut down with this query still queued."""


class QueryTimeout(ServingError):
    """A query missed its per-attempt deadline on one replica."""


class NoHealthyReplica(ServingError):
    """The fleet router found no healthy replica to try.

    Carries ``strikes`` — per-replica diagnostic state at raise time
    (``{replica_id: {"strikes": n, "dead": bool, "healthy": bool,
    "last_reason": str}}``) — so a caller can see *why* every replica
    was out of rotation instead of just that it was.
    """

    def __init__(self, message: str, strikes: Optional[dict] = None):
        super().__init__(message)
        self.strikes = dict(strikes) if strikes is not None else {}


class RetriesExhausted(ServingError):
    """Every allowed attempt failed; carries the last underlying error."""

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        last_error: Optional[BaseException] = None,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


# ------------------------------------------------------------ breaker


class CircuitBreaker:
    """Per-structure circuit breaker over executor errors.

    Thread-safe; one instance guards every structure of one server (the
    state dict is keyed by structure label).  ``on_trip`` / ``on_reset``
    are called *outside* the internal lock with the structure label —
    the server wires them to its telemetry counters.
    """

    def __init__(
        self,
        failure_threshold: int = BREAKER_FAILURE_THRESHOLD,
        cooldown_seconds: float = BREAKER_COOLDOWN_SECONDS,
        clock: Callable[[], float] = time.monotonic,
        on_trip: Optional[Callable[[str], None]] = None,
        on_reset: Optional[Callable[[str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self.clock = clock
        self.on_trip = on_trip
        self.on_reset = on_reset
        import threading

        self._lock = threading.Lock()
        self._circuits: Dict[str, dict] = {}
        self.trips = 0
        self.resets = 0

    def _circuit(self, structure: str) -> dict:
        circuit = self._circuits.get(structure)
        if circuit is None:
            circuit = {
                "state": BREAKER_CLOSED,
                "failures": 0,
                "opened_at": 0.0,
                "probing": False,
            }
            self._circuits[structure] = circuit
        return circuit

    def allow(self, structure: str) -> bool:
        """May this structure be executed against right now?

        Closed: yes.  Open: no, until the cooldown elapses — then the
        circuit moves to half-open and exactly one caller gets a probe.
        Half-open: only the probe holder; everyone else short-circuits.
        """
        with self._lock:
            circuit = self._circuit(structure)
            state = circuit["state"]
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_OPEN:
                if self.clock() - circuit["opened_at"] < self.cooldown_seconds:
                    return False
                circuit["state"] = BREAKER_HALF_OPEN
                circuit["probing"] = True
                return True
            # half-open: one probe at a time
            if circuit["probing"]:
                return False
            circuit["probing"] = True
            return True

    def record_failure(self, structure: str) -> bool:
        """One executor error against the structure; returns ``True``
        when this failure tripped (or re-tripped) the circuit."""
        callback = None
        with self._lock:
            circuit = self._circuit(structure)
            state = circuit["state"]
            tripped = False
            if state == BREAKER_HALF_OPEN:
                tripped = True  # the probe failed: straight back to open
            else:
                circuit["failures"] += 1
                if circuit["failures"] >= self.failure_threshold:
                    tripped = True
            if tripped:
                circuit["state"] = BREAKER_OPEN
                circuit["opened_at"] = self.clock()
                circuit["failures"] = 0
                circuit["probing"] = False
                self.trips += 1
                callback = self.on_trip
        if callback is not None:
            callback(structure)
        return tripped

    def record_success(self, structure: str) -> bool:
        """One successful execution; returns ``True`` when it closed a
        half-open circuit."""
        callback = None
        with self._lock:
            circuit = self._circuit(structure)
            closed = False
            if circuit["state"] == BREAKER_HALF_OPEN:
                circuit["state"] = BREAKER_CLOSED
                circuit["probing"] = False
                circuit["failures"] = 0
                self.resets += 1
                closed = True
                callback = self.on_reset
            elif circuit["state"] == BREAKER_CLOSED:
                circuit["failures"] = 0
        if callback is not None:
            callback(structure)
        return closed

    def state(self, structure: str) -> str:
        with self._lock:
            circuit = self._circuits.get(structure)
            return circuit["state"] if circuit is not None else BREAKER_CLOSED

    def open_structures(self) -> List[str]:
        """Labels whose circuits are currently open or half-open."""
        with self._lock:
            return sorted(
                label
                for label, circuit in self._circuits.items()
                if circuit["state"] != BREAKER_CLOSED
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "trips": self.trips,
                "resets": self.resets,
                "states": {
                    label: circuit["state"]
                    for label, circuit in sorted(self._circuits.items())
                },
            }


# -------------------------------------------------------------- retry


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    ``delay(attempt)`` is ``base_delay * RETRY_MULTIPLIER**attempt``
    capped at :data:`RETRY_MAX_DELAY`, then scaled by a uniform jitter in
    ``[1 - RETRY_JITTER, 1 + RETRY_JITTER]`` — the standard decorrelation
    so a thundering herd of retries does not re-land in lockstep.
    """

    max_attempts: int = 3
    base_delay: float = 0.01

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(RETRY_MAX_DELAY, self.base_delay * RETRY_MULTIPLIER**attempt)
        if rng is not None:
            raw *= 1.0 + RETRY_JITTER * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)
