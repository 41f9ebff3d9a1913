"""The steps the check harnesses share with each other and with ``repro``.

* :func:`golden_answers` — each entry answered by a scan of the raw
  cube (:func:`repro.serve.batch.execute_raw`).  The scan reads neither
  the selection nor the plan under test, and on integral measures every
  path's sums are exact, so a served answer is right when it is ``==``
  to its golden.
* :func:`score_answers` — wrong answers and typed failures over served
  results.
* :func:`run_checked` — the exit path: bad input (an ``OSError`` or a
  ``ValueError``) prints one ``error:`` line and exits 2, a failed check
  exits 1.

Harness reports go through :func:`repro.io.write_json`.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Sequence, Tuple

#: Every check held.
EXIT_OK = 0
#: A check failed (a wrong answer, a missed fault, a broken bound).
EXIT_FAILED = 1
#: Bad input: a missing or malformed file, an out-of-range flag.
EXIT_ERROR = 2


def golden_answers(fact, cost_model, entries: Sequence) -> List:
    """The raw-cube answer of every entry, in order."""
    # imported here: repro.cli loads this module for every command, and
    # only the serving checks need the serving stack
    from repro.serve.batch import execute_raw, raw_plan

    return [
        execute_raw(fact, entry, raw_plan(cost_model, entry.query)).groups
        for entry in entries
    ]


def score_answers(results: Sequence, golden: Sequence) -> Tuple[int, int]:
    """``(wrong, failed)`` over served results and their goldens.

    A :class:`~repro.serve.resilience.ServingError` in place of a result
    is a typed failure; any other result whose ``groups`` differ from
    its golden is a wrong answer.
    """
    from repro.serve.resilience import ServingError

    wrong = failed = 0
    for result, reference in zip(results, golden):
        if isinstance(result, ServingError):
            failed += 1
        elif result.groups != reference:
            wrong += 1
    return wrong, failed


def run_checked(command: Callable[[], int], traceback: bool = False) -> int:
    """Run a command and return its exit code; bad input exits 2.

    An ``OSError`` or ``ValueError`` escaping ``command`` (a missing or
    malformed file, an invalid budget or flag value, a stale checkpoint)
    prints one ``error: ...`` line on stderr and returns
    :data:`EXIT_ERROR`, or re-raises when ``traceback`` is set.
    """
    try:
        return command()
    except (OSError, ValueError) as exc:
        if traceback:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
