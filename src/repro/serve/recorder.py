"""Streaming workload recorder: the observed query log, on disk.

The recorder appends every served query to a JSONL file in the
:mod:`repro.io` query-log format (one record per line), so a serving
session's observed workload can be replayed later — or fed back into the
advisor — exactly as :func:`repro.io.load_query_log` reads it.  Writes
are line-atomic under a lock, so threads serving one server (a
dispatcher and its health probes) can share one recorder.

The file is opened **line-buffered**, so every recorded entry reaches
the OS as soon as :meth:`record` returns — a server killed mid-stream
(crash, SIGKILL, power loss) leaves a log of complete lines that
:func:`~repro.io.load_query_log` loads without repair.  The recorder is
a context manager; :meth:`close` runs on exception exits too (and
:meth:`QueryServer.close` closes its recorder on server shutdown), so
the normal paths flush-and-close deterministically.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.io import log_entry_to_dict

PathLike = Union[str, Path]


class WorkloadRecorder:
    """Append-only JSONL writer for observed queries.

    Parameters
    ----------
    path:
        Target file; opened lazily on the first record and truncated
        (one recorder = one recording session).  ``None`` keeps the log
        in memory only (:attr:`entries`).
    """

    def __init__(self, path: Optional[PathLike] = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._file = None
        self._entries: List = []
        self._closed = False

    @property
    def entries(self) -> List:
        """The recorded entries, in arrival order (a copy)."""
        with self._lock:
            return list(self._entries)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record(self, entry) -> None:
        """Append one :class:`~repro.cube.query_log.LogEntry`.

        The line is flushed to the OS before this returns (line
        buffering), so a kill between records never truncates the log
        mid-line.
        """
        line = json.dumps(log_entry_to_dict(entry), sort_keys=True)
        with self._lock:
            if self._closed:
                raise ValueError("recorder is closed")
            self._entries.append(entry)
            if self.path is not None:
                if self._file is None:
                    self._file = open(self.path, "w", buffering=1)
                self._file.write(line)
                self._file.write("\n")

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        """Flush and close; an empty recording still leaves a valid
        (empty) log file behind.  Idempotent — safe to call from both
        an exception handler and the server's shutdown path."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.path is not None and self._file is None:
                self.path.touch()
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "WorkloadRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
