"""Campaign persistence: JSONL checkpoints and fingerprint dedup.

Two stores live here, both append-only JSONL so a kill mid-write costs at
most the final line:

* :class:`CheckpointStore` — the campaign's completed-result sink, one
  file. :func:`load_checkpoint` reads it back on resume, skipping torn,
  malformed or stale lines. Opening a store with ``resume=False``
  *truncates* the file — a rerun must not leave old lines behind for a
  later ``resume=True`` to trust.

* :class:`FingerprintStore` — the model checker's memory of explored
  schedules. Each record maps a *structural* schedule key (SHA-256 over
  the canonical schedule dict, seed label excluded — two structurally
  identical schedules execute identically) to the SHA-256 trace
  fingerprint its run produced. Sweeps consult it before dispatch so a
  schedule is never executed twice across campaigns, and coverage-guided
  exploration uses the set of known trace fingerprints to decide which
  runs discovered *new* behaviour.

A path either store cannot open is a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from typing import IO, Any, Dict, Optional, get_origin, get_type_hints

from repro.campaign.spec import (
    VERDICT_TIMEOUT,
    VERDICT_WORKER_CRASH,
    ScenarioResult,
)
from repro.errors import ConfigurationError

__all__ = [
    "CheckpointStore",
    "FingerprintStore",
    "load_checkpoint",
    "schedule_key",
]


def _open(path: str, mode: str, what: str) -> IO:
    """``open(path, mode)``, with an :class:`OSError` turned into a
    :class:`ConfigurationError` naming ``what`` the file is."""
    try:
        return open(path, mode)
    except OSError as error:
        raise ConfigurationError(f"cannot open {what}: {error}") from None


def _ends_mid_line(path: str) -> bool:
    """True when the file at ``path`` is non-empty and its last line has
    no newline."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


class CheckpointStore:
    """Append-only JSONL sink of completed scenario results.

    Every write is flushed immediately. ``resume=True`` appends to the
    file, ``resume=False`` truncates it first; ``path=None`` disables
    persistence entirely.
    """

    def __init__(self, path: Optional[str], resume: bool = False) -> None:
        self._handle: Optional[IO[str]] = None
        if path:
            self._handle = _open(path, "a" if resume else "w", "checkpoint")
            if resume and _ends_mid_line(path):
                # A kill cut the last write short: start on a fresh line,
                # so the first resumed result is not glued to the stump.
                self._handle.write("\n")

    def write(self, result: ScenarioResult) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(result.to_dict()) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


#: The JSON type each :class:`ScenarioResult` field must hold, from its
#: annotation (``List[int]`` -> ``list``).
_FIELD_TYPES = {
    name: get_origin(hint) or hint
    for name, hint in get_type_hints(ScenarioResult).items()
}


def _well_typed(name: str, value: Any) -> bool:
    """True when ``value`` may stand in ``ScenarioResult.<name>``: an int
    may stand for a float, a bool for nothing but a bool."""
    expected = _FIELD_TYPES[name]
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _checkpointed(line: bytes, population) -> Optional[ScenarioResult]:
    """The result one checkpoint line records, or ``None`` for a line
    resume must not trust: torn, not a JSON object, missing a required
    field or holding one of the wrong type, naming an index outside the
    campaign, carrying a seed other than that of ``population``'s
    scenario at its index, or a ``timeout`` or ``worker_crash`` verdict —
    those tell how a worker fared, not what the scenario does, so a
    resumed campaign runs the scenario again."""
    try:
        raw = json.loads(line)
    except ValueError:  # UnicodeDecodeError included: lines are read as bytes
        return None
    if not isinstance(raw, dict) or not all(
        _well_typed(name, raw[name]) for name in _FIELD_TYPES.keys() & raw.keys()
    ):
        return None
    try:
        result = ScenarioResult.from_dict(raw)
    except TypeError:
        return None
    if not 0 <= result.index < len(population):
        return None
    if result.seed != population[result.index].seed:
        return None
    if result.verdict in (VERDICT_TIMEOUT, VERDICT_WORKER_CRASH):
        return None
    return result


def load_checkpoint(path: str, population) -> Dict[int, ScenarioResult]:
    """Completed results from a (possibly truncated) checkpoint file.

    Torn, non-object, wrongly typed, out-of-range and stale lines, and
    the timeouts and worker crashes, are skipped, not trusted; a missing
    file holds nothing. Duplicate indexes
    resolve to the last line — results are a function of the scenario
    only, so any copy is the same result.
    """
    completed: Dict[int, ScenarioResult] = {}
    if not os.path.exists(path):
        return completed
    with _open(path, "rb", "checkpoint") as handle:
        for line in handle:
            result = _checkpointed(line, population)
            if result is not None:
                completed[result.index] = result
    return completed


# -- fingerprint store ---------------------------------------------------------


def schedule_key(schedule) -> str:
    """Structural identity of a fault schedule: SHA-256 over its canonical
    dict with the ``seed`` label removed.

    The seed is an identification label, not an input to execution (the
    run is deterministic in the schedule's structure), so two schedules
    that differ only in seed share a key — and dedup across enumeration,
    sampling and mutation paths works.
    """
    raw = schedule.to_dict()
    raw.pop("seed", None)
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class FingerprintStore:
    """Persistent record of explored schedules and their trace fingerprints.

    One JSONL line per explored schedule::

        {"format": "repro.check/2", "schedule": <structural key>,
         "trace": <trace fingerprint>, "verdict": "ok", "seed": 17}

    ``format`` is :data:`repro.check.artifact.FORMAT`, the stamp of the
    trace shape the fingerprint was hashed over. A line with another stamp
    or none answers for traces this code can no longer produce, so loading
    ignores it (``stale`` counts them; one stderr line reports the count).

    ``lookup`` answers "has this schedule ever been executed?" before
    dispatch; ``record`` persists a finished run and reports whether its
    trace fingerprint was *new* — the novelty signal coverage-guided
    exploration feeds on. ``path=None`` keeps the store in memory only.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        # Deferred: ``repro.check`` imports this module.
        from repro.check.artifact import FORMAT

        self._path = path
        self._format = FORMAT
        self._records: Dict[str, Dict[str, Any]] = {}
        self._traces: set = set()
        self._handle: Optional[IO[str]] = None
        self._lock = threading.Lock()
        #: How many lookups found an existing record (dedup hits).
        self.hits = 0
        #: How many stored lines were ignored for carrying another format
        #: stamp, or none.
        self.stale = 0
        if path and os.path.exists(path):
            with _open(path, "r", "fingerprint store") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        raw = json.loads(line)
                    except ValueError:
                        continue  # truncated final line
                    if not isinstance(raw, dict):
                        continue
                    key = raw.get("schedule")
                    trace = raw.get("trace")
                    if not key or not trace:
                        continue
                    if raw.get("format") != FORMAT:
                        self.stale += 1
                        continue
                    self._records[key] = raw
                    self._traces.add(trace)
            if self.stale:
                print(
                    f"fingerprint store {path}: ignored {self.stale} "
                    f"line(s) not stamped {FORMAT} (recorded over another "
                    "trace format)",
                    file=sys.stderr,
                )
        if path:
            self._handle = _open(path, "a", "fingerprint store")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    @property
    def trace_count(self) -> int:
        """How many distinct trace fingerprints the store has seen."""
        return len(self._traces)

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for a schedule key, or None if unexplored."""
        record = self._records.get(key)
        if record is not None:
            self.hits += 1
        return record

    def is_new_trace(self, trace: str) -> bool:
        """True when ``trace`` has never been recorded."""
        return trace not in self._traces

    def record(self, key: str, trace: str, verdict: str, seed: int = 0) -> bool:
        """Persist one explored schedule; return True when its trace
        fingerprint was new (the run discovered behaviour the store had
        never seen)."""
        with self._lock:
            novel = trace not in self._traces
            self._traces.add(trace)
            if key not in self._records:
                raw = {
                    "format": self._format,
                    "schedule": key,
                    "trace": trace,
                    "verdict": verdict,
                    "seed": seed,
                }
                self._records[key] = raw
                if self._handle is not None:
                    self._handle.write(
                        json.dumps(raw, sort_keys=True) + "\n"
                    )
                    self._handle.flush()
            return novel

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "FingerprintStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
