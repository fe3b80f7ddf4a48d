"""Campaign persistence: sharded JSONL checkpoints and fingerprint dedup.

Two stores live here, both append-only JSONL so a kill mid-write costs at
most the final line:

* :class:`CheckpointStore` — the campaign's completed-result sink. The
  base path holds shardless writes (the local executors); a distributed
  executor routes each worker's results to its own numbered shard file
  (``campaign.0000.jsonl``, ``campaign.0001.jsonl``, ...) so concurrent
  writers never interleave inside one file. :func:`load_checkpoint` merges
  the base file and every shard on resume, skipping truncated or stale
  lines exactly like the single-file loader always did. Opening a store
  with ``resume=False`` *truncates* the base file and deletes stale
  shards — a rerun must not leave old lines behind for a later
  ``resume=True`` to trust.

* :class:`FingerprintStore` — the model checker's memory of explored
  schedules. Each record maps a *structural* schedule key (SHA-256 over
  the canonical schedule dict, seed label excluded — two structurally
  identical schedules execute identically) to the SHA-256 trace
  fingerprint its run produced. Sweeps consult it before dispatch so a
  schedule is never executed twice across campaigns, and coverage-guided
  exploration uses the set of known trace fingerprints to decide which
  runs discovered *new* behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
from typing import IO, Any, Dict, List, Optional

from repro.campaign.spec import ScenarioResult

__all__ = [
    "CheckpointStore",
    "FingerprintStore",
    "checkpoint_shard_paths",
    "load_checkpoint",
    "schedule_key",
]


def _shard_path(path: str, shard: int) -> str:
    """``campaign.jsonl`` + shard 2 -> ``campaign.0002.jsonl``."""
    root, ext = os.path.splitext(path)
    return f"{root}.{shard:04d}{ext}"


def checkpoint_shard_paths(path: str) -> List[str]:
    """Every existing checkpoint file for ``path``: the base, then the
    numbered shards in order."""
    paths = [path] if os.path.exists(path) else []
    root, ext = os.path.splitext(path)
    directory = os.path.dirname(path) or "."
    pattern = re.compile(
        re.escape(os.path.basename(root)) + r"\.(\d{4})" + re.escape(ext) + r"$"
    )
    shards = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = pattern.match(name)
            if match:
                shards.append((int(match.group(1)), os.path.join(directory, name)))
    paths.extend(p for _, p in sorted(shards))
    return paths


class CheckpointStore:
    """Append-only JSONL sink of completed scenario results, shardable.

    ``write(result)`` appends to the base path; ``write(result, shard=k)``
    appends to the numbered shard file, opened lazily so a local campaign
    never creates empty shards. All writes are flushed immediately and
    serialized under a lock, so concurrent executor threads can share one
    store. ``path=None`` disables persistence entirely.
    """

    def __init__(self, path: Optional[str], resume: bool = False) -> None:
        self._path = path
        self._handles: Dict[Optional[int], IO[str]] = {}
        self._lock = threading.Lock()
        if path and not resume:
            # A fresh (non-resumed) campaign must not accumulate stale
            # lines a later resume would trust: truncate the base file and
            # drop every shard left over from prior runs.
            open(path, "w").close()
            for stale in checkpoint_shard_paths(path):
                if stale != path:
                    os.remove(stale)

    def _handle(self, shard: Optional[int]) -> IO[str]:
        handle = self._handles.get(shard)
        if handle is None:
            assert self._path is not None
            target = self._path if shard is None else _shard_path(self._path, shard)
            handle = open(target, "a")
            self._handles[shard] = handle
        return handle

    def write(self, result: ScenarioResult, shard: Optional[int] = None) -> None:
        if self._path is None:
            return
        line = json.dumps(result.to_dict()) + "\n"
        with self._lock:
            handle = self._handle(shard)
            handle.write(line)
            handle.flush()

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def load_checkpoint(path: str, spec) -> Dict[int, ScenarioResult]:
    """Completed results from a (possibly truncated, possibly sharded)
    checkpoint.

    Merges the base file with every ``path``-derived shard file
    (``campaign.0000.jsonl``, ...). Lines that do not parse, name an index
    outside the campaign, or carry a seed that no longer matches
    ``spec.scenario_seed(index)`` (the spec changed under the checkpoint)
    are skipped, not trusted. Duplicate indexes across files resolve to the
    last one seen — results are a function of (scenario, seed) only, so
    any copy is the same result.
    """
    completed: Dict[int, ScenarioResult] = {}
    for file_path in checkpoint_shard_paths(path):
        with open(file_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    result = ScenarioResult.from_dict(raw)
                except (ValueError, TypeError):
                    continue  # truncated or foreign line
                if not 0 <= result.index < spec.scenarios:
                    continue
                if result.seed != spec.scenario_seed(result.index):
                    continue
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
            with open(path) as handle:
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
            self._handle = open(path, "a")

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
