"""Replayable counterexample artifacts.

When the checker finds a violation it emits one JSONL artifact that is the
whole story: a header line identifying the format and code version, the
minimal (post-ddmin) scenario, the violated invariant, the trace
fingerprint the scenario must reproduce, and the offending trace slice for
human eyes. ``repro check --replay artifact.jsonl`` re-executes the
scenario and verifies **bit-for-bit reproduction**: same verdict, same
violated monitor, same complete-trace fingerprint.

The format is line-oriented so artifacts stream into the same tooling as
trace exports and campaign checkpoints:

* line 1 — header: ``{"format": "repro.check/2", "seed": ..., ...}``
* line 2 — the scenario (``Scenario.to_dict()``)
* line 3 — the result summary (verdict, monitor, detail, fingerprint)
* remaining lines — the violation's trace slice, one record per line
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import CheckError, ConfigurationError
from repro.workloads.scenario import Result, Scenario, run

#: Stamped on every artifact header and every
#: :class:`~repro.campaign.store.FingerprintStore` line. The complete-trace
#: fingerprint is a hash over trace rows, so the stamp changes whenever
#: their shape does: ``/2`` is one ``bus.deliver`` row per frame (``/1``
#: wrote one per receiver).
FORMAT = "repro.check/2"


def write_artifact(
    target: Union[str, IO[str]],
    result: Result,
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``result`` (typically a minimized violation) as an artifact.

    ``extra`` merges additional keys into the header line — the selftest
    records the planted mutation there so ``repro check --replay`` can
    re-plant it and still reproduce the run bit-for-bit.
    """
    own = isinstance(target, str)
    handle: IO[str] = open(target, "w") if own else target
    try:
        header = {
            "format": FORMAT,
            "verdict": result.verdict,
            "monitor": result.monitor,
            "seed": result.scenario.seed,
            "faults": result.scenario.depth,
        }
        if extra:
            header.update(extra)
        handle.write(json.dumps(header) + "\n")
        handle.write(json.dumps(result.scenario.to_dict()) + "\n")
        summary = {
            "verdict": result.verdict,
            "monitor": result.monitor,
            "detail": result.detail,
            "fingerprint": result.fingerprint,
            "events": result.events,
            "final_members": result.final_members,
            "expected_members": result.expected_members,
        }
        handle.write(json.dumps(summary) + "\n")
        for record in result.violation_slice:
            handle.write(json.dumps(record) + "\n")
    finally:
        if own:
            handle.close()


def read_artifact(
    source: Union[str, IO[str]],
) -> Tuple[Scenario, Dict[str, Any], Dict[str, Any]]:
    """Load an artifact; returns ``(scenario, expected summary, header)``.

    Raises :class:`~repro.errors.CheckError` on a malformed or
    wrong-format file — a truncated or hand-broken artifact must fail
    loudly, naming what is wrong, not replay the wrong scenario.
    """
    own = isinstance(source, str)
    handle: IO[str] = open(source) if own else source
    try:
        lines = _required_lines(handle, 3)
        header = _parse(lines[0], "header")
        if header.get("format") != FORMAT:
            raise CheckError(
                f"not a {FORMAT} artifact: format={header.get('format')!r}"
            )
        try:
            scenario = Scenario.from_dict(_parse(lines[1], "scenario"))
        except (ConfigurationError, TypeError) as error:
            raise CheckError(f"malformed artifact scenario: {error}") from None
        expected = _parse(lines[2], "result summary")
        for key in ("verdict", "fingerprint"):
            if key not in expected:
                raise CheckError(f"artifact result summary lacks {key!r}")
        return scenario, expected, header
    finally:
        if own:
            handle.close()


def replay_artifact(
    source: Union[str, IO[str]],
) -> Tuple[Result, Dict[str, Any]]:
    """Re-execute an artifact's scenario and verify bit-for-bit reproduction.

    Returns ``(fresh result, expected summary)`` when the replay matches;
    raises :class:`~repro.errors.CheckError` when the verdict, violated
    monitor or complete-trace fingerprint differ — which means the code's
    behaviour changed since the artifact was recorded (a fixed bug, an
    intended protocol change, or a regression in determinism).

    Artifacts recorded under a planted mutation (a ``mutation`` key in the
    header) only reproduce with that mutation re-planted; the ``repro
    check --replay`` CLI does that automatically.
    """
    scenario, expected, _header = read_artifact(source)
    result = run(scenario)
    mismatches = []
    if result.verdict != expected["verdict"]:
        mismatches.append(
            f"verdict: got {result.verdict!r}, "
            f"artifact has {expected['verdict']!r}"
        )
    if expected.get("monitor") and result.monitor != expected["monitor"]:
        mismatches.append(
            f"monitor: got {result.monitor!r}, "
            f"artifact has {expected['monitor']!r}"
        )
    if result.fingerprint != expected["fingerprint"]:
        mismatches.append(
            f"trace fingerprint: got {result.fingerprint[:16]}..., "
            f"artifact has {str(expected['fingerprint'])[:16]}..."
        )
    if mismatches:
        raise CheckError(
            "replay did not reproduce the recorded run:\n  "
            + "\n  ".join(mismatches)
        )
    return result, expected


def _required_lines(handle: IO[str], count: int) -> Tuple[str, ...]:
    lines = []
    for line in handle:
        line = line.strip()
        if line:
            lines.append(line)
        if len(lines) == count:
            return tuple(lines)
    raise CheckError(
        f"truncated artifact: expected at least {count} lines, "
        f"found {len(lines)}"
    )


def _parse(line: str, what: str) -> Dict[str, Any]:
    try:
        parsed = json.loads(line)
    except ValueError as error:
        raise CheckError(f"malformed artifact {what}: {error}") from error
    if not isinstance(parsed, dict):
        raise CheckError(f"malformed artifact {what}: not an object")
    return parsed


def iter_slice(source: Union[str, IO[str]]) -> Iterator[Dict[str, Any]]:
    """The trace-slice records of an artifact (lines 4+), parsed."""
    own = isinstance(source, str)
    handle: IO[str] = open(source) if own else source
    try:
        for index, line in enumerate(handle):
            if index < 3 or not line.strip():
                continue
            yield _parse(line.strip(), f"trace record on line {index + 1}")
    finally:
        if own:
            handle.close()
