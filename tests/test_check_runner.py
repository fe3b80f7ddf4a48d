"""Deterministic schedule execution, minimization and artifacts.

The replay contract lives here: the same schedule always produces the same
trace fingerprint, planted mutations produce violations the minimizer
shrinks, and counterexample artifacts round-trip bit-for-bit.
"""

import io
import json

import pytest

from repro.check import (
    Fault,
    FaultSchedule,
    minimize_schedule,
    read_artifact,
    replay_artifact,
    run_schedule,
    write_artifact,
)
from repro.check.artifact import FORMAT, iter_slice
from repro.check.runner import expected_members
from repro.check.schedule import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_INCONSISTENT,
)
from repro.check.selftest import MUTATIONS, minimize_planted
from repro.errors import CheckError

# The duplicate-delivery mutation only manifests when some node learns a
# failure from the FDA frame alone (and so requests a retransmission,
# producing the second physical copy): keep a non-member on the bus.
CRASH = FaultSchedule(
    nodes=5, members=4, faults=(Fault(ACTION_CRASH, node=2, at_ms=25.0),)
)


# -- expected survivor set ----------------------------------------------------------


def test_expected_members_folds_timed_actions():
    schedule = FaultSchedule(
        nodes=5,
        members=4,
        faults=(
            Fault(ACTION_CRASH, node=1),
            Fault(ACTION_JOIN, node=4, at_ms=25.0),
            Fault(ACTION_LEAVE, node=0, at_ms=60.0),
        ),
    )
    assert expected_members(schedule) == {2, 3, 4}


def test_expected_members_counts_crash_sender():
    schedule = FaultSchedule(
        nodes=4,
        members=4,
        faults=(
            Fault(
                ACTION_OMIT,
                node=1,
                frame_type="ELS",
                omission=OMISSION_INCONSISTENT,
                accepting=(2,),
                crash_sender=True,
            ),
        ),
    )
    assert expected_members(schedule) == {0, 2, 3}


def _parent_expected_members(schedule):
    """``expected_members`` as it stood before the fold moved into the
    builder (PR 16), kept verbatim as the oracle."""
    members = set(range(schedule.members))
    timed = sorted(
        (f for f in schedule.faults if f.action != ACTION_OMIT),
        key=lambda f: f.at_ms,
    )
    for fault in timed:
        if fault.action == ACTION_CRASH:
            members.discard(fault.node)
        elif fault.action == ACTION_LEAVE:
            members.discard(fault.node)
        elif fault.action == ACTION_JOIN:
            members.add(fault.node)
    for fault in schedule.faults:
        if fault.action == ACTION_OMIT and fault.crash_sender:
            members.discard(fault.node)
    return members


def test_the_one_survivor_fold_matches_the_parent_on_whole_populations():
    import random

    from repro.check import CheckSweep

    depth_two = CheckSweep(depth=2).population()
    population = CheckSweep(depth=1).population() + random.Random(0).sample(
        depth_two, 400
    )
    assert len(population) == 460
    for schedule in population:
        assert expected_members(schedule) == _parent_expected_members(schedule)


def test_run_schedule_expectation_is_the_schedule_fold():
    """The builder folds recorded intent, minus the nodes found down; on a
    run whose sender-crash fault fires that is ``expected_members(schedule)``."""
    schedule = FaultSchedule(
        nodes=5,
        members=4,
        faults=(
            Fault(ACTION_JOIN, node=4, at_ms=25.0),
            Fault(
                ACTION_OMIT,
                node=1,
                frame_type="ELS",
                omission=OMISSION_INCONSISTENT,
                accepting=(2,),
                crash_sender=True,
            ),
        ),
    )
    result = run_schedule(schedule)
    assert result.ok
    assert result.expected_members == sorted(expected_members(schedule))
    assert result.final_members == [0, 2, 3, 4]


# -- run_schedule -------------------------------------------------------------------


def test_fault_free_schedule_is_ok():
    result = run_schedule(FaultSchedule(nodes=4, members=4))
    assert result.ok
    assert result.final_members == [0, 1, 2, 3]
    assert result.expected_members == [0, 1, 2, 3]
    assert len(result.fingerprint) == 64
    assert result.events > 0


def test_crash_schedule_detects_and_agrees():
    result = run_schedule(CRASH)
    assert result.ok
    assert result.final_members == [0, 1, 3]


def test_fingerprint_is_deterministic():
    assert run_schedule(CRASH).fingerprint == run_schedule(CRASH).fingerprint


def test_fingerprint_separates_behaviours():
    other = FaultSchedule(
        nodes=5, members=4, faults=(Fault(ACTION_LEAVE, node=2, at_ms=25.0),)
    )
    assert run_schedule(CRASH).fingerprint != run_schedule(other).fingerprint


def test_planted_mutation_yields_violation():
    with MUTATIONS["fda-duplicate-delivery"].plant():
        result = run_schedule(CRASH)
    assert result.violating
    assert result.monitor == "no-duplicate-failure-sign"
    assert result.violation_slice  # the offending trace window rides along
    round_tripped = type(result).from_dict(result.to_dict())
    assert round_tripped.schedule == CRASH
    assert round_tripped.fingerprint == result.fingerprint


def test_missed_detection_mutation_fails_final_state():
    with MUTATIONS["fd-missed-detection"].plant():
        result = run_schedule(CRASH)
    assert result.violating
    assert result.monitor == "final-state"
    assert 2 in set(result.final_members)  # the crashed node never left


# -- minimizer ----------------------------------------------------------------------


def test_minimize_rejects_passing_schedule():
    with pytest.raises(ValueError, match="violating"):
        minimize_schedule(CRASH)


def test_minimize_shrinks_to_single_relevant_fault():
    padded = FaultSchedule(
        nodes=5,
        members=4,
        faults=(
            Fault(ACTION_OMIT, frame_type="ELS", nth=1),
            Fault(ACTION_CRASH, node=2, at_ms=25.0),
            Fault(ACTION_JOIN, node=4, at_ms=60.0),
        ),
    )
    outcome = minimize_planted("fda-duplicate-delivery", padded)
    assert outcome.result.violating
    assert outcome.schedule.depth == 1
    assert outcome.schedule.faults[0].action == ACTION_CRASH
    assert outcome.runs <= 10  # ddmin + cache keeps the oracle budget tiny


def test_minimize_respects_run_budget():
    padded = FaultSchedule(
        nodes=5,
        members=4,
        faults=(
            Fault(ACTION_CRASH, node=2, at_ms=25.0),
            Fault(ACTION_OMIT, frame_type="FDA"),
        ),
    )
    outcome = minimize_planted("fda-duplicate-delivery", padded, max_runs=1)
    # Budget exhausted after the entry probe: the original comes back,
    # still violating.
    assert outcome.schedule == padded
    assert outcome.result.violating
    assert outcome.runs == 1


# -- artifacts ----------------------------------------------------------------------


def _violating_result():
    with MUTATIONS["fda-duplicate-delivery"].plant():
        return run_schedule(CRASH)


def test_artifact_roundtrip_file(tmp_path):
    result = _violating_result()
    path = str(tmp_path / "cex.jsonl")
    write_artifact(path, result, extra={"mutation": "fda-duplicate-delivery"})
    schedule, expected, header = read_artifact(path)
    assert schedule == CRASH
    assert expected["verdict"] == "violation"
    assert expected["fingerprint"] == result.fingerprint
    assert header["format"] == FORMAT
    assert header["mutation"] == "fda-duplicate-delivery"
    assert list(iter_slice(path)) == result.violation_slice


def test_replay_reproduces_bit_for_bit(tmp_path):
    result = _violating_result()
    path = str(tmp_path / "cex.jsonl")
    write_artifact(path, result)
    with MUTATIONS["fda-duplicate-delivery"].plant():
        fresh, expected = replay_artifact(path)
    assert fresh.fingerprint == result.fingerprint
    assert expected["monitor"] == result.monitor


def test_replay_detects_behaviour_drift(tmp_path):
    """Replaying a mutation-recorded artifact on clean code must fail
    loudly — the artifact describes behaviour this code does not have."""
    result = _violating_result()
    path = str(tmp_path / "cex.jsonl")
    write_artifact(path, result)
    with pytest.raises(CheckError, match="did not reproduce"):
        replay_artifact(path)


def test_artifact_accepts_io_handles():
    result = _violating_result()
    buffer = io.StringIO()
    write_artifact(buffer, result)
    buffer.seek(0)
    schedule, expected, _header = read_artifact(buffer)
    assert schedule == CRASH
    assert expected["fingerprint"] == result.fingerprint


def test_truncated_artifact_rejected():
    with pytest.raises(CheckError, match="truncated"):
        read_artifact(io.StringIO(json.dumps({"format": FORMAT}) + "\n"))


def test_wrong_format_rejected():
    lines = [json.dumps({"format": "other/9"})] * 3
    with pytest.raises(CheckError, match=f"not a {FORMAT} artifact"):
        read_artifact(io.StringIO("\n".join(lines)))


def test_previous_format_artifact_rejected():
    """A ``repro.check/1`` artifact fingerprints per-receiver delivery rows
    this code no longer writes: it must fail as another format, not replay
    to a misleading "did not reproduce the recorded run"."""
    assert FORMAT == "repro.check/2"
    result = run_schedule(CRASH)
    buffer = io.StringIO()
    write_artifact(buffer, result)
    old = buffer.getvalue().replace(FORMAT, "repro.check/1", 1)
    with pytest.raises(CheckError, match="not a repro.check/2 artifact"):
        replay_artifact(io.StringIO(old))


def test_malformed_json_rejected():
    with pytest.raises(CheckError, match="malformed artifact header"):
        read_artifact(io.StringIO("not json\n{}\n{}\n"))
    with pytest.raises(CheckError, match="not an object"):
        read_artifact(io.StringIO("[1]\n{}\n{}\n"))


def test_summary_missing_fingerprint_rejected():
    lines = [
        json.dumps({"format": FORMAT}),
        json.dumps(FaultSchedule().to_dict()),
        json.dumps({"verdict": "violation"}),  # no fingerprint
    ]
    with pytest.raises(CheckError, match="lacks 'fingerprint'"):
        read_artifact(io.StringIO("\n".join(lines)))


def test_run_schedule_on_the_swim_backend_across_segments():
    result = run_schedule(CRASH, backend="swim", segments=2)
    assert result.ok
    assert result.final_members == [0, 1, 3]
