"""Deterministic scenario execution, minimization and artifacts.

The replay contract lives here: the same scenario always produces the same
trace fingerprint, planted mutations produce violations the minimizer
shrinks, and counterexample artifacts round-trip bit-for-bit — whether
the scenario came from the checker, a campaign draw or an older artifact.
"""

import io
import json
import os
from dataclasses import replace

import pytest

from repro.campaign import CampaignSpec
from repro.check import (
    minimize_schedule,
    read_artifact,
    replay_artifact,
    write_artifact,
)
from repro.check.artifact import FORMAT, iter_slice
from repro.check.selftest import MUTATIONS
from repro.errors import CheckError, ConfigurationError
from repro.workloads.builder import expected_survivors
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict
from repro.workloads.scenario import (
    ACTION_BABBLE,
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    ACTION_STORM,
    OMISSION_INCONSISTENT,
    Action,
    Scenario,
    play,
    run,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def minimize_planted(mutation, schedule, max_runs=200):
    """Minimize ``schedule`` with ``mutation`` planted."""
    with MUTATIONS[mutation].plant():
        return minimize_schedule(schedule, max_runs=max_runs)

# The duplicate-delivery mutation only manifests when some node learns a
# failure from the FDA frame alone (and so requests a retransmission,
# producing the second physical copy): keep a non-member on the bus.
CRASH = Scenario(
    nodes=5, members=4, actions=(Action(ACTION_CRASH, node=2, at_ms=25.0),)
)


def expected_members(schedule):
    """The survivor set predicted from ``schedule`` alone: timed actions
    fold in ``at_ms`` order, sender-crash omissions count as a crash of
    their sender."""
    return expected_survivors(
        range(schedule.members),
        [(a.at_ms, a.action, a.node) for a in schedule.actions if a.action != ACTION_OMIT],
        doomed=[a.node for a in schedule.actions if a.crash_sender],
    )


# -- expected survivor set ----------------------------------------------------------


def test_expected_members_folds_timed_actions():
    schedule = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_CRASH, node=1),
            Action(ACTION_JOIN, node=4, at_ms=25.0),
            Action(ACTION_LEAVE, node=0, at_ms=60.0),
        ),
    )
    assert expected_members(schedule) == {2, 3, 4}
    assert run(schedule).expected_members == [2, 3, 4]


def test_expected_members_counts_crash_sender():
    schedule = Scenario(
        nodes=4,
        members=4,
        actions=(
            Action(
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
    assert run(schedule).expected_members == [0, 2, 3]


def _parent_expected_members(schedule):
    """``expected_members`` as it stood before the fold moved into the
    builder (PR 16), kept verbatim as the oracle."""
    members = set(range(schedule.members))
    timed = sorted(
        (f for f in schedule.actions if f.action != ACTION_OMIT),
        key=lambda f: f.at_ms,
    )
    for fault in timed:
        if fault.action == ACTION_CRASH:
            members.discard(fault.node)
        elif fault.action == ACTION_LEAVE:
            members.discard(fault.node)
        elif fault.action == ACTION_JOIN:
            members.add(fault.node)
    for fault in schedule.actions:
        if fault.action == ACTION_OMIT and fault.crash_sender:
            members.discard(fault.node)
    return members


def test_the_one_survivor_fold_matches_the_parent_on_whole_populations():
    import random

    from repro.check import CheckSweep

    depth_two = list(CheckSweep(depth=2))
    population = list(CheckSweep(depth=1)) + random.Random(0).sample(
        depth_two, 400
    )
    assert len(population) == 460
    for schedule in population:
        assert expected_members(schedule) == _parent_expected_members(schedule)


def test_run_schedule_expectation_is_the_schedule_fold():
    """The builder folds recorded intent, minus the nodes found down; on a
    run whose sender-crash fault fires that is ``expected_members(schedule)``."""
    schedule = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_JOIN, node=4, at_ms=25.0),
            Action(
                ACTION_OMIT,
                node=1,
                frame_type="ELS",
                omission=OMISSION_INCONSISTENT,
                accepting=(2,),
                crash_sender=True,
            ),
        ),
    )
    result = run(schedule)
    assert result.ok
    assert result.expected_members == sorted(expected_members(schedule))
    assert result.final_members == [0, 2, 3, 4]


# -- run -------------------------------------------------------------------------


def test_fault_free_schedule_is_ok():
    result = run(Scenario(nodes=4, members=4))
    assert result.ok
    assert result.final_members == [0, 1, 2, 3]
    assert result.expected_members == [0, 1, 2, 3]
    assert len(result.fingerprint) == 64
    assert result.events > 0


def test_crash_schedule_detects_and_agrees():
    result = run(CRASH)
    assert result.ok
    assert result.final_members == [0, 1, 3]


def test_fingerprint_is_deterministic():
    assert run(CRASH).fingerprint == run(CRASH).fingerprint


def test_fingerprint_separates_behaviours():
    other = Scenario(
        nodes=5, members=4, actions=(Action(ACTION_LEAVE, node=2, at_ms=25.0),)
    )
    assert run(CRASH).fingerprint != run(other).fingerprint


def test_planted_mutation_yields_violation():
    with MUTATIONS["fda-duplicate-delivery"].plant():
        result = run(CRASH)
    assert result.violating
    assert result.monitor == "no-duplicate-failure-sign"
    assert result.violation_slice  # the offending trace window rides along
    assert Scenario.from_dict(result.scenario.to_dict()) == CRASH


def test_missed_detection_mutation_fails_final_state():
    with MUTATIONS["fd-missed-detection"].plant():
        result = run(CRASH)
    assert result.violating
    assert result.monitor == "final-state"
    assert 2 in set(result.final_members)  # the crashed node never left


# -- minimizer ----------------------------------------------------------------------


def test_minimize_rejects_passing_schedule():
    with pytest.raises(ValueError, match="violating"):
        minimize_schedule(CRASH)


def test_minimize_shrinks_to_single_relevant_fault():
    padded = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_OMIT, frame_type="ELS", nth=1),
            Action(ACTION_CRASH, node=2, at_ms=25.0),
            Action(ACTION_JOIN, node=4, at_ms=60.0),
        ),
    )
    outcome = minimize_planted("fda-duplicate-delivery", padded)
    assert outcome.result.violating
    assert outcome.schedule.depth == 1
    assert outcome.schedule.actions[0].action == ACTION_CRASH
    assert outcome.runs <= 10  # ddmin + cache keeps the oracle budget tiny


def test_minimize_respects_run_budget():
    padded = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_CRASH, node=2, at_ms=25.0),
            Action(ACTION_OMIT, frame_type="FDA"),
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
        return run(CRASH)


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
    result = run(CRASH)
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
        json.dumps(Scenario().to_dict()),
        json.dumps({"verdict": "violation"}),  # no fingerprint
    ]
    with pytest.raises(CheckError, match="lacks 'fingerprint'"):
        read_artifact(io.StringIO("\n".join(lines)))


def test_run_schedule_on_the_swim_backend_across_segments():
    result = run(replace(CRASH, backend="swim", segments=2))
    assert result.ok
    assert result.final_members == [0, 1, 3]


# -- one validator -------------------------------------------------------------------


@pytest.mark.parametrize(
    "action, field",
    [
        (Action(ACTION_CRASH, node=1, at_ms=-5.0), "at_ms"),
        (Action(ACTION_OMIT, frame_type="FDA", nth=-1), "nth"),
        (Action(ACTION_OMIT, frame_type="BOGUS"), "frame_type"),
        (
            Action(
                ACTION_OMIT,
                frame_type="FDA",
                omission=OMISSION_INCONSISTENT,
                accepting=(9,),
            ),
            "accepting",
        ),
        (Action(ACTION_OMIT, frame_type="ELS", node=42), "node 42"),
    ],
)
def test_malformed_actions_are_rejected_on_construction(action, field):
    """Each of these used to run, to a ``bootstrap_failed`` verdict or a
    silent ``ok``; the validator refuses the scenario instead."""
    with pytest.raises(ConfigurationError, match=field):
        Scenario(actions=(action,))


@pytest.mark.parametrize(
    "settings, field",
    [
        ({"actions": [Action(ACTION_BABBLE)]}, "bits"),
        ({"actions": [Action(ACTION_STORM, probability=0.5)]}, "bits"),
        ({"actions": [Action(ACTION_BABBLE, bits=10)], "channels": 2},
         "single-channel"),
        ({"actions": [Action(ACTION_STORM, bits=10, probability=0.5)],
          "channels": 2}, "single-channel"),
        ({"actions": [Action(ACTION_BABBLE, node=1, bits=10)]}, "node 1"),
        ({"actions": [Action(ACTION_STORM, bits=10)]}, "probability"),
        ({"actions": [Action(ACTION_STORM, bits=10, probability=1.5)]},
         "probability"),
        ({"actions": [Action(ACTION_STORM, bits=10, probability=0.9)],
          "inconsistent_probability": 0.2}, "probability"),
        ({"actions": [Action(ACTION_CRASH, node=1, probability=0.5)]},
         "probability"),
        ({"actions": [Action(ACTION_OMIT, frame_type="ELS", count=0)]}, "count"),
        ({"actions": [Action(ACTION_CRASH, node=1, count=2)]}, "count"),
        ({"traffic": [(0, 10.0, -1.0)]}, "traffic"),
        ({"traffic": [(0, 10.0, 1.0, 2.0)]}, "traffic"),
        ({"gateway_latency_ms": -1.0}, "gateway"),
        ({"gateway_queue_limit": 0}, "gateway"),
        ({"bus_off_recovery": 1}, "bus_off_recovery"),
        ({"fail_after_ms": 30.0}, "fail_after_ms"),
        ({"backend": "swim", "suspicion_timeout_ms": -1.0}, "suspicion_timeout_ms"),
    ],
)
def test_the_catalog_hooks_are_validated(settings, field):
    """Babbles, storms, omission bursts, traffic offsets, the gateway, bus-off
    recovery and SWIM's bounds are data the one validator checks."""
    with pytest.raises(ConfigurationError, match=field):
        Scenario(**settings)


def test_omit_is_armed_at_its_instant_and_hits_count_frames():
    """An ``omit`` at ``at_ms > 0`` is armed then, not at bootstrap end, and
    faults ``count`` matching frames."""
    burst = Action(ACTION_OMIT, node=1, frame_type="ELS", count=2)
    faulted = {}
    for at_ms in (0.0, 100.0):
        builder = play(Scenario(run_ms=200.0, actions=[replace(burst, at_ms=at_ms)]))
        trace = builder.network.sim.trace
        faulted[at_ms] = [
            row.time - builder.start
            for row in trace.select(category="bus.tx")
            if record_to_dict(row)["data"]["kind"] != "none"
        ]
        assert builder.network.bus.injector.omissions_injected == 2
    assert len(faulted[0.0]) == len(faulted[100.0]) == 2
    assert max(faulted[0.0]) < ms(100) <= min(faulted[100.0])


def test_hand_edited_artifact_names_the_bad_field(tmp_path):
    path = str(tmp_path / "cex.jsonl")
    write_artifact(path, _violating_result())
    with open(path) as handle:
        lines = handle.read().splitlines()
    scenario = json.loads(lines[1])
    scenario["faults"][0]["at_ms"] = -25.0
    lines[1] = json.dumps(scenario)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="malformed artifact scenario: .*at_ms"):
        read_artifact(path)


# -- any scenario is a counterexample ------------------------------------------------


def test_campaign_violation_minimizes_to_a_replayable_artifact(tmp_path):
    """A campaign draw is a scenario like any checker schedule: under a
    planted bug its violation shrinks to one crash, is written as an
    artifact and replays bit-for-bit; unplanted, the minimal run is ok."""
    scenario = CampaignSpec(scenarios=4, seed=1)[1]
    assert [a.action for a in scenario.actions] == [ACTION_CRASH] * 3
    path = str(tmp_path / "campaign-1.jsonl")
    with MUTATIONS["fd-missed-detection"].plant():
        outcome = minimize_schedule(scenario)
        assert outcome.result.monitor == "final-state"
        assert outcome.schedule.depth == 1
        assert outcome.schedule.actions[0].action == ACTION_CRASH
        write_artifact(path, outcome.result)
        fresh, expected = replay_artifact(path)
    assert fresh.fingerprint == outcome.result.fingerprint == expected["fingerprint"]
    assert read_artifact(path)[0] == outcome.schedule
    assert run(outcome.schedule).ok


#: Kernel events of the artifact's replay. The artifact records 1101: it
#: was written while a CAN frame cost three bus events (arbitration,
#: completion, the end of the interframe space) and an arbitration could
#: find nothing to send. A frame costs two now, and the trace — hence the
#: fingerprint — is unchanged.
ARTIFACT_REPLAY_EVENTS = 790


def test_previous_release_artifact_still_replays():
    """``selftest_fd_missed_detection.jsonl`` was written by the release
    before scenarios were one type; re-planting its mutation reproduces it."""
    path = os.path.join(GOLDEN, "selftest_fd_missed_detection.jsonl")
    scenario, expected, header = read_artifact(path)
    assert header["mutation"] == "fd-missed-detection"
    assert scenario.depth == header["faults"] == 1
    with MUTATIONS[header["mutation"]].plant():
        fresh, _ = replay_artifact(path)
    assert fresh.fingerprint == expected["fingerprint"]
    assert expected["events"] == 1101
    assert fresh.events == ARTIFACT_REPLAY_EVENTS
