"""Every backend is judged online by the monitors it brings.

CANELy and SWIM run the same depth-1 schedule spaces, on one bus and on two
gateway-bridged segments, with their monitors attached: correct code gives
no trip. Two bugs planted in SWIM show the backend-neutral monitors bite: a
forged CONFIRM trips ``no-phantom-removal`` and minimizes to one fault; a
dropped CONFIRM fails the final state.
"""

import contextlib
import functools
from dataclasses import replace

import pytest

from repro.campaign import VERDICT_OK, CampaignSpec, run_campaign
from repro.check import CheckSweep, minimize_schedule
from repro.check.explorer import ScheduleSpace
from repro.core.stack import CanelyNetwork
from repro.obs.monitors import (
    DetectionLatencyMonitor,
    DuplicateFailureSignMonitor,
    PhantomRemovalMonitor,
    ViewAgreementMonitor,
)
from repro.swim.protocol import ALIVE, CONFIRM, SwimProtocol
from repro.workloads.scenario import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_OMIT,
    OMISSION_INCONSISTENT,
    Action,
    Scenario,
    run,
)

#: The default alphabet omits CANELy frame types only, which SWIM never
#: sends; this space aims its omissions at SWIM's own frames.
SWIM_FRAMES = ScheduleSpace(frame_types=("SWIM",))



def on(backend, segments=1):
    """The run of a checker schedule moved onto ``backend``/``segments``."""
    return lambda schedule: run(
        replace(schedule, backend=backend, segments=segments)
    )


swim_schedule = on("swim")


def _population(space):
    return list(CheckSweep(space=space, depth=1))


@pytest.mark.parametrize("segments", [1, 2])
@pytest.mark.parametrize(
    "backend, space",
    [
        ("canely", ScheduleSpace()),
        ("swim", ScheduleSpace()),
        ("swim", SWIM_FRAMES),
    ],
    ids=["canely", "swim", "swim-frames"],
)
def test_every_depth_one_schedule_is_ok_under_the_backends_monitors(
    backend, space, segments
):
    failures = [
        (result.scenario, result.monitor, result.detail)
        for result in map(on(backend, segments), _population(space))
        if not result.ok
    ]
    assert failures == []


def test_a_sender_crash_fault_that_never_fires_dooms_nobody():
    """SWIM sends no ELS: the fault stays armed, node 0 stays up and in."""
    schedule = Scenario(
        nodes=4,
        members=4,
        actions=(
            Action(
                ACTION_OMIT,
                node=0,
                frame_type="ELS",
                omission=OMISSION_INCONSISTENT,
                accepting=(1,),
                crash_sender=True,
            ),
        ),
    )
    result = swim_schedule(schedule)
    assert result.ok
    assert result.final_members == result.expected_members == [0, 1, 2, 3]


def test_each_backend_attaches_its_own_monitors():
    canely = CanelyNetwork(node_count=4).attach_monitors()
    assert [type(m) for m in canely] == [
        DuplicateFailureSignMonitor,
        ViewAgreementMonitor,
        PhantomRemovalMonitor,
        DetectionLatencyMonitor,
    ]
    swim_net = CanelyNetwork(node_count=4, backend="swim")
    swim = swim_net.attach_monitors()
    assert [type(m) for m in swim] == [
        PhantomRemovalMonitor,
        DetectionLatencyMonitor,
    ]
    assert swim[1].bound == swim_net.config.detection_latency_bound


def test_a_monitored_swim_campaign_on_two_segments_is_ok():
    spec = CampaignSpec(scenarios=3, seed=1, backend="swim", segments=2)
    results = run_campaign(spec, workers=0)
    assert [r.verdict for r in results] == [VERDICT_OK] * 3
    assert all(r.latencies for r in results)


# -- planted SWIM bugs ------------------------------------------------------------


@contextlib.contextmanager
def _patched(mutated):
    original = SwimProtocol._on_suspicion_expire
    # Under the method's own name: a network pickles bound methods by name.
    SwimProtocol._on_suspicion_expire = functools.update_wrapper(
        mutated, original
    )
    try:
        yield
    finally:
        SwimProtocol._on_suspicion_expire = original


def forged_confirm():
    """On suspicion expiry, also confirm the lowest live member failed."""
    original = SwimProtocol._on_suspicion_expire

    def mutated(self, node_id):
        original(self, node_id)
        live = [n for n, m in self._members.items() if m.status == ALIVE]
        if live:
            victim = min(live)
            incarnation = self._members[victim].incarnation
            self._broadcast(CONFIRM, victim, incarnation)
            self._remove(victim, incarnation, failed=True)

    return _patched(mutated)


def dropped_confirm():
    """A suspicion that expires is neither confirmed nor removed."""
    return _patched(lambda self, node_id: None)


def _violations(space):
    return [
        result
        for result in map(swim_schedule, _population(space))
        if not result.ok
    ]


def test_a_forged_confirm_is_a_phantom_removal_that_minimizes_to_one_fault():
    with forged_confirm():
        violations = _violations(SWIM_FRAMES)
    assert violations
    assert {r.monitor for r in violations} == {"no-phantom-removal"}

    crash = next(
        r.scenario.actions[0]
        for r in violations
        if r.scenario.actions[0].action == ACTION_CRASH
    )
    padded = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_OMIT, frame_type="SWIM", nth=1),
            crash,
            Action(ACTION_JOIN, node=4, at_ms=60.0),
        ),
    )
    with forged_confirm():
        outcome = minimize_schedule(padded, oracle=swim_schedule)
    assert outcome.result.monitor == "no-phantom-removal"
    assert outcome.schedule.actions == (crash,)
    assert swim_schedule(outcome.schedule).ok  # un-planted: quiet


def test_a_dropped_confirm_fails_the_final_state():
    with dropped_confirm():
        violations = _violations(SWIM_FRAMES)
    assert violations
    assert {r.monitor for r in violations} == {"final-state"}
