"""The scenario data model, as the checker uses it, and systematic generation.

These pin the checker's search space: schedules are plain-data
:class:`~repro.workloads.scenario.Scenario` s that round-trip through JSON, the explorer enumerates deterministically in
breadth-first order, the admissibility filter enforces the paper's fault-
model degree bounds (MCAN3/LCAN4), and the guided sampler is a pure
function of its seed.
"""

import pytest

from repro.check import (
    ScheduleSpace,
    enumerate_schedules,
    sample_schedules,
)
from repro.check.explorer import schedule_population
from repro.errors import CheckError, ConfigurationError
from repro.workloads.scenario import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_INCONSISTENT,
    Action,
    Scenario,
)

#: A deliberately tiny space for tests that iterate populations.
SMALL = ScheduleSpace(
    nodes=3,
    members=3,
    crash_offsets_ms=(0.0,),
    frame_types=("FDA",),
    nth_frames=(0,),
)


# -- Action / Scenario validation ----------------------------------------------------


def _scenario(*actions):
    return Scenario(actions=actions)


def test_fault_rejects_unknown_action():
    with pytest.raises(ConfigurationError, match="unknown action"):
        _scenario(Action("explode", node=1))


def test_omit_fault_needs_frame_type():
    with pytest.raises(ConfigurationError, match="frame_type"):
        _scenario(Action(ACTION_OMIT))


def test_accepting_subset_requires_inconsistent_flavour():
    with pytest.raises(ConfigurationError, match="inconsistent"):
        _scenario(Action(ACTION_OMIT, frame_type="FDA", accepting=(1,)))


def test_timed_fault_needs_node():
    with pytest.raises(ConfigurationError, match="names node -1 outside"):
        _scenario(Action(ACTION_CRASH))


def test_schedule_rejects_fault_outside_population():
    with pytest.raises(ConfigurationError, match="outside"):
        Scenario(nodes=3, members=3, actions=(Action(ACTION_CRASH, node=7),))


def test_schedule_rejects_bad_population():
    with pytest.raises(ConfigurationError, match="bad population"):
        Scenario(nodes=4, members=1)
    with pytest.raises(ConfigurationError, match="bad population"):
        Scenario(nodes=4, members=5)


def test_fault_is_hashable_plain_data():
    fault = Action(
        ACTION_OMIT,
        frame_type="ELS",
        node=1,
        omission=OMISSION_INCONSISTENT,
        accepting=[2],  # lists normalize to tuples so the fault hashes
        crash_sender=True,
    )
    assert fault.accepting == (2,)
    assert hash(fault) == hash(
        Action(
            ACTION_OMIT,
            frame_type="ELS",
            node=1,
            omission=OMISSION_INCONSISTENT,
            accepting=(2,),
            crash_sender=True,
        )
    )


def test_schedule_json_roundtrip():
    schedule = Scenario(
        nodes=5,
        members=4,
        actions=(
            Action(ACTION_CRASH, node=2, at_ms=25.0),
            Action(ACTION_JOIN, node=4, at_ms=60.0),
            Action(
                ACTION_OMIT,
                frame_type="RHA",
                nth=1,
                omission=OMISSION_INCONSISTENT,
                accepting=(0,),
            ),
        ),
        run_ms=300.0,
        seed=17,
    )
    assert Scenario.from_dict(schedule.to_dict()) == schedule


def test_schedule_from_dict_rejects_unknown_fields():
    raw = Scenario().to_dict()
    raw["bogus"] = 1
    with pytest.raises(ConfigurationError, match="unknown scenario fields"):
        Scenario.from_dict(raw)
    with pytest.raises(ConfigurationError, match="bad action fields"):
        Action.from_dict({"action": ACTION_CRASH, "node": 0, "bogus": 1})


def test_without_drops_faults_by_index():
    faults = (
        Action(ACTION_CRASH, node=0),
        Action(ACTION_LEAVE, node=1, at_ms=25.0),
        Action(ACTION_CRASH, node=2, at_ms=60.0),
    )
    schedule = Scenario(nodes=5, members=5, actions=faults)
    reduced = schedule.without([0, 2])
    assert reduced.actions == (faults[1],)
    assert reduced.nodes == schedule.nodes
    assert schedule.depth == 3 and reduced.depth == 1


def test_describe_mentions_every_fault():
    schedule = Scenario(
        actions=(
            Action(ACTION_CRASH, node=1, at_ms=25.0),
            Action(
                ACTION_OMIT,
                frame_type="FDA",
                omission=OMISSION_INCONSISTENT,
                accepting=(0,),
            ),
        )
    )
    text = schedule.describe()
    assert "crash node 1 at +25ms" in text
    assert "omit FDA#0" in text
    assert "accepted-by=[0]" in text


# -- ScheduleSpace: alphabet and admissibility --------------------------------------


def test_default_alphabet_covers_all_action_kinds():
    """The default space must exercise crashes, leaves, joins (late
    joiners), consistent and inconsistent omissions, and duplicate-
    generation timing (crash_sender) — the tentpole's whole fault menu."""
    alphabet = ScheduleSpace().alphabet
    actions = {fault.action for fault in alphabet}
    assert actions == {ACTION_CRASH, ACTION_JOIN, ACTION_LEAVE, ACTION_OMIT}
    omissions = [f for f in alphabet if f.action == ACTION_OMIT]
    assert any(f.omission == OMISSION_INCONSISTENT for f in omissions)
    assert any(f.omission != OMISSION_INCONSISTENT for f in omissions)
    assert any(f.crash_sender for f in omissions)


def test_admits_enforces_omission_degree_bounds():
    space = ScheduleSpace(max_omissions=2, max_inconsistent=1)
    consistent = Action(ACTION_OMIT, frame_type="FDA")
    inconsistent = Action(
        ACTION_OMIT,
        frame_type="FDA",
        nth=1,
        omission=OMISSION_INCONSISTENT,
        accepting=(0,),
    )
    assert space.admits([consistent, inconsistent])
    third = Action(ACTION_OMIT, frame_type="ELS")
    assert not space.admits([consistent, inconsistent, third])  # > k
    second_inconsistent = Action(
        ACTION_OMIT,
        frame_type="RHA",
        omission=OMISSION_INCONSISTENT,
        accepting=(1,),
    )
    assert not space.admits([inconsistent, second_inconsistent])  # > j


def test_admits_keeps_two_correct_members():
    space = ScheduleSpace(nodes=4, members=4)
    crashes = [Action(ACTION_CRASH, node=n) for n in range(3)]
    assert space.admits(crashes[:2])
    assert not space.admits(crashes)  # only one member left


def test_admits_one_timed_action_per_node():
    space = ScheduleSpace()
    assert not space.admits(
        [
            Action(ACTION_CRASH, node=0),
            Action(ACTION_LEAVE, node=0, at_ms=25.0),
        ]
    )


# -- enumeration and sampling -------------------------------------------------------


def test_enumerate_is_breadth_first_and_deterministic():
    first = list(enumerate_schedules(SMALL, 2))
    second = list(enumerate_schedules(SMALL, 2))
    assert first == second
    depths = [s.depth for s in first]
    assert depths == sorted(depths)  # BFS: shallow schedules first
    assert depths[0] == 0  # the fault-free schedule opens the sweep
    assert set(s.seed for s in first) == set(range(len(first)))


def test_enumerate_yields_only_admissible_schedules():
    for schedule in enumerate_schedules(SMALL, 2):
        assert SMALL.admits(schedule.actions)


def test_default_depth2_population_meets_sweep_budget():
    """The acceptance criterion's bounded sweep is >= 500 schedules."""
    population = schedule_population(ScheduleSpace(), depth=2)
    assert len(population) >= 500
    assert len({s.actions for s in population}) == len(population)


def test_sample_schedules_deterministic_in_seed():
    a = list(sample_schedules(SMALL, 10, seed=3))
    b = list(sample_schedules(SMALL, 10, seed=3))
    c = list(sample_schedules(SMALL, 10, seed=4))
    assert a == b
    assert a != c
    assert all(SMALL.admits(s.actions) for s in a)
    assert all(2 <= s.depth <= 5 for s in a)


def test_population_is_exhaustive_prefix_plus_samples():
    population = schedule_population(SMALL, depth=1, samples=5, seed=9)
    exhaustive = list(enumerate_schedules(SMALL, 1))
    assert population[: len(exhaustive)] == exhaustive
    assert len(population) == len(exhaustive) + 5
    assert all(s.depth >= 2 for s in population[len(exhaustive) :])


def test_bad_generator_arguments_raise():
    with pytest.raises(CheckError, match="depth"):
        list(enumerate_schedules(SMALL, -1))
    with pytest.raises(CheckError, match="count"):
        list(sample_schedules(SMALL, -1))
