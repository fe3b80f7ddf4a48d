"""Property: a scenario is data that survives JSON unchanged.

Hypothesis draws valid :class:`~repro.workloads.scenario.Scenario` s over
every action kind (crash, join with and without recover, leave, both
omission flavours with accepting subsets and sender crashes,
inaccessibility, a failed channel on dual-channel networks), the optional
configuration overrides, traffic, omission rates and settle. Each must
come back equal from ``Scenario.from_dict(json(to_dict()))``, keep its
hash, and write the nine schedule keys every artifact line carries.
"""

import json
import pickle

from hypothesis import given, settings, strategies as st

from repro.workloads.scenario import (
    ACTION_CRASH,
    ACTION_FAIL_CHANNEL,
    ACTION_INACCESSIBILITY,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_CONSISTENT,
    OMISSION_INCONSISTENT,
    Action,
    Scenario,
)

SCHEDULE_KEYS = {
    "nodes", "members", "faults", "run_ms", "tm_ms", "thb_ms",
    "tjoin_wait_ms", "capacity", "seed",
}
times = st.floats(min_value=0, max_value=500, allow_nan=False)
optional_ms = st.none() | st.floats(min_value=0.001, max_value=100)
optional_count = st.none() | st.integers(min_value=0, max_value=10)


def actions(nodes, channels):
    node = st.integers(min_value=0, max_value=nodes - 1)
    timed = st.builds(
        Action, st.sampled_from([ACTION_CRASH, ACTION_LEAVE]), node=node, at_ms=times
    )
    join = st.builds(
        Action, st.just(ACTION_JOIN), node=node, at_ms=times, recover=st.booleans()
    )
    consistent = st.builds(
        Action,
        st.just(ACTION_OMIT),
        node=st.integers(min_value=-1, max_value=nodes - 1),
        frame_type=st.sampled_from(["FDA", "ELS", "RHA", "JOIN", "LEAVE", "DATA"]),
        nth=st.integers(min_value=0, max_value=5),
        omission=st.just(OMISSION_CONSISTENT),
        crash_sender=st.booleans(),
    )
    inconsistent = st.builds(
        Action,
        st.just(ACTION_OMIT),
        frame_type=st.sampled_from(["ELS", "DATA"]),
        omission=st.just(OMISSION_INCONSISTENT),
        accepting=st.lists(node, max_size=3).map(tuple),
        crash_sender=st.booleans(),
    )
    spell = st.builds(
        Action,
        st.just(ACTION_INACCESSIBILITY),
        at_ms=times,
        bits=st.integers(min_value=1, max_value=5000),
    )
    kinds = [timed, join, consistent, inconsistent, spell]
    if channels == 2:
        kinds.append(
            st.builds(
                Action,
                st.just(ACTION_FAIL_CHANNEL),
                at_ms=times,
                channel=st.sampled_from([0, 1]),
            )
        )
    return st.lists(st.one_of(kinds), max_size=6).map(tuple)


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(min_value=2, max_value=12))
    channels = draw(st.sampled_from([1, 2]))
    dual = channels == 2
    rate = st.just(0.0) if dual else st.floats(min_value=0, max_value=0.4)
    return Scenario(
        nodes=nodes,
        members=draw(st.integers(min_value=2, max_value=nodes)),
        actions=draw(actions(nodes, channels)),
        run_ms=draw(st.floats(min_value=1, max_value=2000)),
        tm_ms=draw(st.floats(min_value=1, max_value=100)),
        capacity=draw(st.integers(min_value=nodes, max_value=64)),
        seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        ttd_ms=draw(optional_ms),
        trha_ms=draw(optional_ms),
        reintegration_cooldown_ms=draw(optional_ms),
        omission_degree=draw(optional_count),
        max_crash_failures=draw(optional_count),
        backend="canely" if dual else draw(st.sampled_from(["canely", "swim"])),
        segments=1 if dual else draw(st.integers(min_value=1, max_value=nodes)),
        channels=channels,
        traffic=draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=nodes - 1),
                    st.floats(min_value=0.5, max_value=50),
                ),
                max_size=4,
            )
        ),
        consistent_probability=draw(rate),
        inconsistent_probability=draw(rate),
        settle_cycles=draw(st.none() | st.floats(min_value=1, max_value=8)),
    )


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_scenario_round_trips_through_json(scenario):
    raw = scenario.to_dict()
    assert SCHEDULE_KEYS <= set(raw)
    restored = Scenario.from_dict(json.loads(json.dumps(raw)))
    assert restored == scenario
    assert hash(restored) == hash(scenario)
    assert pickle.loads(pickle.dumps(scenario)) == scenario


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios())
def test_defaults_stay_off_the_wire(scenario):
    """A checker schedule's line is exactly the nine keys it always was."""
    bare = Scenario(
        nodes=scenario.nodes,
        members=scenario.members,
        actions=tuple(a for a in scenario.actions if a.action != ACTION_FAIL_CHANNEL),
        run_ms=scenario.run_ms,
        capacity=scenario.capacity,
        seed=scenario.seed,
    )
    assert set(bare.to_dict()) == SCHEDULE_KEYS
