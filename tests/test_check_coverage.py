"""Tests for fingerprint deduplication and coverage-guided exploration."""

import random

import pytest

from repro.campaign import FingerprintStore, run_campaign, schedule_key
from repro.check import (
    CheckSweep,
    ScheduleSpace,
    explore,
    explore_coverage,
    mutate_schedule,
)
from repro.check.sweep import _schedule_result
from repro.errors import CheckError
from repro.sim.rng import derive_seed

#: One crash offset, one frame type: a small but real schedule space.
SPACE = ScheduleSpace(
    nodes=4,
    members=3,
    crash_offsets_ms=(0.0,),
    frame_types=("FDA",),
    nth_frames=(0,),
)
SWEEP = CheckSweep(space=SPACE, depth=1)

#: Schedules the ``counting`` scenario function executed, in order.
_EXECUTED = []


def counting(schedule, index):
    _EXECUTED.append(schedule)
    return _schedule_result(schedule, index)


# -- fingerprint dedup in explore() --------------------------------------------


def test_sweep_rerun_against_same_store_executes_nothing(tmp_path):
    """The acceptance property: a sweep run twice against the same
    fingerprint store re-executes zero already-explored schedules."""
    path = str(tmp_path / "fp.jsonl")
    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        first = explore(
            SWEEP,
            fingerprint_store=store,
            scenario_fn=counting,
        )
    first_executions = len(_EXECUTED)
    assert first_executions == len(SWEEP)
    assert first.deduplicated == 0

    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        second = explore(
            SWEEP,
            fingerprint_store=store,
            scenario_fn=counting,
        )
    assert _EXECUTED == []  # zero re-executions
    assert second.deduplicated == len(SWEEP)
    assert [r.verdict for r in second.results] == [
        r.verdict for r in first.results
    ]
    assert [
        r.metrics["check"]["fingerprint"] for r in second.results
    ] == [r.metrics["check"]["fingerprint"] for r in first.results]
    assert "deduplicated" in second.summary()


def test_explore_without_store_always_executes():
    del _EXECUTED[:]
    explore(SWEEP, scenario_fn=counting)
    explore(SWEEP, scenario_fn=counting)
    assert len(_EXECUTED) == 2 * len(SWEEP)


def test_partial_store_runs_only_missing_schedules(tmp_path):
    path = str(tmp_path / "fp.jsonl")
    # Pre-record half the population as already explored.
    known = [SWEEP[i] for i in range(0, len(SWEEP), 2)]
    with FingerprintStore(path) as store:
        for schedule in known:
            store.record(schedule_key(schedule), "stub-trace", "ok")
    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        report = explore(
            SWEEP,
            fingerprint_store=store,
            scenario_fn=counting,
        )
    assert _EXECUTED == [SWEEP[i] for i in range(1, len(SWEEP), 2)]
    assert report.deduplicated == len(known)
    assert len(report.results) == len(SWEEP)


# -- plain populations ---------------------------------------------------------


def test_run_campaign_runs_a_plain_tuple_of_scenarios():
    schedules = tuple(SWEEP[i] for i in range(3))
    results = run_campaign(schedules, workers=0, scenario_fn=_schedule_result)
    assert [r.index for r in results] == [0, 1, 2]
    assert [r.seed for r in results] == [s.seed for s in schedules]
    assert results[1].metrics["check"]["schedule"] == schedules[1].to_dict()


# -- mutation ------------------------------------------------------------------


def test_mutations_stay_admissible_and_structurally_new():
    rng = random.Random(7)
    parent = SPACE.schedule((), seed=0)
    for step in range(50):
        mutant = mutate_schedule(
            SPACE, parent, rng, seed=derive_seed(0, f"mutant/{step}")
        )
        if mutant is None:
            continue
        assert SPACE.admits(mutant.actions)
        assert mutant.actions != parent.actions
        parent = mutant


def test_mutation_is_deterministic_in_rng_state():
    parent = SPACE.schedule((SPACE.alphabet[0],), seed=0)
    first = mutate_schedule(SPACE, parent, random.Random(11), seed=5)
    second = mutate_schedule(SPACE, parent, random.Random(11), seed=5)
    assert first == second


# -- coverage-guided exploration -----------------------------------------------


def test_coverage_respects_budget_and_records_novelty():
    store = FingerprintStore(None)
    report = explore_coverage(SPACE, budget=15, store=store, seed=7)
    assert report.executed <= 15
    assert report.executed == len(report.results)
    assert report.new_fingerprints == report.corpus_size
    assert report.new_fingerprints == store.trace_count
    assert len(store) == report.executed  # every run recorded
    assert "coverage sweep" in report.summary()
    store.close()


def test_coverage_is_deterministic():
    first = explore_coverage(SPACE, budget=15, seed=7)
    second = explore_coverage(SPACE, budget=15, seed=7)
    assert [r.verdict for r in first.results] == [
        r.verdict for r in second.results
    ]
    assert first.summary() == second.summary()


def test_coverage_rerun_never_reexecutes_explored_schedules(tmp_path):
    """Against a shared store, a second coverage run spends its budget
    only on schedules the first run never executed — the explored ones
    are all answered by the store before dispatch."""
    path = str(tmp_path / "fp.jsonl")
    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        first = explore_coverage(
            SPACE,
            budget=10,
            store=store,
            seed=7,
            scenario_fn=counting,
        )
    assert len(_EXECUTED) == first.executed > 0
    explored = {schedule_key(schedule) for schedule in _EXECUTED}
    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        second = explore_coverage(
            SPACE,
            budget=10,
            store=store,
            seed=7,
            scenario_fn=counting,
        )
    rerun = [s for s in _EXECUTED if schedule_key(s) in explored]
    assert rerun == []  # zero re-executions across runs
    assert second.deduplicated >= first.executed


def test_coverage_zero_budget_runs_nothing():
    report = explore_coverage(SPACE, budget=0)
    assert report.executed == 0
    assert report.results == []
    assert report.ok


def test_coverage_validates_arguments():
    with pytest.raises(CheckError):
        explore_coverage(SPACE, budget=-1)
    with pytest.raises(CheckError):
        explore_coverage(SPACE, budget=1, batch_size=0)
