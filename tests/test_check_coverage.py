"""Tests for fingerprint deduplication and coverage-guided exploration."""

import random

import pytest

from repro.campaign import FingerprintStore, schedule_key
from repro.check import (
    CheckSweep,
    ScheduleBatch,
    ScheduleSpace,
    explore,
    explore_coverage,
    mutate_schedule,
    run_batch_scenario,
)
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

#: Executions observed by ``counting`` scenario functions, keyed by test.
_EXECUTED = []


def counting_check_scenario(sweep, index):
    from repro.check.sweep import run_check_scenario

    _EXECUTED.append(index)
    return run_check_scenario(sweep, index)


def counting_batch_scenario(batch, index):
    _EXECUTED.append(batch.schedules[index])
    return run_batch_scenario(batch, index)


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
            scenario_fn=counting_check_scenario,
        )
    first_executions = len(_EXECUTED)
    assert first_executions == SWEEP.scenarios
    assert first.deduplicated == 0

    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        second = explore(
            SWEEP,
            fingerprint_store=store,
            scenario_fn=counting_check_scenario,
        )
    assert _EXECUTED == []  # zero re-executions
    assert second.deduplicated == SWEEP.scenarios
    assert [r.verdict for r in second.results] == [
        r.verdict for r in first.results
    ]
    assert [
        r.metrics["check"]["fingerprint"] for r in second.results
    ] == [r.metrics["check"]["fingerprint"] for r in first.results]
    assert "deduplicated" in second.summary()


def test_explore_without_store_always_executes():
    del _EXECUTED[:]
    explore(SWEEP, scenario_fn=counting_check_scenario)
    explore(SWEEP, scenario_fn=counting_check_scenario)
    assert len(_EXECUTED) == 2 * SWEEP.scenarios


def test_partial_store_runs_only_missing_schedules(tmp_path):
    path = str(tmp_path / "fp.jsonl")
    # Pre-record half the population as already explored.
    known = [SWEEP.schedule(i) for i in range(0, SWEEP.scenarios, 2)]
    with FingerprintStore(path) as store:
        for schedule in known:
            store.record(schedule_key(schedule), "stub-trace", "ok")
    del _EXECUTED[:]
    with FingerprintStore(path) as store:
        report = explore(
            SWEEP,
            fingerprint_store=store,
            scenario_fn=counting_check_scenario,
        )
    assert sorted(_EXECUTED) == [
        i for i in range(SWEEP.scenarios) if i % 2 == 1
    ]
    assert report.deduplicated == len(known)
    assert len(report.results) == SWEEP.scenarios


# -- schedule batches ----------------------------------------------------------


def test_schedule_batch_satisfies_spec_protocol():
    schedules = tuple(SWEEP.schedule(i) for i in range(3))
    batch = ScheduleBatch(schedules)
    assert batch.scenarios == 3
    assert [batch.scenario_seed(i) for i in range(3)] == [
        s.seed for s in schedules
    ]
    result = run_batch_scenario(batch, 1)
    assert result.index == 1
    assert result.seed == schedules[1].seed
    assert result.metrics["check"]["schedule"] == schedules[1].to_dict()


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
    parent = SPACE.schedule((SPACE.alphabet()[0],), seed=0)
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
            scenario_fn=counting_batch_scenario,
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
            scenario_fn=counting_batch_scenario,
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
