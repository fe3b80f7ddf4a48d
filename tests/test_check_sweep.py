"""Parallel exploration and the mutation-style selftest.

``CheckSweep`` must be a population the campaign engine runs (``len`` and
``sweep[i]``) so the checker inherits process isolation and
checkpoint/resume; ``explore`` must
minimize every violation and emit replayable artifacts; ``run_selftest``
must prove the whole pipeline catches a planted protocol bug.
"""

import os

import pytest

from repro.check import (
    CheckSweep,
    ScheduleSpace,
    explore,
    run_selftest,
)
from repro.check.selftest import (
    MAX_MINIMAL_FAULTS,
    MUTATIONS,
    selftest_sweep,
)
from repro.check.sweep import _schedule_result
from repro.errors import CheckError

#: Small space so whole-population tests stay in smoke territory. One
#: non-member stays on the bus: planted FDA mutations only produce
#: duplicates when somebody learns the failure from the frame alone.
SMALL_SWEEP = CheckSweep(
    space=ScheduleSpace(
        nodes=4,
        members=3,
        crash_offsets_ms=(0.0,),
        frame_types=("FDA",),
        nth_frames=(0,),
    ),
    depth=1,
)


# -- CheckSweep: a population -------------------------------------------------------


def test_sweep_population_is_memoized_and_indexed():
    population = list(SMALL_SWEEP)
    assert SMALL_SWEEP[0] is SMALL_SWEEP[0]  # built once, kept on the sweep
    assert len(SMALL_SWEEP) == len(population)
    assert population == list(
        CheckSweep(space=SMALL_SWEEP.space, depth=1)
    )
    for index, schedule in enumerate(population):
        assert SMALL_SWEEP[index] == schedule


def test_sweep_index_out_of_range():
    with pytest.raises(IndexError):
        SMALL_SWEEP[len(SMALL_SWEEP)]


def test_sweep_validates_bounds():
    with pytest.raises(CheckError, match="depth"):
        CheckSweep(depth=-1)
    with pytest.raises(CheckError, match="samples"):
        CheckSweep(samples=-1)


def test_schedule_result_carries_check_payload():
    result = _schedule_result(SMALL_SWEEP[0], 0)
    assert result.index == 0
    assert result.verdict == "ok"
    check = result.metrics["check"]
    assert len(check["fingerprint"]) == 64
    assert check["schedule"] == SMALL_SWEEP[0].to_dict()
    assert check["final_members"] == check["expected_members"]


# -- explore ------------------------------------------------------------------------


def test_explore_clean_code_reports_all_ok():
    report = explore(SMALL_SWEEP, workers=0)
    assert report.ok
    assert len(report.results) == len(SMALL_SWEEP)
    assert report.counterexamples == []
    assert report.counts() == {"ok": len(SMALL_SWEEP)}
    assert "ok=" in report.summary()


def test_explore_checkpoint_resume_reproduces_results(tmp_path):
    checkpoint = str(tmp_path / "check.jsonl")
    first = explore(SMALL_SWEEP, workers=0, checkpoint=checkpoint)
    resumed = explore(
        SMALL_SWEEP, workers=0, checkpoint=checkpoint, resume=True
    )
    assert [r.verdict for r in resumed.results] == [
        r.verdict for r in first.results
    ]
    assert [r.metrics["check"]["fingerprint"] for r in resumed.results] == [
        r.metrics["check"]["fingerprint"] for r in first.results
    ]


def test_explore_minimizes_and_writes_artifacts(tmp_path):
    artifact_dir = str(tmp_path / "artifacts")
    with MUTATIONS["fda-duplicate-delivery"].plant():
        report = explore(SMALL_SWEEP, workers=0, artifact_dir=artifact_dir)
    assert not report.ok
    assert report.counterexamples
    for counterexample in report.counterexamples:
        assert counterexample.result.violating
        assert counterexample.minimized.depth <= counterexample.schedule.depth
        assert os.path.exists(counterexample.artifact_path)
        assert f"#{counterexample.index}" in counterexample.describe()


# -- selftest -----------------------------------------------------------------------


def test_selftest_unknown_mutation_raises():
    with pytest.raises(CheckError, match="unknown mutation"):
        run_selftest("no-such-bug")


def test_selftest_sweep_is_small_but_real():
    sweep = selftest_sweep()
    assert 10 <= len(sweep) <= 200


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_selftest_catches_planted_mutation(mutation, tmp_path):
    artifact = str(tmp_path / f"{mutation}.jsonl")
    report = run_selftest(mutation, artifact_path=artifact)
    assert report.passed, report.summary()
    assert report.violations_found > 0
    assert report.caught_by == MUTATIONS[mutation].expected_monitor
    assert 1 <= report.minimized_faults <= MAX_MINIMAL_FAULTS
    assert report.replay_ok
    assert report.clean_after_unplant
    assert os.path.exists(artifact)
    assert "PASS" in report.summary()
