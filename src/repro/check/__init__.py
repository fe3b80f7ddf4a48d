"""``repro.check`` — systematic model-checking-style exploration.

The checker enumerates bounded fault schedules (crashes, voluntary
leaves, late joins, consistent/inconsistent omissions on specific frames,
duplicate-generation sender crashes) over small networks, runs each one
deterministically through the simulator with scripted
:class:`~repro.can.errormodel.FaultInjector` faults, and checks the
paper's membership properties online. Violations are delta-debugged to
1-minimal counterexamples and written as replayable JSONL artifacts.

Entry points:

* :func:`~repro.check.sweep.explore` / :class:`~repro.check.sweep.CheckSweep`
  — run a whole population (parallel via the campaign engine).
* :func:`~repro.workloads.scenario.run` — one schedule, one verdict
  (schedules are :class:`~repro.workloads.scenario.Scenario` s).
* :func:`~repro.check.minimize.minimize_schedule` — ddmin a violation.
* :func:`~repro.check.artifact.replay_artifact` — bit-for-bit replay.
* :func:`~repro.check.selftest.run_selftest` — prove the checker catches
  a planted protocol bug.
"""

from repro.check.artifact import (
    FORMAT,
    read_artifact,
    replay_artifact,
    write_artifact,
)
from repro.check.explorer import (
    DEFAULT_FRAME_TYPES,
    ScheduleSpace,
    enumerate_schedules,
    sample_schedules,
    schedule_population,
)
from repro.check.minimize import MinimizationOutcome, minimize_schedule
from repro.check.selftest import (
    MUTATIONS,
    Mutation,
    SelftestReport,
    run_selftest,
    selftest_sweep,
)
from repro.check.sweep import (
    CheckSweep,
    Counterexample,
    CoverageReport,
    ExplorationReport,
    explore,
    explore_coverage,
    mutate_schedule,
)
from repro.workloads.scenario import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_CONSISTENT,
    OMISSION_INCONSISTENT,
    VERDICT_BOOTSTRAP_FAILED as CHECK_BOOTSTRAP_FAILED,
    VERDICT_ERROR as CHECK_ERROR,
    VERDICT_OK as CHECK_OK,
    VERDICT_VIOLATION as CHECK_VIOLATION,
)

__all__ = [
    "ACTION_CRASH",
    "ACTION_JOIN",
    "ACTION_LEAVE",
    "ACTION_OMIT",
    "CHECK_BOOTSTRAP_FAILED",
    "CHECK_ERROR",
    "CHECK_OK",
    "CHECK_VIOLATION",
    "CheckSweep",
    "Counterexample",
    "CoverageReport",
    "DEFAULT_FRAME_TYPES",
    "ExplorationReport",
    "FORMAT",
    "MUTATIONS",
    "MinimizationOutcome",
    "Mutation",
    "OMISSION_CONSISTENT",
    "OMISSION_INCONSISTENT",
    "ScheduleSpace",
    "SelftestReport",
    "enumerate_schedules",
    "explore",
    "explore_coverage",
    "minimize_schedule",
    "mutate_schedule",
    "read_artifact",
    "replay_artifact",
    "run_selftest",
    "sample_schedules",
    "schedule_population",
    "selftest_sweep",
    "write_artifact",
]
