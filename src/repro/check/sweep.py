"""Parallel exploration: the checker riding the campaign engine.

A :class:`CheckSweep` is a schedule population (exhaustive BFS plus
guided samples, :func:`repro.check.explorer.schedule_population`):
``len(sweep)`` schedules, ``sweep[i]`` the ``i``-th. That is all
:func:`repro.campaign.engine.run_campaign` asks of a population, so
schedule execution inherits the engine's process isolation, per-schedule
timeouts, crash retries and JSONL checkpoint/resume for free. The engine
ships each worker its one schedule; :func:`_schedule_result` folds the
run into a campaign result. Coverage-guided mutation batches, which are
not a function of a few scalars, go to the engine as plain tuples.

Two exploration strategies sit on top:

* :func:`explore` — run a fixed population, optionally deduplicated
  against a persistent :class:`~repro.campaign.store.FingerprintStore`:
  schedules the store has already seen are *not executed again*; their
  recorded verdict and trace fingerprint are returned as cached results.
* :func:`explore_coverage` — a fuzzer over
  :class:`~repro.check.explorer.ScheduleSpace`: start from the shallow
  exhaustive frontier, then preferentially mutate schedules whose runs
  produced *new* trace fingerprints, instead of blind BFS/random
  sampling. The fingerprint store is both the dedup filter (never run a
  known schedule) and the novelty signal (grow the corpus only on new
  behaviour).

Both delta-debug every violation to a 1-minimal counterexample and emit a
replayable artifact per violation.
"""

from __future__ import annotations

import dataclasses
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioResult
from repro.campaign.store import FingerprintStore, schedule_key
from repro.check.artifact import write_artifact
from repro.check.explorer import (
    ScheduleSpace,
    enumerate_schedules,
    schedule_population,
)
from repro.check.minimize import minimize_schedule
from repro.errors import CheckError
from repro.sim.rng import derive_seed
from repro.workloads.scenario import (
    ACTION_CRASH,
    VERDICT_VIOLATION,
    Result,
    Scenario,
    run,
    shared_bootstraps,
)

ProgressFn = Callable[[ScenarioResult], None]

#: How many draws :func:`mutate_schedule` makes before giving up.
_MUTATION_TRIES = 12

#: Coverage exploration stops once this many consecutive proposals were
#: all duplicates or inadmissible (the space is exhausted near the corpus).
_MAX_STALE_PROPOSALS = 400


@dataclass(frozen=True)
class CheckSweep:
    """One exploration run: a space, an exhaustive depth, a sample budget.

    A population for the campaign engine: ``len(sweep)`` schedules,
    ``sweep[i]`` the ``i``-th in execution order. The population is built
    on first use and kept on the instance.
    """

    space: ScheduleSpace = field(default_factory=ScheduleSpace)
    depth: int = 1
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise CheckError(f"depth must be >= 0: {self.depth}")
        if self.samples < 0:
            raise CheckError(f"samples must be >= 0: {self.samples}")

    @cached_property
    def _population(self) -> List[Scenario]:
        return schedule_population(
            self.space, depth=self.depth, samples=self.samples, seed=self.seed
        )

    def __len__(self) -> int:
        return len(self._population)

    def __getitem__(self, index: int) -> Scenario:
        return self._population[index]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._population)


def _schedule_result(schedule: Scenario, index: int) -> ScenarioResult:
    """The check fold, and the campaign ``scenario_fn`` of both
    explorations: execute ``schedule`` and fold it into a campaign result.

    The check verdicts are a subset of the campaign verdicts by
    construction, so they pass through unchanged; the check-specific
    payload (fingerprint, violated monitor, the schedule itself) rides in
    the result's ``metrics`` dict and survives JSONL checkpointing.
    """
    check = run(schedule)
    crashes = 0
    for action in schedule.actions:
        if action.action == ACTION_CRASH or action.crash_sender:
            crashes += 1
    return ScenarioResult(
        index=index,
        seed=schedule.seed,
        verdict=check.verdict,
        nodes=schedule.nodes,
        crashes=crashes,
        metrics={
            "check": {
                "fingerprint": check.fingerprint,
                "monitor": check.monitor,
                "events": check.events,
                "final_members": check.final_members,
                "expected_members": check.expected_members,
                "schedule": schedule.to_dict(),
            }
        },
        detail=check.detail,
        violation_slice=check.violation_slice,
        elapsed_s=check.elapsed_s,
    )


def _cached_result(
    index: int, schedule: Scenario, record: Dict
) -> ScenarioResult:
    """A result synthesized from the fingerprint store instead of a run."""
    return ScenarioResult(
        index=index,
        seed=schedule.seed,
        verdict=record["verdict"],
        metrics={
            "check": {
                "fingerprint": record["trace"],
                "cached": True,
                "schedule": schedule.to_dict(),
            }
        },
        detail="deduplicated: schedule already explored (fingerprint store)",
    )


@dataclass
class Counterexample:
    """One violation, minimized and (optionally) written to disk."""

    index: int
    schedule: Scenario
    minimized: Scenario
    result: Result
    minimize_runs: int
    artifact_path: Optional[str] = None

    def describe(self) -> str:
        """One paragraph for reports and the CLI."""
        lines = [
            f"schedule #{self.index} "
            f"({self.schedule.depth} -> {self.minimized.depth} faults, "
            f"{self.minimize_runs} minimizer runs):",
            f"  [{self.result.monitor}] "
            + self.result.detail.splitlines()[0],
        ]
        for action in self.minimized.actions:
            lines.append(f"  - {action.describe()}")
        if self.artifact_path:
            lines.append(f"  artifact: {self.artifact_path}")
        return "\n".join(lines)


def _minimize_violations(
    violations: List[Tuple[int, Scenario]],
    artifact_dir: Optional[str],
) -> List[Counterexample]:
    """Delta-debug each violating schedule and (optionally) persist it.

    Always runs in the parent process, re-executing schedules through the
    deterministic runner, so it works under monkeypatched code too.
    """
    counterexamples: List[Counterexample] = []
    for index, schedule in violations:
        outcome = minimize_schedule(schedule)
        counterexample = Counterexample(
            index=index,
            schedule=schedule,
            minimized=outcome.schedule,
            result=outcome.result,
            minimize_runs=outcome.runs,
        )
        if artifact_dir is not None:
            os.makedirs(artifact_dir, exist_ok=True)
            path = os.path.join(artifact_dir, f"counterexample-{index}.jsonl")
            write_artifact(path, outcome.result)
            counterexample.artifact_path = path
        counterexamples.append(counterexample)
    return counterexamples


def _verdict_counts(results: List[ScenarioResult]) -> Dict[str, int]:
    """The verdict histogram both exploration reports count."""
    return dict(Counter(result.verdict for result in results))


def _counts_text(counts: Dict[str, int]) -> str:
    """``verdict=count`` pairs in verdict order, comma-separated."""
    return ", ".join(
        f"{verdict}={count}" for verdict, count in sorted(counts.items())
    )


@dataclass
class ExplorationReport:
    """What :func:`explore` found across the whole population."""

    sweep: CheckSweep
    results: List[ScenarioResult]
    counterexamples: List[Counterexample]

    @property
    def ok(self) -> bool:
        """True when every schedule ran and every invariant held."""
        return all(r.ok for r in self.results)

    @property
    def deduplicated(self) -> int:
        """How many schedules were answered from the fingerprint store."""
        return sum(
            1
            for r in self.results
            if (r.metrics.get("check") or {}).get("cached")
        )

    def counts(self) -> Dict[str, int]:
        """Verdict histogram over the population."""
        return _verdict_counts(self.results)

    def summary(self) -> str:
        """One line for logs: population size and verdict counts."""
        counts = _counts_text(self.counts())
        cached = self.deduplicated
        dedup = f", {cached} deduplicated" if cached else ""
        return (
            f"{len(self.results)} schedules "
            f"(depth<={self.sweep.depth} exhaustive + "
            f"{self.sweep.samples} sampled): {counts or 'empty'}{dedup}"
        )


@shared_bootstraps()
def explore(
    sweep: CheckSweep,
    workers: int = 0,
    timeout: float = 120.0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    artifact_dir: Optional[str] = None,
    fingerprint_store: Optional[FingerprintStore] = None,
    scenario_fn=_schedule_result,
) -> ExplorationReport:
    """Run the sweep's whole population and minimize every violation.

    ``workers``/``timeout``/``checkpoint``/``resume`` forward
    to :func:`~repro.campaign.engine.run_campaign`
    (``workers=0`` runs in-process — required when the code under test is
    monkeypatched, as in the planted-bug selftest, since a patch does not
    necessarily survive into spawned worker processes). With a
    ``fingerprint_store``, schedules the store has already explored are
    never re-executed: their stored verdict and trace fingerprint come
    back as cached results, and every fresh run is recorded into the
    store afterwards. Minimization and artifact writing always happen in
    the parent process, re-executing schedules through the deterministic
    runner.
    """
    prior: Optional[Dict[int, ScenarioResult]] = None
    if fingerprint_store is not None:
        prior = {}
        # One structural key per schedule, for the lookup and the record.
        keys = [schedule_key(schedule) for schedule in sweep]
        for index, key in enumerate(keys):
            record = fingerprint_store.lookup(key)
            if record is not None:
                prior[index] = _cached_result(index, sweep[index], record)
    results = run_campaign(
        sweep,
        workers=workers,
        timeout=timeout,
        checkpoint=checkpoint,
        resume=resume,
        scenario_fn=scenario_fn,
        progress=progress,
        prior_results=prior,
    )
    if fingerprint_store is not None:
        for result in results:
            check = result.metrics.get("check") or {}
            fingerprint = check.get("fingerprint")
            if fingerprint and not check.get("cached"):
                fingerprint_store.record(
                    keys[result.index],
                    fingerprint,
                    result.verdict,
                    seed=result.seed,
                )
    violations = [
        (result.index, sweep[result.index])
        for result in results
        if result.verdict == VERDICT_VIOLATION
    ]
    counterexamples = _minimize_violations(violations, artifact_dir)
    return ExplorationReport(
        sweep=sweep, results=results, counterexamples=counterexamples
    )


# -- coverage-guided exploration -----------------------------------------------


def mutate_schedule(
    space: ScheduleSpace,
    schedule: Scenario,
    rng: random.Random,
    seed: int,
) -> Optional[Scenario]:
    """One admissible structural mutation of ``schedule``.

    Operators, all drawn from the space's own alphabet so mutants stay
    inside the fault model: *add* an alphabet action, *remove* a
    scheduled action, *replace* one with a fresh alphabet draw. Returns
    None when 12 draws produce nothing admissible and structurally new.
    Deterministic in (schedule, rng state).
    """
    alphabet = space.alphabet
    if not alphabet:
        return None
    for _ in range(_MUTATION_TRIES):
        faults = list(schedule.actions)
        operators = ["add"]
        if faults:
            operators += ["remove", "replace"]
        operator = rng.choice(operators)
        if operator == "add":
            faults.insert(
                rng.randrange(len(faults) + 1), rng.choice(alphabet)
            )
        elif operator == "remove":
            del faults[rng.randrange(len(faults))]
        else:
            faults[rng.randrange(len(faults))] = rng.choice(alphabet)
        if tuple(faults) == schedule.actions:
            continue
        if not space.admits(faults):
            continue
        return space.schedule(faults, seed=seed)
    return None


@dataclass
class CoverageReport:
    """What :func:`explore_coverage` did with its budget."""

    space: ScheduleSpace
    budget: int
    executed: int
    deduplicated: int
    new_fingerprints: int
    rounds: int
    corpus_size: int
    results: List[ScenarioResult]
    counterexamples: List[Counterexample]

    @property
    def ok(self) -> bool:
        """True when every executed schedule kept every invariant."""
        return all(r.ok for r in self.results)

    def counts(self) -> Dict[str, int]:
        """Verdict histogram over the executed schedules."""
        return _verdict_counts(self.results)

    def summary(self) -> str:
        """One line for logs: budget use, novelty yield, verdicts."""
        counts = _counts_text(self.counts())
        return (
            f"coverage sweep: {self.executed}/{self.budget} schedules "
            f"executed in {self.rounds} round(s), "
            f"{self.deduplicated} deduplicated, "
            f"{self.new_fingerprints} new fingerprint(s), "
            f"corpus {self.corpus_size}: {counts or 'nothing run'}"
        )


@shared_bootstraps()
def explore_coverage(
    space: ScheduleSpace,
    budget: int,
    store: Optional[FingerprintStore] = None,
    seed: int = 0,
    batch_size: int = 16,
    init_depth: int = 1,
    workers: int = 0,
    timeout: float = 120.0,
    progress: Optional[ProgressFn] = None,
    artifact_dir: Optional[str] = None,
    scenario_fn=_schedule_result,
) -> CoverageReport:
    """Coverage-guided exploration: mutate what produced new behaviour.

    The loop seeds its candidate stream with the exhaustive frontier up
    to ``init_depth``, executes candidates in batches of ``batch_size``
    through :func:`~repro.campaign.engine.run_campaign` (so process
    isolation and retries carry over), and records every run in the
    fingerprint ``store``. A schedule whose run produced a trace
    fingerprint the store had *never seen* joins the corpus; further
    candidates are mutations of corpus schedules, weighted toward recent
    discoveries. Candidates whose structural key
    the store already holds are skipped before dispatch — across calls
    too, since the store persists: rerunning a sweep against the same
    store executes nothing.

    Stops at ``budget`` executed schedules, or earlier when 400
    consecutive proposals were all duplicates or inadmissible (the space
    is exhausted near the corpus). Fully deterministic in (space, budget,
    seed, store contents). Results, ``progress`` and counterexamples
    carry each schedule's index in the global execution order.
    """
    if budget < 0:
        raise CheckError(f"budget must be >= 0: {budget}")
    if batch_size < 1:
        raise CheckError(f"batch_size must be >= 1: {batch_size}")
    store = store if store is not None else FingerprintStore(None)

    corpus: List[Scenario] = []
    results: List[ScenarioResult] = []
    ran: List[Scenario] = []
    proposed_keys: set = set()
    executed = deduplicated = new_fingerprints = rounds = 0
    frontier = iter(enumerate_schedules(space, init_depth))
    proposal = 0
    stale = 0

    def next_candidate() -> Optional[Scenario]:
        """The next schedule worth proposing: frontier first, then
        corpus mutations, then (corpus still empty) guided samples."""
        nonlocal proposal
        candidate = next(frontier, None)
        if candidate is not None:
            return candidate
        proposal += 1
        rng = random.Random(derive_seed(seed, f"coverage/{proposal}"))
        mutant_seed = derive_seed(seed, f"coverage/schedule/{proposal}")
        if corpus:
            # Weight parent choice toward the newest corpus entries: the
            # frontier of undiscovered behaviour is usually near the most
            # recent discovery, not the oldest.
            if len(corpus) > 1 and rng.random() < 0.7:
                parent = corpus[
                    rng.randrange(len(corpus) // 2, len(corpus))
                ]
            else:
                parent = corpus[rng.randrange(len(corpus))]
            return mutate_schedule(space, parent, rng, seed=mutant_seed)
        # No novelty yet to guide us: fall back to an empty-schedule
        # mutation, i.e. a fresh draw from the alphabet.
        return mutate_schedule(
            space, space.schedule((), seed=0), rng, seed=mutant_seed
        )

    def global_progress(result: ScenarioResult) -> None:
        """``progress`` with the batch-local index made global."""
        progress(dataclasses.replace(result, index=executed + result.index))

    while executed < budget and stale < _MAX_STALE_PROPOSALS:
        batch: List[Scenario] = []
        batch_keys: List[str] = []
        while (
            len(batch) < min(batch_size, budget - executed)
            and stale < _MAX_STALE_PROPOSALS
        ):
            candidate = next_candidate()
            if candidate is None:
                stale += 1
                continue
            key = schedule_key(candidate)
            if key in proposed_keys:
                stale += 1
                continue
            proposed_keys.add(key)
            if store.lookup(key) is not None:
                deduplicated += 1
                stale += 1
                continue
            stale = 0
            batch.append(candidate)
            batch_keys.append(key)
        if not batch:
            break
        rounds += 1
        batch_results = run_campaign(
            tuple(batch),
            workers=workers,
            timeout=timeout,
            scenario_fn=scenario_fn,
            progress=None if progress is None else global_progress,
        )
        for schedule, key, result in zip(batch, batch_keys, batch_results):
            check = result.metrics.get("check") or {}
            fingerprint = check.get("fingerprint", "")
            novel = False
            if fingerprint:
                novel = store.record(
                    key,
                    fingerprint,
                    result.verdict,
                    seed=schedule.seed,
                )
            if novel:
                corpus.append(schedule)
                new_fingerprints += 1
            # Re-index into the global execution order so counterexample
            # labels stay unique across batches.
            result.index = executed + result.index
            results.append(result)
        ran.extend(batch)
        executed += len(batch)
        # The batch may have grown the corpus, opening mutation parents
        # that did not exist while proposals were going stale — give the
        # proposal stream a fresh stale budget for the next round.
        stale = 0

    violations = [
        (result.index, ran[result.index])
        for result in results
        if result.verdict == VERDICT_VIOLATION
    ]
    counterexamples = _minimize_violations(violations, artifact_dir)
    return CoverageReport(
        space=space,
        budget=budget,
        executed=executed,
        deduplicated=deduplicated,
        new_fingerprints=new_fingerprints,
        rounds=rounds,
        corpus_size=len(corpus),
        results=results,
        counterexamples=counterexamples,
    )
