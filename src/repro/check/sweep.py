"""Parallel exploration: the checker riding the campaign engine.

A :class:`CheckSweep` adapts a schedule population (exhaustive BFS plus
guided samples, :func:`repro.check.explorer.schedule_population`) to the
interface :func:`repro.campaign.engine.run_campaign` drives — ``scenarios``
and ``scenario_seed(index)`` — so schedule execution inherits the engine's
process isolation, per-schedule timeouts, crash retries and JSONL
checkpoint/resume for free. Workers regenerate schedule *i* from the
sweep parameters (the population is a deterministic function of them), so
nothing but the sweep itself crosses the process boundary; dynamically
generated populations (coverage-guided mutation batches) travel as an
explicit :class:`ScheduleBatch` instead.

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

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
)

ProgressFn = Callable[[ScenarioResult], None]

#: Populations are deterministic in the sweep, so regenerating one per
#: process is pure overhead after the first time — memoize per sweep.
_POPULATION_CACHE: Dict["CheckSweep", List[Scenario]] = {}


@dataclass(frozen=True)
class CheckSweep:
    """One exploration run: a space, an exhaustive depth, a sample budget.

    Satisfies the campaign engine's spec protocol: ``scenarios`` is the
    population size and ``scenario_seed(i)`` is schedule ``i``'s own seed,
    which makes checkpoint resume validation (seed must match) carry over
    unchanged.
    """

    space: ScheduleSpace = field(default_factory=ScheduleSpace)
    depth: int = 1
    samples: int = 0
    seed: int = 0
    sample_max_depth: int = 5

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise CheckError(f"depth must be >= 0: {self.depth}")
        if self.samples < 0:
            raise CheckError(f"samples must be >= 0: {self.samples}")

    def population(self) -> List[Scenario]:
        """Every schedule this sweep runs, in execution order (memoized)."""
        cached = _POPULATION_CACHE.get(self)
        if cached is None:
            cached = schedule_population(
                self.space,
                depth=self.depth,
                samples=self.samples,
                seed=self.seed,
                sample_max_depth=self.sample_max_depth,
            )
            _POPULATION_CACHE[self] = cached
        return cached

    def schedule(self, index: int) -> Scenario:
        """Schedule ``index`` of the population."""
        population = self.population()
        if not 0 <= index < len(population):
            raise CheckError(
                f"schedule index {index} outside population of "
                f"{len(population)}"
            )
        return population[index]

    # -- campaign-engine spec protocol --------------------------------------------

    @property
    def scenarios(self) -> int:
        """Population size (campaign-engine spec protocol)."""
        return len(self.population())

    def scenario_seed(self, index: int) -> int:
        """Schedule ``index``'s own seed (campaign-engine spec protocol)."""
        return self.schedule(index).seed


@dataclass(frozen=True)
class ScheduleBatch:
    """An explicit schedule list behind the campaign-engine spec protocol.

    Where :class:`CheckSweep` lets workers *regenerate* schedule ``i``
    from sweep parameters, a batch carries its schedules outright — the
    shape coverage-guided exploration needs, since a mutated population
    is not a function of a few scalars. Plain frozen data, so it pickles
    across process boundaries unchanged.
    """

    schedules: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedules", tuple(self.schedules))

    @property
    def scenarios(self) -> int:
        """Batch size (campaign-engine spec protocol)."""
        return len(self.schedules)

    def scenario_seed(self, index: int) -> int:
        """Schedule ``index``'s own seed (campaign-engine spec protocol)."""
        return self.schedules[index].seed


def _schedule_result(schedule: Scenario, index: int) -> ScenarioResult:
    """Execute one schedule and fold the check payload into a campaign
    result (the shared body of the two campaign ``scenario_fn`` shapes)."""
    check = run(schedule)
    crashes = sum(
        1
        for action in schedule.actions
        if action.action == ACTION_CRASH or action.crash_sender
    )
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


def run_check_scenario(sweep: CheckSweep, index: int) -> ScenarioResult:
    """Campaign ``scenario_fn``: execute schedule ``index`` of ``sweep``.

    The check verdicts are a subset of the campaign verdicts by
    construction, so they pass through unchanged; the check-specific
    payload (fingerprint, violated monitor, the schedule itself) rides in
    the result's ``metrics`` dict and survives JSONL checkpointing.
    """
    return _schedule_result(sweep.schedule(index), index)


def run_batch_scenario(batch: ScheduleBatch, index: int) -> ScenarioResult:
    """Campaign ``scenario_fn``: execute schedule ``index`` of ``batch``."""
    return _schedule_result(batch.schedules[index], index)


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
    minimize: bool,
    max_minimize_runs: int,
    artifact_dir: Optional[str],
) -> List[Counterexample]:
    """Delta-debug each violating schedule and (optionally) persist it.

    Always runs in the parent process, re-executing schedules through the
    deterministic runner, so it works under monkeypatched code too.
    """
    counterexamples: List[Counterexample] = []
    for index, schedule in violations:
        if minimize:
            outcome = minimize_schedule(schedule, max_runs=max_minimize_runs)
            minimized, check, runs = (
                outcome.schedule,
                outcome.result,
                outcome.runs,
            )
        else:
            minimized, check, runs = schedule, run(schedule), 1
        counterexample = Counterexample(
            index=index,
            schedule=schedule,
            minimized=minimized,
            result=check,
            minimize_runs=runs,
        )
        if artifact_dir is not None:
            os.makedirs(artifact_dir, exist_ok=True)
            path = os.path.join(artifact_dir, f"counterexample-{index}.jsonl")
            write_artifact(path, check)
            counterexample.artifact_path = path
        counterexamples.append(counterexample)
    return counterexamples


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
        histogram: Dict[str, int] = {}
        for result in self.results:
            histogram[result.verdict] = histogram.get(result.verdict, 0) + 1
        return histogram

    def summary(self) -> str:
        """One line for logs: population size and verdict counts."""
        counts = ", ".join(
            f"{verdict}={count}" for verdict, count in sorted(self.counts().items())
        )
        cached = self.deduplicated
        dedup = f", {cached} deduplicated" if cached else ""
        return (
            f"{len(self.results)} schedules "
            f"(depth<={self.sweep.depth} exhaustive + "
            f"{self.sweep.samples} sampled): {counts or 'empty'}{dedup}"
        )


def explore(
    sweep: CheckSweep,
    workers: int = 0,
    timeout: float = 120.0,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    minimize: bool = True,
    max_minimize_runs: int = 200,
    artifact_dir: Optional[str] = None,
    fingerprint_store: Optional[FingerprintStore] = None,
    scenario_fn=run_check_scenario,
) -> ExplorationReport:
    """Run the sweep's whole population and minimize every violation.

    ``workers``/``timeout``/``retries``/``checkpoint``/``resume`` forward
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
        keys = []
        for index in range(sweep.scenarios):
            schedule = sweep.schedule(index)
            key = schedule_key(schedule)
            keys.append(key)
            record = fingerprint_store.lookup(key)
            if record is not None:
                prior[index] = _cached_result(index, schedule, record)
    results = run_campaign(
        sweep,
        workers=workers,
        timeout=timeout,
        retries=retries,
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
        (result.index, sweep.schedule(result.index))
        for result in results
        if result.verdict == VERDICT_VIOLATION
    ]
    counterexamples = _minimize_violations(
        violations, minimize, max_minimize_runs, artifact_dir
    )
    return ExplorationReport(
        sweep=sweep, results=results, counterexamples=counterexamples
    )


# -- coverage-guided exploration -----------------------------------------------


def mutate_schedule(
    space: ScheduleSpace,
    schedule: Scenario,
    rng: random.Random,
    seed: int,
    max_tries: int = 12,
) -> Optional[Scenario]:
    """One admissible structural mutation of ``schedule``.

    Operators, all drawn from the space's own alphabet so mutants stay
    inside the fault model: *add* an alphabet action, *remove* a
    scheduled action, *replace* one with a fresh alphabet draw. Returns
    None when ``max_tries`` draws produce nothing admissible and
    structurally new. Deterministic in (schedule, rng state).
    """
    alphabet = space.alphabet()
    if not alphabet:
        return None
    for _ in range(max_tries):
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
        histogram: Dict[str, int] = {}
        for result in self.results:
            histogram[result.verdict] = histogram.get(result.verdict, 0) + 1
        return histogram

    def summary(self) -> str:
        """One line for logs: budget use, novelty yield, verdicts."""
        counts = ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(self.counts().items())
        )
        return (
            f"coverage sweep: {self.executed}/{self.budget} schedules "
            f"executed in {self.rounds} round(s), "
            f"{self.deduplicated} deduplicated, "
            f"{self.new_fingerprints} new fingerprint(s), "
            f"corpus {self.corpus_size}: {counts or 'nothing run'}"
        )


def explore_coverage(
    space: ScheduleSpace,
    budget: int,
    store: Optional[FingerprintStore] = None,
    seed: int = 0,
    batch_size: int = 16,
    init_depth: int = 1,
    workers: int = 0,
    timeout: float = 120.0,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    minimize: bool = True,
    max_minimize_runs: int = 200,
    artifact_dir: Optional[str] = None,
    scenario_fn=run_batch_scenario,
    max_stale_proposals: int = 400,
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

    Stops at ``budget`` executed schedules, or earlier when
    ``max_stale_proposals`` consecutive proposals were all duplicates or
    inadmissible (the space is exhausted near the corpus). Fully
    deterministic in (space, budget, seed, store contents).
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

    while executed < budget and stale < max_stale_proposals:
        batch: List[Scenario] = []
        batch_keys: List[str] = []
        while (
            len(batch) < min(batch_size, budget - executed)
            and stale < max_stale_proposals
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
            ScheduleBatch(tuple(batch)),
            workers=workers,
            timeout=timeout,
            retries=retries,
            scenario_fn=scenario_fn,
            progress=progress,
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
    counterexamples = _minimize_violations(
        violations, minimize, max_minimize_runs, artifact_dir
    )
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
