"""The campaign driver: a population in, complete ordered results out.

:func:`run_campaign` fans a *population* — anything with ``len()`` whose
``population[i]`` is a :class:`~repro.workloads.scenario.Scenario`: a
:class:`~repro.campaign.spec.CampaignSpec`, the checker's
:class:`~repro.check.sweep.CheckSweep`, a plain tuple — out through
:func:`~repro.campaign.executors.execute`, where ``workers`` picks the
mode:

* ``workers=0`` — in-process and sequential: the baseline for benchmarks
  and the mode coverage tools can see into;
* ``workers>=1`` — one process per scenario with per-scenario timeouts,
  worker-crash detection and bounded retry.

Either way the engine owns the invariants: completed results are appended
(and flushed) to the JSONL checkpoint in index order
(:class:`~repro.campaign.store.CheckpointStore`) — a result that finishes
before a lower index is held until that index is written, and whatever is
held when the run ends, even by an exception, is written then — so one
seed writes one file whatever the worker count; ``resume=True`` skips
the seeds the checkpoint already holds, ignoring torn, malformed or stale
lines; ``resume=False`` truncates the checkpoint so reruns never
accumulate stale lines a later resume would trust; and the returned list
is asserted to cover exactly ``range(len(population))`` — a campaign can
fail loudly, but it cannot silently lose scenarios. Results depend only
on each scenario — never on the worker count or completion order. One
call is one population: its runs bootstrap each distinct prefix once
(:func:`~repro.workloads.scenario.shared_bootstraps`), in-process or in
each worker.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.campaign.executors import default_workers, execute
from repro.campaign.spec import ScenarioResult
from repro.campaign.store import CheckpointStore, load_checkpoint
from repro.campaign.worker import run_scenario
from repro.errors import CampaignError, ConfigurationError
from repro.workloads.scenario import shared_bootstraps

__all__ = [
    "default_workers",
    "load_checkpoint",
    "run_campaign",
]


def run_campaign(
    population,
    workers: int = 1,
    timeout: float = 120.0,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    scenario_fn=run_scenario,
    progress=None,
    prior_results: Optional[Dict[int, ScenarioResult]] = None,
) -> List[ScenarioResult]:
    """Run every scenario of ``population``; return results ordered by
    index.

    ``workers`` picks the mode: ``0`` in-process, ``>= 1`` a process
    pool. ``resume=True`` (requires ``checkpoint``) first loads completed
    results from the checkpoint file and only runs what is missing;
    ``resume=False`` truncates any existing checkpoint instead of
    appending to it. ``prior_results`` injects already-known results
    (e.g. fingerprint-store dedup hits) that are trusted like resumed
    checkpoint entries — checkpoint lines win on conflict. ``progress``,
    when given, is called with each :class:`ScenarioResult` as it
    completes. Bad arguments, and a
    checkpoint path that cannot be opened, raise
    :class:`~repro.errors.ConfigurationError`; a scenario index that ends
    the run without a result raises :class:`CampaignError`.
    ``scenario_fn(scenario, index)`` folds one run into its
    :class:`ScenarioResult` (default: the campaign's :func:`run_scenario`).
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0: {workers}")
    if timeout <= 0:
        raise ConfigurationError(f"timeout must be positive: {timeout}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0: {retries}")
    if resume and not checkpoint:
        raise ConfigurationError("resume requires a checkpoint path")

    completed: Dict[int, ScenarioResult] = {}
    if resume:
        completed = load_checkpoint(checkpoint, population)
    checkpointed = frozenset(completed)
    if prior_results:
        for index, result in prior_results.items():
            completed.setdefault(index, result)
    size = len(population)
    pending = deque([index for index in range(size) if index not in completed])

    sink = CheckpointStore(checkpoint, resume=resume)
    # Every result the checkpoint lacks is written in index order: it is
    # held until each lower index is written. Injected prior results are
    # held from the start, so the file stays a complete record.
    unwritten = deque(index for index in range(size) if index not in checkpointed)
    held = {index: completed[index] for index in completed.keys() - checkpointed}

    def finish(result: ScenarioResult) -> None:
        completed[result.index] = held[result.index] = result
        while unwritten and unwritten[0] in held:
            sink.write(held.pop(unwritten.popleft()))
        if progress is not None:
            progress(result)

    try:
        with shared_bootstraps():
            execute(
                population,
                pending,
                workers=workers,
                timeout=timeout,
                retries=retries,
                scenario_fn=scenario_fn,
                finish=finish,
            )
    finally:
        for index in sorted(held):
            sink.write(held[index])
        sink.close()

    missing = [index for index in range(size) if index not in completed]
    if missing:
        shown = ", ".join(str(index) for index in missing[:20])
        if len(missing) > 20:
            shown += f", ... ({len(missing)} total)"
        raise CampaignError(
            f"campaign incomplete (workers={workers}): no result for "
            f"scenario index(es) {shown}"
        )
    return [completed[index] for index in range(size)]
