"""Delta-debugging fault schedules down to minimal counterexamples.

A violating schedule found deep in the sampled space often carries faults
that have nothing to do with the violation. :func:`minimize_schedule` is
the classic ddmin loop (Zeller & Hildebrandt) over the schedule's fault
tuple: repeatedly re-execute candidate sub-schedules, keep any that still
violate, and stop at 1-minimality — removing *any single remaining fault*
makes the violation disappear.

The oracle is deterministic (:func:`repro.workloads.scenario.run`), so
no retries or flakiness handling are needed; a cache keyed on the action
tuple avoids re-running sub-schedules ddmin proposes twice. Any
:class:`~repro.workloads.scenario.Scenario` minimizes — a checker
schedule, a campaign draw or a ``repro run`` script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.workloads.scenario import (
    Action,
    Result,
    Scenario,
    run,
    shared_bootstraps,
)

Oracle = Callable[[Scenario], Result]


@dataclass
class MinimizationOutcome:
    """What the minimizer produced.

    ``schedule``/``result`` are the 1-minimal violating schedule and its
    run; ``runs`` counts oracle executions (cache misses only).
    """

    schedule: Scenario
    result: Result
    runs: int


@shared_bootstraps()
def minimize_schedule(
    schedule: Scenario,
    oracle: Oracle = run,
    max_runs: int = 200,
) -> MinimizationOutcome:
    """Shrink ``schedule`` to a 1-minimal violating sub-schedule.

    ``schedule`` must violate under ``oracle`` (asserted on entry: a
    non-violating input would "minimize" to garbage). ``max_runs`` bounds
    the oracle budget; when exhausted the best schedule found so far is
    returned — still violating, possibly not yet 1-minimal.
    """
    current = schedule
    result = oracle(current)
    if not result.violating:
        raise ValueError(
            "minimize_schedule needs a violating schedule; got verdict "
            f"{result.verdict!r}"
        )
    # Only violating runs are kept whole: a result holds its network.
    cache: Dict[Tuple[Action, ...], Optional[Result]] = {current.actions: result}
    runs = [1]

    def probe(candidate: Scenario) -> Optional[Result]:
        """The candidate's run when it violates, else None."""
        key = candidate.actions
        if key not in cache:
            runs[0] += 1
            outcome = oracle(candidate)
            cache[key] = outcome if outcome.violating else None
        return cache[key]

    granularity = 2
    while current.depth >= 2 and runs[0] < max_runs:
        chunks = _partition(current.depth, granularity)
        reduced = False
        # Try each chunk alone ("subset"), then its complement.
        for chunk in chunks:
            if runs[0] >= max_runs:
                break
            complement = current.without(
                i for i in range(current.depth) if i not in chunk
            )
            if complement.depth and probe(complement) is not None:
                current, result = complement, probe(complement)
                granularity = 2
                reduced = True
                break
            subset = current.without(chunk)
            if subset.depth and probe(subset) is not None:
                current, result = subset, probe(subset)
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= current.depth:
                break  # 1-minimal
            granularity = min(current.depth, granularity * 2)
    return MinimizationOutcome(schedule=current, result=result, runs=runs[0])


def _partition(length: int, pieces: int) -> Tuple[Tuple[int, ...], ...]:
    """Split ``range(length)`` into ``pieces`` near-equal index chunks."""
    pieces = min(pieces, length)
    base, extra = divmod(length, pieces)
    chunks = []
    start = 0
    for piece in range(pieces):
        size = base + (1 if piece < extra else 0)
        chunks.append(tuple(range(start, start + size)))
        start += size
    return tuple(chunks)
