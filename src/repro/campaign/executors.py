"""How a campaign's pending scenarios run: in-process or in a process pool.

:func:`~repro.campaign.engine.run_campaign` owns *what* runs (the
population, the pending indexes, checkpoint bookkeeping); :func:`execute`
owns *how*, and ``workers`` alone picks it:

* ``workers=0`` — in-process and sequential, with no isolation and no
  timeouts: the deterministic baseline benchmarks and coverage tools see
  into, and the only mode that sees monkeypatched code under test.
* ``workers >= 1`` — the single-host multiprocessing pool: one process
  per scenario, at most ``workers`` alive at once, with per-scenario
  wall-clock timeouts, worker-crash detection and bounded retry.

Either way the parent indexes ``population[i]`` and hands that one
:class:`~repro.workloads.scenario.Scenario` to ``scenario_fn(scenario,
i)``, so results remain a function of the scenario only — never of worker
count or completion order.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro.campaign.spec import (
    VERDICT_ERROR,
    VERDICT_TIMEOUT,
    VERDICT_WORKER_CRASH,
    ScenarioResult,
)

#: ``finish(result)`` — the engine's completion callback.
FinishFn = Callable[[ScenarioResult], None]

#: How long a reaper keeps polling a dead or terminated worker's queue
#: before deciding no result was posted (SimpleQueue writes straight to
#: the pipe, so a clean put() is visible by the time the child has
#: exited).
_DRAIN_GRACE_S = 0.5
_POLL_S = 0.02


def default_workers() -> int:
    """A sensible worker-pool size for this machine."""
    return max(1, min(os.cpu_count() or 1, 8))


def _context():
    """Prefer fork (cheap, inherits closures); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _attempt(scenario, index: int, scenario_fn) -> ScenarioResult:
    """Run one scenario, mapping stray exceptions to an ``error`` verdict."""
    try:
        result = scenario_fn(scenario, index)
    except Exception as error:
        import traceback

        result = ScenarioResult(
            index=index,
            seed=scenario.seed,
            verdict=VERDICT_ERROR,
            detail=f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
        )
    return result


def _child_main(scenario, index, scenario_fn, queue) -> None:
    """Worker-process entry point: one scenario, one result, exit."""
    queue.put(_attempt(scenario, index, scenario_fn).to_dict())


def _drain_queue(queue, grace_s: float) -> Optional[Dict[str, Any]]:
    """One posted result from ``queue``, polling up to ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        if not queue.empty():
            return queue.get()
        if time.monotonic() >= deadline:
            return None
        time.sleep(_POLL_S)


@dataclass
class _Job:
    """One live worker process and its bookkeeping."""

    index: int
    process: Any
    queue: Any
    started: float
    attempt: int


def execute(
    population,
    pending: Deque[int],
    *,
    workers: int,
    timeout: float,
    retries: int,
    scenario_fn,
    finish: FinishFn,
) -> None:
    """Run every index in ``pending``, calling ``finish`` once per index
    with whatever verdict its execution earned: in-process when
    ``workers`` is 0, otherwise in a pool of ``workers`` processes
    (``timeout`` and ``retries`` apply to the pool only)."""
    if workers == 0:
        while pending:
            index = pending.popleft()
            finish(_attempt(population[index], index, scenario_fn))
        return
    _run_pool(
        population, pending, workers, timeout, retries, scenario_fn, finish
    )


def _run_pool(
    population,
    pending: Deque[int],
    workers: int,
    timeout: float,
    retries: int,
    scenario_fn,
    finish: FinishFn,
) -> None:
    """The process pool: launch, reap, retry, report.

    Each worker process runs exactly one scenario and exits, so scenario
    state cannot leak between runs. A worker over its wall-clock budget is
    terminated — *after* its result queue is drained, so a result posted
    just before the deadline is kept, not discarded — and the scenario
    retried, then reported as ``timeout``; a worker that dies without
    posting a result is retried up to ``retries`` times, then reported as
    ``worker_crash``.
    """
    ctx = _context()
    attempts: Dict[int, int] = {}
    running: Dict[int, _Job] = {}

    def give_up(job: _Job, verdict: str, detail: str) -> None:
        if job.attempt <= retries:
            pending.append(job.index)  # bounded retry
            return
        finish(
            ScenarioResult(
                index=job.index,
                seed=population[job.index].seed,
                verdict=verdict,
                detail=detail,
                attempts=job.attempt,
            )
        )

    def collect(job: _Job, raw: Dict[str, Any]) -> None:
        result = ScenarioResult.from_dict(raw)
        result.attempts = job.attempt
        finish(result)

    try:
        while pending or running:
            while pending and len(running) < workers:
                index = pending.popleft()
                attempts[index] = attempts.get(index, 0) + 1
                queue = ctx.SimpleQueue()
                process = ctx.Process(
                    target=_child_main,
                    args=(population[index], index, scenario_fn, queue),
                )
                process.start()
                running[index] = _Job(
                    index=index,
                    process=process,
                    queue=queue,
                    started=time.monotonic(),
                    attempt=attempts[index],
                )

            # Block until a worker exits (its sentinel fires) or the poll
            # interval elapses — workers post their result just before
            # exiting, so this reaps with near-zero latency without a
            # busy-wait.
            multiprocessing.connection.wait(
                [job.process.sentinel for job in running.values()],
                timeout=_POLL_S,
            )
            now = time.monotonic()
            for index, job in list(running.items()):
                if not job.queue.empty():
                    raw = job.queue.get()
                    del running[index]
                    collect(job, raw)
                    # A well-behaved worker exits right after its put();
                    # one kept alive by stray non-daemon threads must not
                    # stall the whole campaign.
                    job.process.join(1.0)
                    if job.process.is_alive():
                        job.process.terminate()
                        job.process.join()
                elif job.process.exitcode is not None:
                    # The worker died without (apparently) posting a
                    # result; give the pipe a grace period before calling
                    # it a crash.
                    raw = _drain_queue(job.queue, _DRAIN_GRACE_S)
                    job.process.join()
                    del running[index]
                    if raw is not None:
                        collect(job, raw)
                    else:
                        give_up(
                            job,
                            VERDICT_WORKER_CRASH,
                            f"worker exited with code {job.process.exitcode} "
                            f"before reporting a result "
                            f"(attempt {job.attempt}/{retries + 1})",
                        )
                elif now - job.started > timeout:
                    del running[index]
                    _reap_timed_out(job, timeout, retries, collect, give_up)
    finally:
        for job in running.values():
            if job.process.is_alive():
                job.process.terminate()
                job.process.join(1.0)


def _reap_timed_out(
    job: _Job,
    timeout: float,
    retries: int,
    collect: Callable[[_Job, Dict[str, Any]], None],
    give_up: Callable[[_Job, str, str], None],
) -> None:
    """Terminate a worker over budget — draining its queue first.

    A result posted just before the deadline (or between the deadline
    check and the SIGTERM) must be kept: the scenario *did* complete, so
    discarding it would waste a retry or misreport a finished run as
    ``timeout``. This mirrors the worker-crash branch, which has always
    drained before giving up.
    """
    raw = _drain_queue(job.queue, 0.0)
    job.process.terminate()
    job.process.join(1.0)
    if job.process.is_alive():  # pragma: no cover
        job.process.kill()
        job.process.join()
    if raw is None:
        # The put() may have landed between the empty() check and the
        # terminate(); look once more, with the usual pipe grace.
        raw = _drain_queue(job.queue, _DRAIN_GRACE_S)
    if raw is not None:
        collect(job, raw)
        return
    give_up(
        job,
        VERDICT_TIMEOUT,
        f"scenario exceeded the {timeout:.1f}s budget "
        f"(attempt {job.attempt}/{retries + 1})",
    )
