"""EXT-2 — sequential vs parallel campaign wall-clock.

The campaign engine's reason to exist: the same seeded scenario population,
run once in-process (the sequential baseline) and once fanned out over a
worker pool. Determinism is asserted — identical verdicts and latencies
regardless of worker count — and the wall-clock speedup is reported.

The >2x speedup assertion only applies when the machine actually has >= 4
CPUs; on smaller containers the measurement is still printed, but a
CPU-bound pool cannot beat one core with arithmetic.
"""

import os
import time

from conftest import emit

from repro.campaign import CampaignSpec, run_campaign
from repro.util.tables import render_table

SCENARIOS = 24
WORKERS = 4
SPEC = CampaignSpec(scenarios=SCENARIOS, seed=7)


def _fingerprint(results):
    return [
        (r.index, r.seed, r.verdict, tuple(r.latencies), r.missed)
        for r in results
    ]


def bench_campaign_parallel(benchmark):
    start = time.perf_counter()
    sequential = run_campaign(SPEC, workers=0)
    sequential_s = time.perf_counter() - start

    def parallel():
        return run_campaign(SPEC, workers=WORKERS)

    start = time.perf_counter()
    results = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = time.perf_counter() - start

    speedup = sequential_s / parallel_s
    cpus = os.cpu_count() or 1
    title = (
        "EXT-2 — campaign engine: sequential vs parallel "
        f"({SCENARIOS} scenarios, {WORKERS} workers)"
    )
    # Wall-clock belongs to the host and the run, so it is printed (``-s``)
    # and not persisted: rerunning the bench must leave the tracked table
    # as committed.
    print()
    print(
        render_table(
            ["metric", "value"],
            [
                ["cpus available", str(cpus)],
                ["sequential wall-clock", f"{sequential_s:.2f} s"],
                ["parallel wall-clock", f"{parallel_s:.2f} s"],
                ["speedup", f"{speedup:.2f}x"],
            ],
            title=f"{title}, on this host",
        )
    )
    emit(
        "campaign_parallel",
        render_table(
            ["metric", "value"],
            [
                ["scenarios", str(SCENARIOS)],
                ["workers", str(WORKERS)],
                [
                    "deterministic across worker counts",
                    str(_fingerprint(sequential) == _fingerprint(results)),
                ],
            ],
            title=title,
        ),
    )

    assert _fingerprint(sequential) == _fingerprint(results)
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    if cpus >= 4:
        assert speedup > 2.0, f"only {speedup:.2f}x speedup on {cpus} CPUs"
