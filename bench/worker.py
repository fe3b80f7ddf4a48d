"""One workload, measured in a fresh interpreter so that ``setup_s`` and
``peak_rss_mb`` are its own. Spawned by ``run.py``; prints one JSON line.

Order of a run: imports and input generation, one untimed warm-up job
(fills the encoding cache, the delivery tables and the lazy imports), the
timed jobs, then — only when asked — one profiler-hooked job. End-to-end
numbers come from the timed, unprofiled jobs alone.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A directory for the files a job writes: inside the checkout, and gone
    when the ``with`` block ends."""
    return tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".tmp-")


#: Unobserved reference jobs behind ``obs.record.overhead_ratio``.
PLAIN_ITERATIONS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="start timed jobs for this long; 0 runs exactly one")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    from repro.errors import ScenarioError
    from repro.obs import InvariantViolation

    from layers import LAYERS, fold_profile
    from workloads import Iteration, digest, workloads

    workload = workloads(smoke=args.smoke)[args.workload]

    def run_job(job, profiler=None):
        """One job in a scratch directory of its own -> (iteration, wall_s).
        A job that raises a scenario failure counts as all of its
        operations failed; anything else is a bug and propagates."""
        gc.collect()  # each job starts from the same heap, not its predecessor's garbage
        with scratch_dir() as tmp:
            started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                iteration = job(args.seed, tmp)
            except (ScenarioError, InvariantViolation) as error:
                iteration = Iteration(
                    failures={"job": f"{type(error).__name__}: {error}"}
                )
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - started
            iteration.keep = None  # freed here, outside the timed job
            return iteration, wall

    warm, _ = run_job(workload.run)
    setup_s = time.monotonic() - args.t0

    digests = {op: digest(observables) for op, observables in warm.ops.items()}
    ops_per_job = max(len(warm.ops), 1)
    walls, phases, failures = [], [], dict(warm.failures)
    attempted = failed = unrepeatable = 0
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        iteration, wall = run_job(workload.run)
        walls.append(wall)
        phases.append(iteration.phases)
        bad = dict(iteration.failures)
        for op, observables in iteration.ops.items():
            if digest(observables) != digests.get(op):
                unrepeatable += 1
                bad.setdefault(op, "observables differ from the warm-up job's")
        attempted += ops_per_job
        failed += ops_per_job if "job" in bad else len(bad)
        failures.update(bad)

    # After the last timed job, so that growth over the jobs shows; before
    # the profiled job, whose bookkeeping is not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    last = iteration
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unrepeatable": unrepeatable,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "bus_util": last.bus_util,
        "detect_ms_p50": statistics.median(last.detect_p50_ms or [0.0]),
        "detect_ms_max": last.detect_max_ms,
        "query_accuracy": statistics.fmean(last.query_accuracy or [0.0]),
        "phases": phases,
        "counters": last.counters,
    }

    if args.trace:
        profiler = cProfile.Profile()
        _, traced_wall = run_job(workload.run, profiler)
        self_s, calls, unmapped_s = fold_profile(
            profiler.getstats(), os.path.dirname(repro.__file__)
        )
        total = sum(self_s.values()) + unmapped_s
        result["layers"] = {
            layer: {
                "self_s": self_s[layer],
                "share": self_s[layer] / total,
                "calls": calls[layer],
            }
            for layer in LAYERS
        }
        result["unmapped_share"] = unmapped_s / total
        result["traced_wall_s"] = traced_wall
        if workload.plain is not None:
            result["plain_walls"] = [
                run_job(workload.plain)[1] for _ in range(PLAIN_ITERATIONS)
            ]

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
