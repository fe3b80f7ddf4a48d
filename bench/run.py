"""The repo benchmark: five end-to-end workloads, a per-layer ledger.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--json PATH]
                         [--selfcheck] [--write-reference]

Every workload runs in a fresh interpreter of its own (``worker.py``): it
sets up, runs the timed jobs, and with ``--trace 1`` adds one
profiler-hooked job; the layer drivers (``drivers.py``) run once, in
another. This file prints every metric by name with its unit, checks the
outputs, and ends each workload with the one-line JSON result
``BENCHMARK.json`` promises. Exit status is non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from worker import BENCH_DIR, ROOT

REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
#: Seeds with committed reference digests; 1 is held back for later claims.
REFERENCE_SEEDS = (0, 1)
#: Units of metrics that are exact for a seed: simulated quantities and
#: counts. Everything else is host time or memory and has run-to-run spread.
EXACT_UNITS = frozenset({"count", "sim_ms", "fraction", "per_frame"})

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}


def spawn(script: str, *args: str) -> Dict[str, object]:
    """Run one of the benchmark's scripts to completion in a fresh
    interpreter; its last stdout line is its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, script), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- reference digests ---------------------------------------------------------------


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.json")


def reference_mismatches(result: Dict[str, object]) -> List[str]:
    """Observables whose digest differs from the committed reference for
    this (workload, seed); empty when they all match or none is committed."""
    path = reference_path(result["workload"], result["seed"])
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)["ops"]
    found = result["digests"]
    problems = []
    for op in sorted(set(expected) | set(found)):
        want, got = expected.get(op), found.get(op)
        if want is None or got is None:
            problems.append(f"{op}: {'missing' if got is None else 'unexpected'}")
            continue
        for name in want:
            if want[name] != got.get(name):
                problems.append(f"{op}.{name}: {got.get(name)} != reference {want[name]}")
    return problems


def write_references(names: List[str]) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in names:
        for seed in REFERENCE_SEEDS:
            result = spawn(
                "worker.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "0", "--trace", "0", "--t0", repr(time.monotonic()),
            )
            if result["failed"] or result["unrepeatable"]:
                raise SystemExit(
                    f"{workload} seed {seed}: not writing a reference from a "
                    f"failing run: {result['failures']}"
                )
            with open(reference_path(workload, seed), "w", encoding="utf-8") as handle:
                json.dump(
                    {"workload": workload, "seed": seed, "ops": result["digests"]},
                    handle, indent=1, sort_keys=True,
                )
                handle.write("\n")
            print(f"wrote {os.path.relpath(reference_path(workload, seed), ROOT)}")


# -- metrics ---------------------------------------------------------------------------


def end_to_end_values(result: Dict[str, object]) -> Dict[str, float]:
    return {
        "setup_s": result["setup_s"],
        "wall_s": statistics.median(result["walls"]),
        "ops_per_s": result["attempted"] / sum(result["walls"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "query_accuracy": result["query_accuracy"],
    }


def per_layer_values(
    result: Dict[str, object], mismatches: int, drivers: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric; a count a workload cannot read from outside
    (frames inside ``run_catalog``) is 0."""
    counters = result["counters"]
    frames = counters.get("can.bus.frames", 0)
    wall_s = statistics.median(result["walls"])

    def per_frame(count: float) -> float:
        return count / frames if frames else 0.0

    values = {
        "frames_per_s": frames / wall_s,
        "bus_util": result["bus_util"],
        "detect_ms_p50": result["detect_ms_p50"],
        "detect_ms_max": result["detect_ms_max"],
        "failed_share": result["failed"] / result["attempted"],
        "sim.digest_mismatches": mismatches,
        "trace.overhead_ratio": result["traced_wall_s"] / wall_s,
        "unmapped.share": result["unmapped_share"],
        # observed wall / the same job's wall with observability off; 0 where
        # the workload has nothing to turn off
        "obs.record.overhead_ratio": (
            wall_s / statistics.median(result["plain_walls"])
            if "plain_walls" in result else 0.0
        ),
    }
    for layer, row in result["layers"].items():
        for column, value in row.items():
            values[f"{layer}.{column}"] = value
    for phase in result["phases"][0]:
        values[f"phase.{phase}_s"] = statistics.median(
            job[phase] for job in result["phases"]
        )
    for name in (
        "sim.kernel.events", "sim.trace.records", "can.bus.frames",
        "can.bus.busy_bits", "can.bus.error_frames", "can.bus.clustered_requests",
        "can.encode.cache_hit_ratio", "core.fd.els_sent",
        "core.agreement.rha_executions", "obs.record.spans", "harness.dedup_hits",
    ):
        values[name] = counters.get(name, 0)
    values["sim.kernel.events_per_frame"] = per_frame(values["sim.kernel.events"])
    values["sim.trace.records_per_frame"] = per_frame(values["sim.trace.records"])
    values["obs.record.spans_per_frame"] = per_frame(values["obs.record.spans"])
    values.update(
        (name, value) for name, value in drivers.items() if name in PER_LAYER
    )
    return values


def with_units(values: Dict[str, float], declared: Dict[str, dict]) -> Dict[str, dict]:
    """``name -> {value, unit}``; the names must be exactly the declared ones."""
    if set(values) != set(declared):
        raise SystemExit(
            "metrics and BENCHMARK.json disagree: "
            f"undeclared {sorted(set(values) - set(declared))}, "
            f"missing {sorted(set(declared) - set(values))}"
        )
    return {
        name: {"value": values[name], "unit": declared[name]["unit"]}
        for name in declared
    }


def spread(samples: List[float]) -> Dict[str, float]:
    q1, _median, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1 else samples * 3
    )
    return {"min": min(samples), "q1": q1, "q3": q3, "max": max(samples), "n": len(samples)}


def report(
    workload: str, seed: int, seconds: float,
    drivers: Optional[Dict[str, float]], smoke: bool = False,
) -> Dict[str, object]:
    """Measure one workload, check it, print it; return its document.
    ``drivers`` is the layer drivers' result when the run is traced (they do
    not depend on the workload, so one result serves them all), else None."""
    trace = int(drivers is not None)
    # a fresh interpreter, so that setup_s and peak_rss_mb are the workload's own
    result = spawn(
        "worker.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--t0", repr(time.monotonic()), *(["--smoke"] if smoke else []),
    )
    problems = [] if smoke else reference_mismatches(result)
    mismatches = result["unrepeatable"] + len(problems)
    correct = result["failed"] == 0 and mismatches == 0
    end_to_end = with_units(end_to_end_values(result), END_TO_END)
    end_to_end["wall_s"].update(spread(result["walls"]))
    document = {
        "workload": workload,
        "seed": seed,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "digest_mismatches": problems,
        "end_to_end": end_to_end,
    }
    if trace:
        document["per_layer"] = with_units(
            per_layer_values(result, mismatches, drivers), PER_LAYER
        )

    referenced = smoke or os.path.exists(reference_path(workload, seed))
    print(
        f"== {workload} seed {seed}: {len(result['walls'])} jobs, "
        f"{result['attempted']} operations, {result['failed']} failed, "
        f"{mismatches} digest mismatches"
        f"{'' if referenced else ' (no reference for this seed)'} =="
    )
    for op, reason in sorted(result["failures"].items())[:5]:
        print(f"  FAILED {op}: {reason}")
    if problems:
        print(f"  first differing observable: {problems[0]}")
    for block in ("end_to_end", "per_layer"):
        for name, metric in document.get(block, {}).items():
            detail = (
                f"  [min {metric['min']:.4g}  q1 {metric['q1']:.4g}  "
                f"q3 {metric['q3']:.4g}  max {metric['max']:.4g}  n={metric['n']}]"
                if "n" in metric else ""
            )
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{detail}")
    shown = document["per_layer"] if trace else document["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in shown.items()
        },
    }), flush=True)
    return document


# -- self-check ------------------------------------------------------------------------


def selfcheck(names: List[str], seed: int, seconds: float) -> bool:
    """Run the set twice on the same code; the two must agree within the
    benchmark's own bounds, and exactly where a metric is exact."""
    drivers = spawn("drivers.py")
    first, second = (
        {name: report(name, seed, seconds, drivers) for name in names}
        for _ in range(2)
    )
    ok = True
    print("== selfcheck: A vs B ==")
    for name in names:
        a, b = first[name], second[name]
        if not (a["correct"] and b["correct"]):
            print(f"  {name}: FAILED correctness")
            ok = False
        for metric, entry in END_TO_END.items():
            va, vb = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            gap = abs(va - vb) / min(va, vb)
            verdict = "ok" if gap <= entry["bound"] else "FAILED"
            ok = ok and gap <= entry["bound"]
            print(
                f"  {name:<16} {metric:<16} A {va:<12.6g} B {vb:<12.6g} "
                f"spread {gap:7.2%}  bound {entry['bound']:.0%}  {verdict}"
            )
        for metric, entry in PER_LAYER.items():
            va, vb = a["per_layer"][metric]["value"], b["per_layer"][metric]["value"]
            if va != vb and (entry["unit"] in EXACT_UNITS or metric.endswith(".calls")):
                print(f"  {name:<16} {metric}: exact metric differs: {va} != {vb}  FAILED")
                ok = False
    print(f"== selfcheck {'passed' if ok else 'FAILED'} ==")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    known = [entry["name"] for entry in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="run this workload (repeatable); default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long one workload starts timed jobs for; "
                             "0 runs exactly one job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: profiled job, drivers, per-layer metrics on the "
                             "result line; 0: end-to-end metrics only")
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, no reference check (for the smoke test)")
    parser.add_argument("--json", metavar="PATH", help="also write every document here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and require the two to agree")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference/ for seeds 0 and 1")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    names = args.workload or known
    if args.write_reference:
        write_references(names)
        return 0
    if args.selfcheck:
        return 0 if selfcheck(names, args.seed, args.seconds) else 1
    drivers = spawn("drivers.py") if args.trace else None
    documents = [
        report(name, args.seed, args.seconds, drivers, args.smoke) for name in names
    ]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({doc["workload"]: doc for doc in documents}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(doc["correct"] for doc in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
