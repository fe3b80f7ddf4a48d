"""Smoke test of the benchmark itself. Run it explicitly (about 3 minutes):

    python3 -m pytest bench/test_bench_smoke.py -q

Tier-1 does not collect it (``testpaths = ["tests"]``). Every workload runs
one timed job at a reduced horizon, twice with tracing and once without.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from layers import LAYERS, layer_of, modules_under  # noqa: E402
from run import EXACT_UNITS, SPEC  # noqa: E402

WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """(untraced result, traced result, traced result again) of one workload."""
    name = request.param
    return run_smoke(name, 0), run_smoke(name, 1), run_smoke(name, 1)


def test_result_line_has_exactly_the_declared_metrics(runs):
    for result, block in zip(runs, ("end_to_end", "per_layer", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {entry["name"]: entry["unit"] for entry in SPEC[block]}
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))


def test_no_operation_fails(runs):
    for result in runs:
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
    assert runs[1]["metrics"]["failed_share"]["value"] == 0
    assert runs[1]["metrics"]["sim.digest_mismatches"]["value"] == 0


def test_end_to_end_metrics_are_never_zero(runs):
    assert all(metric["value"] > 0 for metric in runs[0]["metrics"].values())


def test_exact_metrics_repeat(runs):
    _untraced, first, second = runs
    for name, metric in first["metrics"].items():
        if metric["unit"] in EXACT_UNITS or name.endswith(".calls"):
            assert metric == second["metrics"][name], name


def test_layer_shares_sum_to_one(runs):
    metrics = runs[1]["metrics"]
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in LAYERS)
    unmapped = metrics["unmapped.share"]["value"]
    assert shares + unmapped == pytest.approx(1.0, abs=1e-6)
    # Freed callee locals land in the benchmark's own frames (see README).
    assert unmapped < 0.03


def test_layer_map_covers_every_module():
    modules = modules_under(os.path.join(ROOT, "src", "repro"))
    assert modules, "no modules found under src/repro"
    unmapped = [module for module in modules if layer_of(module) not in LAYERS]
    assert not unmapped, f"modules with no layer: {unmapped}"


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [e["name"] for block in ("workloads", "end_to_end", "per_layer")
             for e in SPEC[block]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = [entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
