#!/usr/bin/env python
"""Which functions under ``src/repro`` does anything the repo ships reach?

Runs, in this one process and under :mod:`cProfile`:

* one job of each of the five benchmark workloads (``bench/workloads.py``),
  on seeds 0 and 1;
* the benchmark's layer drivers (``bench/drivers.py``);
* ``pytest benchmarks --benchmark-disable``;
* every ``examples/*.py``;
* the CLI commands of the CI workflow (``.github/workflows/ci.yml``), with
  ``--workers 0``, and the pinned ones (``tests/pins.py``);

then the tier-1 suite (``pytest tests``), and prints every function defined
under ``src/repro`` that none of the shipped runs reaches, marked
``[tier-1]`` when the test suite reaches it. Abstract declarations
(``abc.abstractmethod``) are not counted: their bodies never run. The
campaign executors module, whose process pool runs in subprocess workers,
is out of an in-process profile's sight: it is listed apart, as not
profiled, not as unreached. The report is evidence for deleting code; CI
also fails when the count reached by nothing at all (not even tier-1)
rises::

    python tools/traffic.py > traffic-report.txt

Needs ``pytest``, ``pytest-benchmark`` and ``hypothesis``; takes a few
minutes.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO_DIR = os.path.join(ROOT, "src", "repro")

#: ``(module, qualified-name prefix)`` of the code that runs in the process
#: pool's subprocess workers: reported as not profiled when unreached.
NOT_PROFILED = (("campaign/executors.py", ""),)

#: The CLI commands of the CI workflow (``{tmp}`` is a temporary directory),
#: each distinct command once, ``--workers`` set to 0.
CLI_COMMANDS = (
    "fig1",
    "fig10",
    "fig11",
    "demo --timeline",
    "bounds",
    "metrics --format csv",
    "campaign --scenarios 3 --workers 0 --seed 1 --checkpoint {tmp}/campaign.jsonl",
    "campaign --scenarios 6 --workers 0 --seed 1 --checkpoint {tmp}/campaign.jsonl"
    " --resume --verbose",
    "campaign --scenarios 6 --seed 1 --workers 0 --checkpoint {tmp}/checkpoint.jsonl",
    "check --depth 1 --seed 0 --workers 0 --fingerprints {tmp}/check-fp.jsonl",
    "check --depth 1 --seed 0 --workers 0 --fingerprints {tmp}/check-fp.jsonl",
    "check --coverage --budget 12 --batch 6 --workers 0 --nodes 4 --members 3"
    " --verbose",
    "check --coverage --depth 0 --budget 12 --batch 6 --workers 0 --nodes 4"
    " --members 3 --verbose",
    "check --selftest",
    "compare --nodes 12 --segments 2 --seed 0 --format json",
    "compare --nodes 12 --segments 2 --seed 0",
    "run {tmp}/swim-scenario.json",
    "trace --scenario {tmp}/swim-scenario.json --category msh.change",
    "trace --scenario {tmp}/swim-scenario.json --export {tmp}/trace.jsonl",
    "qos --catalog --backend canely --backend swim --quick --seed 0"
    " --report {tmp}/qos-smoke.json --format csv",
    "qos --catalog --backend canely --backend swim --quick --seed 0"
    " --report {tmp}/qos-smoke-b.json",
    "qos --scenario quiet-baseline --backend canely --backend swim --quick --chart",
    "spans --seed 0 --chrome {tmp}/spans-smoke.json --validate",
    "spans --seed 0 --chrome {tmp}/spans-smoke-flows.json --flows --validate",
    "spans --seed 0 --critical-path",
    "spans --seed 0",
    "spans --seed 0 --tree",
    "spans --seed 0 --msc",
)

SWIM_SCENARIO = (
    '{"nodes": 5, "backend": "swim",'
    ' "events": [{"at_ms": 100, "action": "crash", "node": 1}],'
    ' "duration_ms": 400}\n'
)

#: (module path under src/repro, first line, name)
Key = Tuple[str, int, str]


def abstract_declarations(source: str) -> Set[Tuple[int, str]]:
    """``(first line, name)`` of each function decorated with
    ``abc.abstractmethod``: a declaration, whose body nothing can reach."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = node.decorator_list
        if any(
            getattr(d, "attr", getattr(d, "id", None)) == "abstractmethod"
            for d in decorators
        ):
            # A decorated function's code starts at its first decorator.
            found.add((min(d.lineno for d in decorators), node.name))
    return found


def defined_functions() -> Dict[Key, str]:
    """Every named function under ``src/repro`` -> its qualified name.

    Read from the compiled sources, nested functions and methods included;
    lambdas and comprehensions are not functions anybody could delete, and
    abstract declarations are not code anybody could run.
    """
    found = {}
    for directory, _dirs, files in os.walk(REPRO_DIR):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, REPRO_DIR).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            abstract = abstract_declarations(source)
            pending = [compile(source, path, "exec")]
            while pending:
                code = pending.pop()
                for const in code.co_consts:
                    if hasattr(const, "co_code"):
                        pending.append(const)
                if code.co_name.startswith("<"):
                    continue
                if (code.co_firstlineno, code.co_name) in abstract:
                    continue
                qualname = getattr(code, "co_qualname", code.co_name)
                found[(module, code.co_firstlineno, code.co_name)] = qualname
    return found


def reached(profiler: cProfile.Profile) -> Set[Key]:
    """The ``src/repro`` functions a profile saw called."""
    prefix = os.path.realpath(REPRO_DIR) + os.sep
    keys = set()
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # a built-in
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            module = filename[len(prefix):].replace(os.sep, "/")
            keys.add((module, code.co_firstlineno, code.co_name))
    return keys


def quietly(run: Callable[[], object]) -> str:
    """Run with stdout/stderr swallowed; returns how it ended (a traceback
    goes to stderr)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = run()
    except SystemExit as stop:
        outcome = stop.code
    except Exception as error:  # noqa: BLE001 - one failed run spoils no report
        traceback.print_exc()
        return f"raised {type(error).__name__}: {error}"
    # CLI and pytest runs return an exit status; a job returns its results.
    return f"exit {outcome}" if isinstance(outcome, int) and outcome else "ok"


def shipped_runs(tmp: str) -> List[Tuple[str, Callable[[], object]]]:
    """``(label, run)`` for everything the repo ships."""
    import pytest
    from pins import PINS, run_cli

    from repro.__main__ import main as cli
    from workloads import workloads

    runs = []
    for name, workload in workloads().items():
        for seed in (0, 1):
            job_dir = os.path.join(tmp, f"{name}.{seed}")
            os.makedirs(job_dir)
            runs.append((
                f"bench {name} seed {seed}",
                lambda job=workload.run, s=seed, d=job_dir: job(s, d),
            ))
    drivers = os.path.join(ROOT, "bench", "drivers.py")
    runs.append(
        ("bench/drivers.py", lambda: runpy.run_path(drivers, run_name="__main__"))
    )
    runs.append((
        "pytest benchmarks",
        lambda: pytest.main(
            ["benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
        ),
    ))
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            path = os.path.join(examples, name)
            runs.append((f"examples/{name}", lambda p=path: run_script(p)))
    scenario = os.path.join(tmp, "swim-scenario.json")
    with open(scenario, "w", encoding="utf-8") as handle:
        handle.write(SWIM_SCENARIO)
    for command in CLI_COMMANDS:
        argv = command.format(tmp=tmp).split()
        runs.append((f"repro {command}", lambda a=argv: cli(a)))
    for index, argv in enumerate(dict.fromkeys(pin.argv for pin in PINS if pin.argv)):
        out = os.path.join(tmp, f"pin-{index}.out")
        runs.append((
            f"repro {' '.join(argv).replace(ROOT + os.sep, '')} (pinned)",
            lambda a=argv, o=out: run_cli(a, o),
        ))
    return runs


def run_script(path: str) -> None:
    saved = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = saved


def profile(run: Callable[[], object]) -> Tuple[Set[Key], str, float]:
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        outcome = quietly(run)
    finally:
        profiler.disable()
    return reached(profiler), outcome, time.perf_counter() - started


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [
        os.path.join(ROOT, directory) for directory in ("src", "bench", "tests")
    ]
    sys.dont_write_bytecode = True
    functions = defined_functions()
    shipped: Set[Key] = set()
    print("== runs (functions reached, outcome, host seconds under the profiler) ==")
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        runs: List[Tuple[str, Callable[[], object]]] = [
            ("imports", lambda: runs.extend(shipped_runs(tmp)))
        ]
        for label, run in runs:  # grows by the shipped runs as "imports" runs
            keys, outcome, seconds = profile(run)
            shipped |= keys
            print(f"  {len(keys):>5}  {outcome:<8} {seconds:7.1f} s  {label}")
    import pytest

    tier1, outcome, seconds = profile(
        lambda: pytest.main(["tests", "-q", "-p", "no:cacheprovider"])
    )
    print(f"  {len(tier1):>5}  {outcome:<8} {seconds:7.1f} s  pytest tests (tier-1)")

    def not_profiled(key: Key) -> bool:
        return any(
            key[0] == module and functions[key].startswith(prefix)
            for module, prefix in NOT_PROFILED
        )

    unreached = sorted(key for key in functions if key not in shipped)
    apart = [key for key in unreached if not_profiled(key)]
    unreached = [key for key in unreached if not not_profiled(key)]
    print()
    print(
        f"== {len(unreached)} of {len(functions)} functions under src/repro are "
        f"reached by nothing the repo ships ({sum(key in tier1 for key in unreached)} "
        f"of them by tier-1) =="
    )
    for key in unreached:
        mark = "  [tier-1]" if key in tier1 else ""
        print(f"  repro/{key[0]}:{key[1]}  {functions[key]}{mark}")
    print()
    print(
        f"== {len(apart)} not profiled: the process pool's subprocess "
        "workers =="
    )
    for key in apart:
        print(f"  repro/{key[0]}:{key[1]}  {functions[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
