"""The pin registry: every committed output the tests hold in place.

A pin is a committed path and the run that produces its text: a ``repro``
command line (its stdout, or the file it writes where the argv says
``OUT``), or a function for the runs no command makes (the golden
scenarios, the canonical timeline, the public-API snapshot). A text of at
most ``LIMIT`` bytes is committed whole at its path; a longer one is
committed as ``{sha256, bytes, lines, blocks}`` under its path in
``tests/golden/digests.json``, one SHA-256 per block of ``BLOCK`` lines.
A moved pin names what moved: the first differing line of a whole text
(in an indented JSON report that line carries the field) or the first
differing block of a digested one, with this run's lines. A golden
scenario's text is one JSON trace row per line and a line of run totals,
so a block is trace rows.

``tests/test_pins.py`` checks every pin in tier-1, and the tests of each
output check its own pins with ``assert_hold``. One command checks them
all, and with ``--write`` regenerates them all; it writes only the files
whose bytes change::

    PYTHONPATH=src python tests/pins.py [--write]

Regenerate only for a change meant to move what a pin holds, and say in
its description which pins moved and why (``docs/checking.md``, "Pins").
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import pathlib
import re
import runpy
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.__main__ import main as cli  # noqa: E402
from repro.can.errormodel import FaultInjector, FaultKind  # noqa: E402
from repro.can.identifiers import MessageType  # noqa: E402
from repro.core.config import CanelyConfig  # noqa: E402
from repro.core.stack import CanelyNetwork  # noqa: E402
from repro.sim.clock import ms  # noqa: E402
from repro.sim.timeline import timeline  # noqa: E402
from repro.sim.trace import record_to_dict  # noqa: E402

#: A text longer than this many bytes is committed as digests, not whole.
LIMIT = 100_000

#: Lines per block digest: a moved digested pin is narrowed to this many.
BLOCK = 64

DIGESTS = "tests/golden/digests.json"

#: Marks the argv's output file: the pin is what the command writes there.
OUT = "{out}"


@dataclass(frozen=True)
class Pin:
    """A committed path and the run whose text it holds: a ``repro`` argv
    (its stdout, or with ``writes`` the file at ``OUT``) or a function."""

    path: str
    argv: Tuple[str, ...] = ()
    writes: bool = False
    function: Optional[Callable[[], str]] = None


# -- the golden scenarios ------------------------------------------------------

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def fingerprint(net):
    """Everything observable about a finished run, in comparable form."""
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "bits_by_type": dict(net.bus.stats.bits_by_type),
        "views": views,
    }


def scenario_crash_detection():
    """10 nodes bootstrap; one crashes; detection and view change follow."""
    net = CanelyNetwork(node_count=10, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.node(7).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    return net


def scenario_join_leave_churn():
    """Staggered joins and a voluntary leave exercise RHA and the cycle."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    for node_id in range(4):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(4).join()
    net.node(5).join()
    net.run_for(ms(300))
    net.node(2).leave()
    net.run_for(ms(300))
    assert net.views_agree()
    return net


def scenario_inconsistent_omissions():
    """FDA traffic hit by inconsistent omissions while a node crashes."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[2],
    )
    net = CanelyNetwork(node_count=8, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(400))
    net.node(6).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    return net


SCENARIOS = [
    scenario_crash_detection,
    scenario_join_leave_churn,
    scenario_inconsistent_omissions,
]


def scenario_text(scenario) -> str:
    """One JSON trace row per line, then one line of the run's totals."""
    run = fingerprint(scenario())
    rows = [json.dumps(row, sort_keys=True) for row in run.pop("trace")]
    return "\n".join(rows + [json.dumps(run, sort_keys=True)]) + "\n"


def canonical_scenario_lines():
    """The protocol-level timeline of one crash and one leave."""
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.join_all()
    net.run_for(ms(300))
    net.node(3).crash()
    net.run_for(ms(100))
    net.node(1).leave()
    net.run_for(ms(100))
    return timeline(net.sim.trace)


def public_api_text() -> str:
    snapshot = runpy.run_path(str(ROOT / "tools" / "check_public_api.py"))
    return json.dumps(snapshot["snapshot"](), indent=2, sort_keys=True) + "\n"


# -- the registry --------------------------------------------------------------

CHECK = ("check", "--depth", "1", "--seed", "0", "--workers", "0",
         "--fingerprints", OUT)
QOS = ("qos", "--catalog", "--backend", "canely", "--backend", "swim",
       "--quick", "--seed", "0", "--format", "json")
SPANS = ("spans", "--seed", "0", "--chrome", OUT)
EXAMPLES = ROOT / "examples" / "scenarios"

PINS = (
    *(
        Pin(f"tests/golden/{scenario.__name__[len('scenario_'):]}.jsonl",
            function=functools.partial(scenario_text, scenario))
        for scenario in SCENARIOS
    ),
    Pin("tests/golden/canonical_scenario.txt",
        function=lambda: "\n".join(canonical_scenario_lines()) + "\n"),
    Pin("tests/golden/check_depth1_seed0.jsonl", CHECK, writes=True),
    Pin("tests/golden/check_depth1_seed0.txt", CHECK),
    Pin("tests/golden/qos_catalog_quick_seed0.json", QOS),
    Pin("tests/golden/compare_seed0.json",
        ("compare", "--seed", "0", "--format", "json")),
    Pin("tests/golden/compare_12n_2seg_seed0.json",
        ("compare", "--nodes", "12", "--segments", "2", "--seed", "0",
         "--format", "json")),
    Pin("tests/golden/spans_seed0_chrome.json", SPANS, writes=True),
    Pin("tests/golden/spans_seed0_chrome_flows.json", SPANS + ("--flows",),
        writes=True),
    *(
        Pin(f"examples/scenarios/{name}.out.json",
            ("run", str(EXAMPLES / f"{name}.json")))
        for name in ("crash_and_rejoin", "crash_rejoin_crash")
    ),
    Pin("tools/public_api.json", function=public_api_text),
)


def run_cli(argv: Tuple[str, ...], out: str) -> Tuple[str, Optional[str]]:
    """``repro argv`` in this process, ``OUT`` standing for ``out``: its
    stdout, and the text it wrote to ``out`` (``None`` if nothing)."""
    args = [out if arg == OUT else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli(args)
    if status:
        raise RuntimeError(f"repro {' '.join(args)} exited {status}")
    path = pathlib.Path(out)
    return stdout.getvalue(), path.read_bytes().decode() if path.is_file() else None


def produce(pins=PINS) -> Dict[str, str]:
    """Each pin's path -> this run's text; each distinct argv runs once."""
    texts = {}
    runs = {}
    with tempfile.TemporaryDirectory(prefix="pins-") as tmp:
        for pin in pins:
            if pin.function is not None:
                texts[pin.path] = pin.function()
                continue
            if pin.argv not in runs:
                runs[pin.argv] = run_cli(pin.argv, f"{tmp}/{len(runs)}.out")
            stdout, written = runs[pin.argv]
            texts[pin.path] = written if pin.writes else stdout
    return texts


_produced: Dict[str, str] = {}


def produced(paths: Iterable[str]) -> Dict[str, str]:
    """``produce`` for the registered pins at ``paths``, each text made once
    per process however many tests check it."""
    paths = list(paths)
    _produced.update(produce(
        [pin for pin in PINS if pin.path in paths and pin.path not in _produced]
    ))
    return {path: _produced[path] for path in paths}


def assert_hold(*paths: str) -> None:
    """Fail, saying what moved, unless every pin at ``paths`` holds."""
    moved = check(produced(paths))
    assert not moved, "\n\n".join(moved)


# -- the two stored forms ------------------------------------------------------


def _lines(text: str) -> List[str]:
    """The text's lines, each with its newline (the last may lack one)."""
    return re.findall(r"[^\n]*\n|[^\n]+$", text)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(text: str) -> dict:
    """The committed form of a text over ``LIMIT``."""
    lines = _lines(text)
    return {
        "sha256": _sha(text),
        "bytes": len(text.encode()),
        "lines": len(lines),
        "blocks": [
            _sha("".join(lines[start:start + BLOCK]))
            for start in range(0, len(lines), BLOCK)
        ],
    }


def _text_moved(path: str, text: str, pinned: str) -> Optional[str]:
    if text == pinned:
        return None
    new, old = _lines(text), _lines(pinned)
    pairs = list(zip(new, old))
    first = next((i for i, (a, b) in enumerate(pairs) if a != b), len(pairs))
    differing = sum(a != b for a, b in pairs) + abs(len(new) - len(old))
    shown = [
        f"  {side}: " + (lines[first].removesuffix("\n") if first < len(lines) else "(no line)")
        for side, lines in (("pinned", old), ("this run", new))
    ]
    return "\n".join([
        f"{path}: line {first + 1} differs first; {differing} of "
        f"{max(len(new), len(old))} lines differ",
        *shown,
    ])


def _digest_moved(path: str, text: str, pinned: dict) -> Optional[str]:
    actual = _digest(text)
    if actual["sha256"] == pinned["sha256"]:
        return None
    old, new = pinned["blocks"], actual["blocks"]
    # The first block that differs, or the first one either run lacks.
    index = next(
        (i for i, (a, b) in enumerate(zip(old, new)) if a != b),
        min(len(old), len(new)),
    )
    sizes = (
        f"{actual['lines']} lines, {actual['bytes']} bytes; pinned "
        f"{pinned['lines']} lines, {pinned['bytes']} bytes"
    )
    if index == len(new):
        return f"{path}: this run stops early ({sizes})"
    start = index * BLOCK
    rows = "".join(_lines(text)[start:start + BLOCK])
    end = min(start + BLOCK, actual["lines"])
    head = f"{path}: block {index} (lines {start + 1}-{end}) differs first ({sizes})"
    if len(rows) > LIMIT:
        return head
    return f"{head}. This run's lines:\n{rows}"


def _digests(root: pathlib.Path) -> dict:
    path = root / DIGESTS
    return json.loads(path.read_text()) if path.is_file() else {}


def check(texts: Dict[str, str]) -> List[str]:
    """One message per pin whose committed form ``texts`` does not match."""
    digests = _digests(ROOT)
    messages = []
    for path, text in texts.items():
        if path in digests:
            message = _digest_moved(path, text, digests[path])
        elif (ROOT / path).is_file():
            message = _text_moved(path, text, (ROOT / path).read_bytes().decode())
        else:
            message = f"{path}: not committed"
        if message:
            messages.append(message)
    return messages


def write(texts: Dict[str, str], root: pathlib.Path = ROOT) -> List[str]:
    """Commit every text in its form; returns the paths whose bytes changed
    (a path that moved to the other form counts)."""
    digests = {}
    written = []
    for path, text in texts.items():
        target = root / path
        blob = text.encode()
        if len(blob) > LIMIT:
            digests[path] = _digest(text)
            if target.is_file():
                target.unlink()
                written.append(path)
        elif not target.is_file() or target.read_bytes() != blob:
            target.write_bytes(blob)
            written.append(path)
    if digests != _digests(root):
        (root / DIGESTS).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        written.append(DIGESTS)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate every pin (only the files whose bytes change)",
    )
    args = parser.parse_args(argv)
    texts = produce()
    if args.write:
        for path in write(texts):
            print(f"wrote {path}")
        return 0
    messages = check(texts)
    for message in messages:
        print(message)
    print(f"{len(texts) - len(messages)} of {len(texts)} pins hold")
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
