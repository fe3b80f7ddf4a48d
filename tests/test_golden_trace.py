"""Golden-trace regression test.

The simulation is fully deterministic; this test pins the protocol-level
event sequence of one canonical scenario so that *any* behavioural change —
an extra frame, a shifted notification, a different view order — shows up
as a diff, not as a silent drift. Update the golden file deliberately when
a change is intended: delete ``tests/golden/canonical_scenario.txt`` and
rerun this test, which regenerates it.
"""

import pathlib

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.timeline import timeline

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "canonical_scenario.txt"

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def canonical_scenario_lines():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.join_all()
    net.run_for(ms(300))
    net.node(3).crash()
    net.run_for(ms(100))
    net.node(1).leave()
    net.run_for(ms(100))
    return timeline(net.sim.trace)


def test_canonical_scenario_matches_golden_trace():
    actual = canonical_scenario_lines()
    if not GOLDEN_PATH.exists():
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text("\n".join(actual) + "\n")
    golden = GOLDEN_PATH.read_text().splitlines()
    assert actual == golden, (
        "the protocol-level event sequence changed; if intended, delete "
        f"{GOLDEN_PATH} and rerun to regenerate"
    )


def test_golden_trace_has_expected_shape():
    lines = canonical_scenario_lines()
    text = "\n".join(lines)
    assert "JOIN" in text
    assert "RHA" in text
    assert "CRASHED" in text
    assert "FDA" in text
    assert "LEAVE" in text
