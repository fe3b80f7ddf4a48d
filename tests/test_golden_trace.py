"""The canonical scenario's timeline holds every protocol the paper names.

Its lines are pinned byte for byte by ``tests/golden/canonical_scenario.txt``
(``tests/pins.py``), so an extra frame, a shifted notification or a
different view order shows up as a diff, not as a silent drift.
"""

import pins
from pins import canonical_scenario_lines


def test_canonical_scenario_matches_golden_trace():
    pins.assert_hold("tests/golden/canonical_scenario.txt")


def test_golden_trace_has_expected_shape():
    lines = canonical_scenario_lines()
    text = "\n".join(lines)
    assert "JOIN" in text
    assert "RHA" in text
    assert "CRASHED" in text
    assert "FDA" in text
    assert "LEAVE" in text
