"""Golden whole-run pins: the core must change *nothing* observable.

Three scenarios and the 60 schedules of the depth-1 check sweep are pinned
by everything a run lets an observer see: every trace record in order
(event order and timing), the per-type bus bit accounting (wire lengths),
the event count and every node's membership view. The scenarios, their
texts and the pins are in ``tests/pins.py``; a moved scenario names its
first differing block of 64 trace rows (``docs/checking.md``, "Pins").
"""

import pins


def test_crash_detection_equivalent():
    pins.assert_hold("tests/golden/crash_detection.jsonl")


def test_join_leave_churn_equivalent():
    pins.assert_hold("tests/golden/join_leave_churn.jsonl")


def test_inconsistent_omissions_equivalent():
    pins.assert_hold("tests/golden/inconsistent_omissions.jsonl")


def test_depth1_sweep_matches_committed_fingerprints():
    """``repro check --depth 1 --seed 0``: the store it writes and its stdout."""
    pins.assert_hold(
        "tests/golden/check_depth1_seed0.jsonl",
        "tests/golden/check_depth1_seed0.txt",
    )
