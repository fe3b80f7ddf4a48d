"""Every committed output holds, and a moved one says what moved.

The registry and its two stored forms are ``tests/pins.py``; regenerate
with ``python tests/pins.py --write`` (``docs/checking.md``, "Pins").
"""

import dataclasses
import shutil

import pytest

import pins


PATHS = [pin.path for pin in pins.PINS]


@pytest.fixture(scope="module")
def texts():
    return pins.produced(PATHS)


def test_every_pin_holds():
    pins.assert_hold(*PATHS)


def _pin(path):
    return next(pin for pin in pins.PINS if pin.path == path)


def _planted(texts, path, line, old, new):
    """The pin at ``path`` with a producer whose text has ``old`` replaced
    by ``new`` on ``line`` (1-based)."""
    lines = texts[path].split("\n")
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    planted = "\n".join(lines)
    return dataclasses.replace(_pin(path), function=lambda: planted)


def test_a_moved_qos_field_names_its_line(texts):
    path = "tests/golden/qos_catalog_quick_seed0.json"
    line = 1 + texts[path].split("\n").index('        "flaps": 0,')
    pin = _planted(texts, path, line, '"flaps": 0', '"flaps": 1')
    [message] = pins.check(pins.produce([pin]))
    assert message.startswith(f"{path}: line {line} differs first; 1 of ")
    assert '  pinned:         "flaps": 0,' in message
    assert '  this run:         "flaps": 1,' in message


def test_a_moved_trace_row_names_its_block(texts):
    path = "tests/golden/crash_detection.jsonl"
    pin = _planted(texts, path, 500, '"time": ', '"time": 1')
    [message] = pins.check(pins.produce([pin]))
    head, *rows = message.split("\n")
    assert head.startswith(f"{path}: block 7 (lines 449-512) differs first")
    assert rows[500 - 449] == pin.function().split("\n")[499]


def test_write_on_an_unchanged_tree_rewrites_nothing(texts, tmp_path):
    """``--write`` over the committed pins (copied, so a failing run cannot
    regenerate the real ones) leaves every byte and every file alone."""
    committed = [pins.DIGESTS] + [
        pin.path for pin in pins.PINS if (pins.ROOT / pin.path).is_file()
    ]
    for path in committed:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(pins.ROOT / path, tmp_path / path)
    before = {path: (tmp_path / path).read_bytes() for path in committed}
    assert pins.write(texts, root=tmp_path) == []
    assert {path: (tmp_path / path).read_bytes() for path in committed} == before
