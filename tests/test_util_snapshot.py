"""Tests for ``repro.util.snapshot``: what ``pickle.dumps`` round-trips,
``dumps`` round-trips too, plain instances set attribute by attribute."""

import enum
import pickle
from dataclasses import dataclass

from repro.util import snapshot
from repro.util.sets import NodeSet


class Plain:
    def __init__(self, value):
        self.value = value
        self.me = self  # a cycle through the instance's own state


@dataclass(frozen=True)
class Frozen:
    name: str
    count: int


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 1, 2


class Kind(enum.Enum):
    ONE = 1


class Reduced:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return Reduced, (self.value * 10,)


def test_every_kind_of_instance_round_trips():
    plain = Plain([1, 2])
    frozen = Frozen("x", 3)
    graph = {"plain": plain, "frozen": {frozen: plain}, "slotted": Slotted(),
             "kind": Kind.ONE, "reduced": Reduced(2), "nodes": NodeSet([1, 3])}
    restored = pickle.loads(snapshot.dumps(graph))
    assert restored["plain"].value == [1, 2]
    assert restored["plain"].me is restored["plain"]
    assert restored["frozen"] == {frozen: restored["plain"]}
    slotted = restored["slotted"]
    assert (slotted.a, slotted.b) == (1, 2)
    assert restored["kind"] is Kind.ONE
    assert restored["reduced"].value == 20  # its own __reduce__ ran
    assert restored["nodes"] == NodeSet([1, 3])


def test_only_plain_instances_are_restored_attribute_by_attribute(monkeypatch):
    data = snapshot.dumps([Plain(1), Frozen("y", 1), Slotted(), Reduced(1)])
    restore, restored = snapshot._restore, []

    def recording(obj, state):
        restored.append(type(obj))
        restore(obj, state)

    # The pickle names the restorer; loading looks it up by that name.
    monkeypatch.setattr(snapshot, "_restore", recording)
    assert pickle.loads(data)[1] == Frozen("y", 1)
    assert restored == [Plain, Frozen]
