"""Episodes: when each node went down, and who noticed when — derived once.

A removed node may reintegrate later (the paper's Section 6.4), so a node
lives in *spells*: in (a member from the outset, or from a join), out at a
crash or a leave, in again after a reboot and a fresh join. The
:class:`Episodes` ledger keeps each node's crashes and, per crash, each
observer's first ``msh.change`` naming the node failed at or after the
crash and before the node's next crash. Its one :meth:`~Episodes.observe`
body runs live (:meth:`Episodes.attach`, a route-table sink; the online
monitors read who is down off it) or after a run (:meth:`Episodes.of`, a
replay of the recorded columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.sim.trace import TraceRecord, TraceRecorder, TraceSink

#: node -> one instant, or every instant in order.
Intent = Optional[Mapping[int, Union[int, Iterable[int]]]]


def _instants(intent: Intent) -> List[Tuple[int, int]]:
    """``(instant, node)`` for every instant of ``intent``, sorted."""
    return sorted(
        (time, node)
        for node, times in (intent or {}).items()
        for time in ((times,) if isinstance(times, int) else times)
    )


def one_or_all(per_node: Mapping[int, List[Any]]) -> Dict[int, Any]:
    """node -> its one value, or the list of its values when it has several
    (one per crash, in order): how the readouts quote latencies."""
    return {node: v[0] if len(v) == 1 else v for node, v in per_node.items()}


@dataclass
class Crash:
    """One crash of ``node`` at ``time``; observer -> first notification."""

    node: int
    time: int
    notified: Dict[int, int] = field(default_factory=dict)

    @property
    def latency(self) -> Optional[int]:
        """Crash to first notification, in ticks; ``None`` if unnoticed."""
        return min(self.notified.values()) - self.time if self.notified else None


class Episodes:
    """The per-spell crash ledger of one run.

    ``crashes`` maps a node to its crashes in order: the ``node.crash``
    rows (a crash of a node already down is the same crash) or, when
    given, the ``crashes`` instants, each one a crash. ``down`` maps a node
    to the instant of its ``node.crash`` not yet followed by a
    ``node.recover``. Joins and leaves are scripted intent the trace does
    not record: the caller passes them.
    """

    #: The rows :meth:`observe` reads.
    categories = ("node.crash", "node.recover", "msh.change")

    def __init__(
        self,
        *,
        members: Iterable[int] = (),
        joins: Intent = None,
        leaves: Intent = None,
        crashes: Intent = None,
    ) -> None:
        self.members = sorted(members)
        self.joins = _instants(joins)
        self.leaves = _instants(leaves)
        self.crashes: Dict[int, List[Crash]] = {}
        self.down: Dict[int, int] = {}
        self._recorded = crashes is None  # the node.crash rows are the crashes
        for time, node in _instants(crashes):
            self.crashes.setdefault(node, []).append(Crash(node, time))

    @classmethod
    def of(cls, trace: TraceRecorder, **intent) -> "Episodes":
        """The ledger of a finished run (``intent`` as for the
        constructor): the recorded rows replayed through :meth:`observe`."""
        ledger = cls(**intent)
        for row in trace.rows(cls.categories):
            ledger.observe(*row)
        return ledger

    def attach(self, trace: TraceRecorder) -> TraceSink:
        """Keep the ledger live on ``trace``'s rows; returns the sink, for
        :meth:`~repro.sim.trace.TraceRecorder.remove_sink`."""
        return trace.add_sink(self._sink, self.categories)

    def _sink(self, record: TraceRecord) -> None:
        self.observe(record.time, record.category, record.node, record.data)

    def observe(
        self, time: int, category: str, node: int, data: Dict[str, Any]
    ) -> None:
        """Fold one row in; rows of other categories are ignored."""
        if category == "msh.change":
            for failed in data["failed"]:
                for crash in reversed(self.crashes.get(failed, ())):
                    if crash.time <= time:
                        crash.notified.setdefault(node, time)
                        break
        elif category == "node.recover":
            self.down.pop(node, None)
        elif category == "node.crash" and node not in self.down:
            self.down[node] = time
            if self._recorded:
                self.crashes.setdefault(node, []).append(Crash(node, time))

    def latencies(self) -> Dict[int, List[Optional[int]]]:
        """node -> each crash's :attr:`Crash.latency`, in order."""
        return {
            node: [crash.latency for crash in crashes]
            for node, crashes in self.crashes.items()
        }

    def spells(self) -> Dict[int, List[List[Optional[int]]]]:
        """node -> its membership spells ``[in, out]``, in order; ``in`` is
        ``None`` for a member from the outset, ``out`` is ``None`` while
        the node is still in.

        A join of a node that is in, and a crash or leave of one that is
        out, change nothing; at one instant joins come first. Nodes never
        in have no entry.
        """
        exits = self.leaves + [
            (crash.time, node)
            for node, crashes in self.crashes.items()
            for crash in crashes
        ]
        events = sorted(
            [(time, False, node) for time, node in self.joins]
            + [(time, True, node) for time, node in exits]
        )
        spells = {node: [[None, None]] for node in self.members}
        for time, leaving, node in events:
            mine = spells.setdefault(node, [])
            inside = bool(mine) and mine[-1][1] is None
            if leaving and inside:
                mine[-1][1] = time
            elif not leaving and not inside:
                mine.append([time, None])
        return {node: mine for node, mine in spells.items() if mine}
