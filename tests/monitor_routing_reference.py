"""The monitors as they were before category routing: the test oracle.

The recorder used to hand every row to every sink, every online monitor
was such a sink, and each ``observe`` filtered the categories it reads
itself. ``ViewAgreementMonitor`` found a node's pairs by scanning all of
them. The recorder now routes a row only to the sinks that subscribed to
its category (``InvariantMonitor.categories``), and view agreement keeps a
node -> peers index. Routing must change no verdict: inside ``with
every_row_monitors():`` the recorder's sinks and the monitors run the code
below, which is the old code, the route table unused
(``tests/properties/test_monitor_routing_properties.py``).
"""

from contextlib import contextmanager

from repro.obs.monitors import (
    DetectionLatencyMonitor,
    DuplicateFailureSignMonitor,
    InvariantMonitor,
    PhantomRemovalMonitor,
    ViewAgreementMonitor,
    _ROUND_HORIZON,
)
from repro.sim.clock import format_time
from repro.sim.trace import TraceRecord, TraceRecorder


def add_sink(self, sink, categories=None):
    self.__dict__.setdefault("_every_row_sinks", []).append(sink)
    return sink


def remove_sink(self, sink):
    try:
        self.__dict__.get("_every_row_sinks", []).remove(sink)
    except ValueError:
        pass


def record_row(self, time, category, node, data):
    cat_id = self._cat_of.get(category)
    if cat_id is None:
        cat_id = self._cat_of[category] = len(self._cat_names)
        self._cat_names.append(category)
    self._t_append(time)
    self._c_append(cat_id)
    self._n_append(node)
    self._p_append(data)
    if time > self._max_time:
        self._max_time = time
    sinks = self.__dict__.get("_every_row_sinks")
    if sinks:
        entry = TraceRecord.__new__(TraceRecord)
        entry.time = time
        entry.category = category
        entry.node = node
        entry.data = data
        for sink in sinks:
            sink(entry)


def attach_every_row(self, trace):
    self._trace = trace
    trace.add_sink(self.observe)
    return self


def duplicate_failure_sign(self, record):
    self.records_seen += 1
    if record.category == "fda.nty":
        key = (record.node, record.data["failed"])
        first = self._delivered.get(key)
        if first is not None:
            self.fail(
                f"node {record.node} delivered a second failure-sign "
                f"for node {record.data['failed']} at "
                f"{format_time(record.time)} (first at "
                f"{format_time(first)})",
                first,
                record.time,
            )
        self._delivered[key] = record.time
    elif record.category in ("fda.reset", "fda.evict"):
        self._delivered.pop((record.node, record.data["failed"]), None)
    elif record.category == "node.recover":
        for key in [k for k in self._delivered if k[0] == record.node]:
            del self._delivered[key]


def view_agreement(self, record):
    self.records_seen += 1
    if record.category == "node.recover":
        for key in [k for k in self._pairs if record.node in k]:
            del self._pairs[key]
        return
    if record.category != "msh.view":
        return
    node = record.node
    members = frozenset(record.data["members"])
    if node not in members:
        return
    for key in [k for k in self._pairs if node in k]:
        peer = key[0] if key[1] == node else key[1]
        if peer not in members:
            del self._pairs[key]
    for peer in members:
        if peer == node:
            continue
        logs = self._pairs.setdefault(self._key(node, peer), {})
        mine = logs.setdefault(node, [0, []])
        entries = mine[1]
        if entries and entries[-1][1] == members:
            continue
        entries.append((record.time, members))
        if len(entries) > _ROUND_HORIZON:
            del entries[0]
            mine[0] += 1
        index = mine[0] + len(entries) - 1
        theirs = logs.get(peer)
        if theirs is None:
            continue
        slot = index - theirs[0]
        if not 0 <= slot < len(theirs[1]):
            continue
        peer_time, peer_members = theirs[1][slot]
        if peer_members != members:
            self.fail(
                f"view change #{index} of the pair ({node}, {peer}): "
                f"node {node} installed {sorted(members)} but node "
                f"{peer} installed {sorted(peer_members)}",
                min(peer_time, record.time),
                record.time,
            )


def phantom_removal(self, record):
    self.records_seen += 1
    category = record.category
    if category == "node.crash":
        self._crashed.add(record.node)
    elif category == "node.recover":
        self._crashed.discard(record.node)
    elif category == "msh.change":
        for failed in record.data["failed"]:
            if failed == record.node:
                continue
            if failed not in self._crashed:
                self.fail(
                    f"node {record.node} was notified at "
                    f"{format_time(record.time)} that node {failed} "
                    f"failed, but node {failed} never crashed",
                    record.time,
                    record.time,
                )


def detection_latency(self, record):
    self.records_seen += 1
    if record.category == "msh.view":
        self._members_ever.update(record.data["members"])
    elif record.category == "node.crash":
        self._crash_times.setdefault(record.node, record.time)
    elif record.category == "node.recover":
        self._crash_times.pop(record.node, None)
    elif record.category == self._row:
        failed = record.data["failed"]
        crashed_at = self._crash_times.get(failed)
        if crashed_at is None or failed not in self._members_ever:
            return
        latency = record.time - crashed_at
        if self._metrics is not None:
            self._metrics.histogram(
                "fd.detection_latency_ticks", node=failed
            ).observe(latency)
        if latency > self.bound:
            self.fail(
                f"failure-sign for node {failed} reached node "
                f"{record.node} {format_time(latency)} after the crash "
                f"(bound {format_time(self.bound)})",
                crashed_at,
                record.time,
            )


_EVERY_ROW = (
    (TraceRecorder, "add_sink", add_sink),
    (TraceRecorder, "remove_sink", remove_sink),
    (TraceRecorder, "record_row", record_row),
    (InvariantMonitor, "attach", attach_every_row),
    (DuplicateFailureSignMonitor, "observe", duplicate_failure_sign),
    (ViewAgreementMonitor, "observe", view_agreement),
    (PhantomRemovalMonitor, "observe", phantom_removal),
    (DetectionLatencyMonitor, "observe", detection_latency),
)


@contextmanager
def every_row_monitors():
    """Inside the block every sink gets every row, and the monitors run
    their pre-routing ``observe`` code. Use it on traces made in the
    block."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _EVERY_ROW]
    for cls, name, function in _EVERY_ROW:
        setattr(cls, name, function)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
