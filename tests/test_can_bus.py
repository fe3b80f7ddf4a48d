"""Unit tests for the CAN bus: arbitration, clustering, fault resolution."""

import pytest

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.frame import data_frame, remote_frame
from repro.can.identifiers import MessageId, MessageType
from repro.errors import BusError
from repro.sim.kernel import Simulator
from repro.sim.trace import deliveries
from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet


def make_bus(node_count=4, injector=None, clustering=True):
    sim = Simulator()
    bus = CanBus(sim, injector=injector, clustering=clustering)
    controllers = {}
    for node_id in range(node_count):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
    return sim, bus, controllers


def rx_log(controller):
    log = []
    controller.on_rx = log.append
    return log


def test_single_frame_delivered_to_all_including_sender():
    sim, bus, ctl = make_bus(3)
    logs = {n: rx_log(ctl[n]) for n in ctl}
    frame = data_frame(MessageId(MessageType.DATA, node=0), b"hi")
    ctl[0].submit(frame)
    sim.run()
    for log in logs.values():
        assert log == [frame]  # .ind includes own transmissions


def test_duplicate_node_id_rejected():
    sim, bus, ctl = make_bus(2)
    with pytest.raises(BusError):
        bus.attach(CanController(0))


def test_arbitration_lowest_identifier_wins():
    sim, bus, ctl = make_bus(2)
    order = []
    ctl[0].on_rx = lambda f: order.append(f.mid.mtype)
    low = remote_frame(MessageId(MessageType.FDA, node=1))
    high = data_frame(MessageId(MessageType.DATA, node=0), b"")
    # Submit both while the bus is busy so they contend at the same instant.
    blocker = data_frame(MessageId(MessageType.DATA, node=1, ref=9), b"")
    ctl[1].submit(blocker)
    sim.run_until(1000)  # the blocker is on the wire now
    ctl[0].submit(high)
    ctl[1].submit(low)
    sim.run()
    assert order == [MessageType.DATA, MessageType.FDA, MessageType.DATA]


def test_identical_remote_frames_cluster():
    sim, bus, ctl = make_bus(4)
    frame = remote_frame(MessageId(MessageType.ELS, node=2))
    confirmations = []
    ctl[1].on_tx_success = lambda f: confirmations.append(1)
    ctl[3].on_tx_success = lambda f: confirmations.append(3)
    ctl[1].submit(frame)
    ctl[3].submit(frame)
    sim.run()
    assert bus.stats.physical_frames == 1
    assert bus.stats.clustered_requests == 1
    assert sorted(confirmations) == [1, 3]  # both requesters confirmed


def test_clustering_disabled_serializes():
    sim, bus, ctl = make_bus(4, clustering=False)
    frame = remote_frame(MessageId(MessageType.ELS, node=2))
    ctl[1].submit(frame)
    ctl[3].submit(frame)
    sim.run()
    assert bus.stats.physical_frames == 2
    assert bus.stats.clustered_requests == 0


def test_conflicting_data_frames_same_identifier_raise():
    sim, bus, ctl = make_bus(2)
    mid = MessageId(MessageType.DATA, node=0)
    blocker = data_frame(MessageId(MessageType.DATA, node=1, ref=9), b"")
    ctl[1].submit(blocker)
    ctl[0].submit(data_frame(mid, b"a"))
    ctl[1].submit(data_frame(mid, b"b"))
    with pytest.raises(BusError):
        sim.run()


def test_data_frame_beats_remote_frame_in_arbitration():
    sim, bus, ctl = make_bus(3)
    mid = MessageId(MessageType.RHA, node=0)
    order = []
    ctl[2].on_rx = lambda f: order.append(f.remote)
    blocker = data_frame(MessageId(MessageType.DATA, node=1, ref=9), b"")
    ctl[1].submit(blocker)
    sim.run_until(1000)  # the blocker is on the wire now
    ctl[0].submit(data_frame(mid, b"v"))
    ctl[1].submit(remote_frame(mid))
    sim.run()
    assert order[1] is False  # the data frame went first
    assert order[2] is True


def test_consistent_omission_retransmits_automatically():
    injector = FaultInjector()
    injector.fault_on_transmission(0, FaultKind.CONSISTENT_OMISSION)
    sim, bus, ctl = make_bus(2, injector=injector)
    log = rx_log(ctl[1])
    frame = data_frame(MessageId(MessageType.DATA, node=0), b"x")
    ctl[0].submit(frame)
    sim.run()
    assert log == [frame]  # exactly one delivery, after the retry
    assert bus.stats.physical_frames == 2
    assert bus.stats.error_frames == 1
    assert ctl[0].tec > 0


def test_inconsistent_omission_duplicates_at_accepting_subset():
    injector = FaultInjector()
    injector.fault_on_transmission(
        0, FaultKind.INCONSISTENT_OMISSION, accepting=[2]
    )
    sim, bus, ctl = make_bus(3, injector=injector)
    log1, log2 = rx_log(ctl[1]), rx_log(ctl[2])
    frame = data_frame(MessageId(MessageType.DATA, node=0), b"x")
    ctl[0].submit(frame)
    sim.run()
    assert log1 == [frame]  # one copy, from the retransmission
    assert log2 == [frame, frame]  # duplicate: accepted both attempts


def test_inconsistent_omission_with_sender_crash_is_lost_at_subset():
    """The paper's inconsistent-omission scenario (LCAN2 violation)."""
    injector = FaultInjector()
    injector.fault_on_transmission(
        0, FaultKind.INCONSISTENT_OMISSION, accepting=[2], crash_sender=True
    )
    sim, bus, ctl = make_bus(3, injector=injector)
    log1, log2 = rx_log(ctl[1]), rx_log(ctl[2])
    frame = data_frame(MessageId(MessageType.DATA, node=0), b"x")
    ctl[0].submit(frame)
    sim.run()
    assert log2 == [frame]  # the subset got it
    assert log1 == []  # the rest never will: inconsistent omission
    assert ctl[0].crashed


def test_crashed_node_receives_nothing():
    sim, bus, ctl = make_bus(3)
    log = rx_log(ctl[2])
    ctl[2].crash()
    ctl[0].submit(data_frame(MessageId(MessageType.DATA, node=0), b""))
    sim.run()
    assert log == []


def test_frames_serialize_back_to_back():
    sim, bus, ctl = make_bus(2)
    times = []
    ctl[1].on_rx = lambda f: times.append(sim.now)
    for ref in range(3):
        ctl[0].submit(data_frame(MessageId(MessageType.DATA, node=0, ref=ref), b""))
    sim.run()
    assert len(times) == 3
    assert times[0] < times[1] < times[2]
    # Gap between consecutive deliveries >= frame duration (no overlap).
    frame_ticks = bus.timing.bits_to_ticks(
        data_frame(MessageId(MessageType.DATA, node=0), b"").wire_bits(False)
    )
    assert times[1] - times[0] >= frame_ticks


def test_stats_account_busy_bits():
    sim, bus, ctl = make_bus(2)
    frame = data_frame(MessageId(MessageType.DATA, node=0), b"abc")
    ctl[0].submit(frame)
    sim.run()
    assert bus.stats.busy_bits == frame.wire_bits(with_interframe=True)
    assert bus.stats.bits_by_type == {"DATA": bus.stats.busy_bits}


def test_utilization_fraction():
    sim, bus, ctl = make_bus(2)
    ctl[0].submit(data_frame(MessageId(MessageType.DATA, node=0), b""))
    sim.run()
    sim.run_until(sim.now * 2)  # idle for as long again
    assert 0.4 < bus.utilization() < 0.6


def test_trace_records_transmissions_and_deliveries():
    sim, bus, ctl = make_bus(2)
    ctl[0].submit(data_frame(MessageId(MessageType.DATA, node=0), b""))
    sim.run()
    assert sim.trace.count("bus.tx") == 1
    # One row per frame; its receiver set holds both nodes, sender included.
    (row,) = sim.trace.select(category="bus.deliver")
    assert row.node == -1
    assert row.data["mid"] == MessageId(MessageType.DATA, node=0)
    assert row.data["remote"] is False
    assert row.data["receivers"] == NodeSet([0, 1], WIDE_MAX_CAPACITY)
    assert "inconsistent" not in row.data
    assert [d[:2] for d in deliveries(sim.trace)] == [(row.time, 0), (row.time, 1)]


def test_submissions_while_busy_queue_up():
    sim, bus, ctl = make_bus(2)
    received = []
    ctl[1].on_rx = lambda f: received.append(f.mid.ref)
    ctl[0].submit(data_frame(MessageId(MessageType.DATA, node=0, ref=1), b""))
    # Submit a higher-priority frame mid-transmission.
    sim.schedule(1000, lambda: ctl[1].submit(
        remote_frame(MessageId(MessageType.ELS, node=1, ref=2))
    ))
    sim.run()
    # The in-flight frame completes first; the ELS follows (and is also
    # delivered back to its own sender, node 1).
    assert received == [1, 2]


def test_cluster_co_senders_are_listed_in_ascending_node_id():
    """The tie rule: co-senders of one physical frame are ordered by
    ``(priority_key, node_id)``. Bit-identical remote frames with equal
    per-controller ``seq`` tie on the key, so the node id decides — not
    submission order, nor the history of an earlier drain."""
    sim, bus, ctl = make_bus(4)
    frame = remote_frame(MessageId(MessageType.ELS, node=2))
    confirmations = []
    for node_id, controller in ctl.items():
        controller.on_tx_success = lambda f, n=node_id: confirmations.append(n)
    for round_order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        requests = [ctl[node_id].submit(frame) for node_id in round_order]
        assert len({request.seq for request in requests}) == 1
        sim.run()  # drain: every queue empty before the resubmission
    rows = sim.trace.select(category="bus.tx")
    assert [row.data["senders"] for row in rows] == [(0, 1, 2, 3)] * 2
    assert [row.node for row in rows] == [0, 0]
    assert confirmations == [0, 1, 2, 3] * 2


def test_a_lower_seq_leads_the_cluster_whatever_the_node_id():
    # Equal frames, unequal seq: the key decides before the node id does.
    sim, bus, ctl = make_bus(3)
    frame = remote_frame(MessageId(MessageType.ELS, node=1))
    later = remote_frame(MessageId(MessageType.ELS, node=0, ref=3))
    ctl[2].submit(remote_frame(MessageId(MessageType.ELS, node=2, ref=3)))
    sim.run()  # node 2's next request has seq 1
    ctl[2].submit(frame)
    ctl[0].submit(later)
    ctl[0].submit(frame)  # seq 1, and ahead of ``later`` in node 0's queue
    ctl[1].submit(frame)  # seq 0
    sim.run()
    rows = sim.trace.select(category="bus.tx")[1:]
    assert [row.data["senders"] for row in rows] == [(1, 0, 2), (0,)]
