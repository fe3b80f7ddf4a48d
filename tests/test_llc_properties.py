"""Unit tests for the MCAN/LCAN property monitors."""

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageId, MessageType
from repro.llc.properties import (
    check_all_properties,
    check_lcan1_validity,
    check_lcan2_agreement,
    check_lcan3_duplicates,
    check_lcan4_inconsistent_degree,
    check_mcan1_broadcast,
    check_mcan2_error_detection,
    check_mcan3_omission_degree,
)
from repro.sim.clock import sec
from repro.sim.trace import TraceRecorder
from repro.util.sets import WIDE_MAX_CAPACITY, NodeSet


def deliver(trace, time, mid, *receivers):
    """One ``bus.deliver`` row as the bus writes it: per frame, not per node."""
    trace.record(
        time,
        "bus.deliver",
        mid=mid,
        remote=False,
        receivers=NodeSet(receivers, WIDE_MAX_CAPACITY),
    )


def run_fault_free(raw_bus):
    net = raw_bus(3)
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"x")
    net.sim.run()
    return net


def test_all_properties_hold_fault_free(raw_bus):
    net = run_fault_free(raw_bus)
    report = check_all_properties(
        net.sim.trace,
        correct_nodes=[0, 1, 2],
        omission_degree=2,
        inconsistent_degree=1,
        window=sec(1),
    )
    assert report.ok, report.violations


def test_mcan1_flags_mismatched_delivery():
    trace = TraceRecorder()
    mid_a = MessageId(MessageType.DATA, node=0)
    mid_b = MessageId(MessageType.DATA, node=1)
    trace.record(10, "bus.tx", node=0, mid=mid_a, senders=(0,), kind="none", attempt=0)
    deliver(trace, 10, mid_b, 1)
    report = check_mcan1_broadcast(trace)
    assert not report.ok


def test_mcan1_flags_delivery_without_transmission():
    trace = TraceRecorder()
    deliver(trace, 10, MessageId(MessageType.DATA, node=0), 1)
    assert not check_mcan1_broadcast(trace).ok


def test_mcan2_flags_delivery_of_corrupted_frame():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(
        10, "bus.tx", node=0, mid=mid, senders=(0,), kind="consistent", attempt=0
    )
    deliver(trace, 10, mid, 1)
    assert not check_mcan2_error_detection(trace).ok


def test_mcan2_holds_in_simulation(raw_bus):
    injector = FaultInjector()
    injector.fault_on_transmission(0, FaultKind.CONSISTENT_OMISSION)
    net = raw_bus(3, injector=injector)
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"x")
    net.sim.run()
    assert check_mcan2_error_detection(net.sim.trace).ok


def test_mcan3_window_bound():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    for t in (0, 10, 20):
        trace.record(
            t, "bus.tx", node=0, mid=mid, senders=(0,), kind="consistent", attempt=0
        )
    assert check_mcan3_omission_degree(trace, omission_degree=3, window=100).ok
    assert not check_mcan3_omission_degree(trace, omission_degree=2, window=100).ok
    # A narrow window separates the omissions.
    assert check_mcan3_omission_degree(trace, omission_degree=1, window=5).ok


def test_lcan4_counts_only_inconsistent():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(0, "bus.tx", node=0, mid=mid, senders=(0,), kind="consistent", attempt=0)
    trace.record(
        1, "bus.tx", node=0, mid=mid, senders=(0,), kind="inconsistent", attempt=0
    )
    assert check_lcan4_inconsistent_degree(trace, 1, window=100).ok
    assert not check_lcan4_inconsistent_degree(trace, 0, window=100).ok


def test_lcan1_flags_undelivered_message():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(0, "bus.tx", node=0, mid=mid, senders=(0,), kind="none", attempt=0)
    assert not check_lcan1_validity(trace, [0, 1]).ok


def test_lcan2_flags_partial_delivery_with_correct_sender():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(0, "bus.tx", node=0, mid=mid, senders=(0,), kind="none", attempt=0)
    deliver(trace, 0, mid, 1)
    # Node 2 (correct) never received it and the sender never crashed.
    assert not check_lcan2_agreement(trace, [0, 1, 2]).ok


def test_lcan2_tolerates_partial_delivery_when_sender_crashed():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(0, "bus.tx", node=0, mid=mid, senders=(0,), kind="inconsistent", attempt=0)
    deliver(trace, 0, mid, 1)
    trace.record(1, "node.crash", node=0)
    assert check_lcan2_agreement(trace, [1, 2]).ok


def test_lcan3_flags_unexplained_duplicate():
    trace = TraceRecorder()
    mid = MessageId(MessageType.DATA, node=0)
    trace.record(0, "bus.tx", node=0, mid=mid, senders=(0,), kind="none", attempt=0)
    deliver(trace, 0, mid, 1)
    deliver(trace, 5, mid, 1)
    assert not check_lcan3_duplicates(trace).ok


def test_lcan3_accepts_duplicate_after_inconsistency(raw_bus):
    injector = FaultInjector()
    injector.fault_on_transmission(
        0, FaultKind.INCONSISTENT_OMISSION, accepting=[2]
    )
    net = raw_bus(3, injector=injector)
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"x")
    net.sim.run()
    assert check_lcan3_duplicates(net.sim.trace).ok


def test_properties_hold_under_scripted_faults(raw_bus):
    injector = FaultInjector()
    injector.fault_on_transmission(0, FaultKind.CONSISTENT_OMISSION)
    injector.fault_on_transmission(
        2, FaultKind.INCONSISTENT_OMISSION, accepting=[1]
    )
    net = raw_bus(3, injector=injector)
    for ref in range(4):
        net.layers[0].data_req(MessageId(MessageType.DATA, node=0, ref=ref), b"")
    net.sim.run()
    report = check_all_properties(
        net.sim.trace,
        correct_nodes=[0, 1, 2],
        omission_degree=2,
        inconsistent_degree=1,
        window=sec(10),
    )
    assert report.ok, report.violations
