"""Unit tests for the CAN standard layer (paper Fig. 4)."""

from repro.can.identifiers import MessageId, MessageType


def test_data_req_delivers_ind_everywhere(raw_bus):
    net = raw_bus(3)
    seen = []
    net.layers[2].add_data_ind(lambda mid, data: seen.append((mid.node, data)))
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"\x07")
    net.sim.run()
    assert seen == [(0, b"\x07")]


def test_ind_includes_own_transmissions(raw_bus):
    net = raw_bus(2)
    own = []
    net.layers[0].add_data_ind(lambda mid, data: own.append(mid.node))
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    net.sim.run()
    assert own == [0]


def test_nty_fires_without_data_before_ind(raw_bus):
    net = raw_bus(2)
    events = []
    net.layers[1].add_data_nty(lambda mid: events.append(("nty", mid.node)))
    net.layers[1].add_data_ind(lambda mid, data: events.append(("ind", mid.node)))
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"x")
    net.sim.run()
    assert events == [("nty", 0), ("ind", 0)]


def test_nty_not_fired_for_remote_frames(raw_bus):
    net = raw_bus(2)
    notified = []
    net.layers[1].add_data_nty(lambda mid: notified.append(mid))
    net.layers[0].rtr_req(MessageId(MessageType.ELS, node=0))
    net.sim.run()
    assert notified == []


def test_rtr_ind_and_cnf(raw_bus):
    net = raw_bus(2)
    events = []
    net.layers[1].add_rtr_ind(lambda mid: events.append(("ind", mid.mtype)))
    net.layers[0].add_rtr_cnf(lambda mid: events.append(("cnf", mid.mtype)))
    net.layers[0].rtr_req(MessageId(MessageType.ELS, node=0))
    net.sim.run()
    assert ("ind", MessageType.ELS) in events
    assert ("cnf", MessageType.ELS) in events


def test_data_cnf_only_at_sender(raw_bus):
    net = raw_bus(3)
    confirmations = []
    net.layers[0].add_data_cnf(lambda mid: confirmations.append(0))
    net.layers[1].add_data_cnf(lambda mid: confirmations.append(1))
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    net.sim.run()
    assert confirmations == [0]


def test_mtype_filter(raw_bus):
    net = raw_bus(2)
    only_rha = []
    net.layers[1].add_data_ind(
        lambda mid, data: only_rha.append(mid.mtype), mtype=MessageType.RHA
    )
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    net.layers[0].data_req(MessageId(MessageType.RHA, node=0), b"")
    net.sim.run()
    assert only_rha == [MessageType.RHA]


def test_abort_req_cancels_pending(raw_bus):
    net = raw_bus(2)
    seen = []
    net.layers[1].add_data_ind(lambda mid, data: seen.append(mid.ref))
    blocker = MessageId(MessageType.DATA, node=0, ref=0)
    target = MessageId(MessageType.DATA, node=0, ref=1)
    net.layers[0].data_req(blocker, b"")
    net.layers[0].data_req(target, b"")
    assert net.layers[0].has_pending(target)
    assert net.layers[0].abort_req(target)
    net.sim.run()
    assert seen == [0]


def test_abort_req_does_not_touch_in_flight(raw_bus):
    net = raw_bus(2)
    seen = []
    net.layers[1].add_data_ind(lambda mid, data: seen.append(mid.ref))
    target = MessageId(MessageType.DATA, node=0, ref=1)
    net.layers[0].data_req(target, b"")
    # The frame is on the wire by now; abort must not stop it.
    net.sim.schedule(1000, lambda: net.layers[0].abort_req(target))
    net.sim.run()
    assert seen == [1]


def test_node_id_property(raw_bus):
    net = raw_bus(2)
    assert net.layers[1].node_id == 1


# -- collective forms --------------------------------------------------------------


def test_data_ind_collective_is_called_once_with_data_and_listeners(raw_bus):
    net = raw_bus(3)
    calls = []
    listeners = [lambda mid, data, node=node: None for node in range(3)]

    def collective(mid, data, heard_by):
        calls.append((mid.node, data, heard_by))

    for node, listener in enumerate(listeners):
        net.layers[node].add_data_ind(
            listener, mtype=MessageType.SWIM, collective=collective
        )
    net.layers[1].data_req(MessageId(MessageType.SWIM, node=1), b"\x05")
    net.layers[1].data_req(MessageId(MessageType.DATA, node=1), b"\x06")
    net.sim.run()
    # Own transmissions included, delivery order, and only the message type
    # the listeners subscribed to.
    assert calls == [(1, b"\x05", tuple(listeners))]
    net.controllers[0].crash()
    net.layers[1].data_req(MessageId(MessageType.SWIM, node=1), b"\x07")
    net.sim.run()
    assert calls[1] == (1, b"\x07", tuple(listeners[1:]))


def test_data_ind_is_collected_only_behind_collected_listeners(raw_bus):
    """Per node the upcall order stands: a node whose ``.nty`` listener has no
    collective form, or whose earlier ``.ind`` listener has none, keeps its
    later listeners per node, in order."""
    net = raw_bus(3)
    events = []

    def collective(mid, data, heard_by):
        for listener in heard_by:
            listener(mid, data)

    def ind(node, name="ind"):
        return lambda mid, data: events.append((node, name))

    net.layers[0].add_data_ind(ind(0), collective=collective)
    net.layers[1].add_data_nty(lambda mid: events.append((1, "nty")))
    net.layers[1].add_data_ind(ind(1), collective=collective)
    net.layers[2].add_data_ind(ind(2, "first"))
    net.layers[2].add_data_ind(ind(2), collective=collective)
    net.layers[0].data_req(MessageId(MessageType.DATA, node=0), b"")
    net.sim.run()
    assert events == [
        (0, "ind"), (1, "nty"), (1, "ind"), (2, "first"), (2, "ind")
    ]
    plan = next(iter(net.bus._plan_data.values()))
    assert [entry[0] for entry in plan.entries] == [
        None, net.controllers[1], net.controllers[2]
    ]


def test_data_ind_collective_takes_its_first_members_turn(raw_bus):
    net = raw_bus(3)
    events = []

    def collective(mid, data, heard_by):
        events.append(("collective", len(heard_by)))

    net.layers[0].add_data_ind(lambda mid, data: events.append((0, "ind")))
    for node in (1, 2):
        net.layers[node].add_data_ind(lambda mid, data: None, collective=collective)
    net.layers[2].add_data_ind(lambda mid, data: events.append((2, "ind")))
    net.layers[1].data_req(MessageId(MessageType.DATA, node=1), b"")
    net.sim.run()
    assert events == [(0, "ind"), ("collective", 2), (2, "ind")]
