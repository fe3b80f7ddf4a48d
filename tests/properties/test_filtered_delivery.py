"""Property: plan-based delivery is observation-identical to broadcast.

The bus delivers through a cached plan per kind of frame: baked listener
upcalls, the failure detectors' surveillance told once per frame through
its collective form — with span tracing off and on alike. The oracle is
the broadcast reference (``tests/broadcast_reference.py``): offer the frame
to every alive controller, consult its filter bank per delivery and upcall
every receiver for itself. An error frame's accepting subset is delivered
the same way, so it is judged too: under the reference the skipped senders
and error signallers are left out of the reference loop. The contract is
that the plan is a pure mechanism change and that watching it changes
nothing: whatever the filter masks, the traffic, the churn and the injected
faults (consistent and inconsistent omissions alike), the plan with spans
off, the plan with spans on and the reference must produce byte-identical
traces, identical delivery logs, identical bus accounting and the same
number of kernel events — which pins that enabling spans changes no trace
record, and that "all receivers at once" is "each receiver in order" for
the surveillance table. Hypothesis drives randomized schedules through all
three and compares the full fingerprint.
"""

from broadcast_reference import broadcast_delivery
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.driver import CanStandardLayer
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.filters import AcceptanceFilter, FilterBank
from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.kernel import Simulator
from repro.sim.trace import record_to_dict
from repro.workloads import PeriodicSource

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ID_MASK = (1 << 16) - 1


def _assert_modes_agree(scenario):
    """``scenario(spans)`` three ways — the plan, the plan with spans on,
    the broadcast reference — must leave the same fingerprint."""
    planned = scenario(False)
    observed = scenario(True)
    with broadcast_delivery():
        broadcast = scenario(False)
    assert planned == broadcast
    assert observed == broadcast


# -- raw bus with random acceptance masks -------------------------------------


@st.composite
def bus_schedules(draw):
    node_count = draw(st.integers(min_value=2, max_value=5))
    # Per-node filter bank: None = accept-all, else 1-2 random code/mask
    # pairs (random masks make partial-match and reject-all banks likely).
    banks = [
        draw(
            st.none()
            | st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=_ID_MASK),
                    st.integers(min_value=0, max_value=_ID_MASK),
                ),
                min_size=1,
                max_size=2,
            )
        )
        for _ in range(node_count)
    ]
    submissions = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=node_count - 1),  # sender
                st.integers(min_value=0, max_value=3),  # ref
                st.booleans(),  # remote frame?
                st.integers(min_value=0, max_value=ms(2)),  # submit time
                st.binary(max_size=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # Churn: maybe crash one node mid-run; maybe re-filter one node
    # mid-run (exercises plan invalidation).
    crash = draw(
        st.none()
        | st.tuples(
            st.integers(min_value=0, max_value=node_count - 1),
            st.integers(min_value=0, max_value=ms(2)),
        )
    )
    refilter = draw(
        st.none()
        | st.tuples(
            st.integers(min_value=0, max_value=node_count - 1),
            st.integers(min_value=0, max_value=ms(2)),
            st.integers(min_value=0, max_value=_ID_MASK),
        )
    )
    # Error frames, consistent or inconsistent: an inconsistent omission's
    # accepting subset is any set of node ids — senders, nodes whose filter
    # drops the frame and crashed nodes included.
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # transmission index
                st.none()
                | st.frozensets(st.integers(min_value=0, max_value=node_count - 1)),
                st.booleans(),  # crash the sender(s)?
            ),
            max_size=2,
        )
    )
    return node_count, banks, submissions, crash, refilter, faults


def _collective_nty(mid, listeners):
    # A collective form by contract: the listeners' effect, all at once.
    for listener in listeners:
        listener(mid)


def _run_bus_scenario(schedule, spans):
    node_count, banks, submissions, crash, refilter, faults = schedule
    injector = FaultInjector()
    for tx_index, accepting, crash_sender in faults:
        if accepting is None:
            injector.fault_on_transmission(
                tx_index, FaultKind.CONSISTENT_OMISSION, crash_sender=crash_sender
            )
        else:
            injector.fault_on_transmission(
                tx_index,
                FaultKind.INCONSISTENT_OMISSION,
                accepting=accepting,
                crash_sender=crash_sender,
            )
    sim = Simulator()
    sim.spans.enabled = spans
    bus = CanBus(sim, injector=injector)
    layers = {}
    controllers = {}
    received = {node_id: [] for node_id in range(node_count)}
    for node_id in range(node_count):
        controller = CanController(node_id)
        bus.attach(controller)
        controllers[node_id] = controller
        layers[node_id] = CanStandardLayer(controller)
        log = received[node_id]
        layers[node_id].add_data_ind(
            lambda mid, data, log=log: log.append(("data", mid.node, mid.ref, data))
        )
        layers[node_id].add_rtr_ind(
            lambda mid, log=log: log.append(("rtr", mid.node, mid.ref))
        )
        layers[node_id].add_data_nty(
            lambda mid, log=log: log.append(("nty", mid.node, mid.ref)),
            collective=_collective_nty,
        )
        spec = banks[node_id]
        if spec is not None:
            controller.set_filters(
                FilterBank(AcceptanceFilter(code, mask) for code, mask in spec)
            )
    for sender, ref, remote, at, payload in submissions:
        mid = MessageId(MessageType.DATA, node=sender, ref=ref)
        if remote:
            sim.schedule_at(at, lambda s=sender, m=mid: layers[s].rtr_req(m))
        else:
            sim.schedule_at(
                at, lambda s=sender, m=mid, p=payload: layers[s].data_req(m, p)
            )
    if crash is not None:
        node_id, at = crash
        sim.schedule_at(at, controllers[node_id].crash)
    if refilter is not None:
        node_id, at, mask = refilter
        sim.schedule_at(
            at,
            lambda c=controllers[node_id], m=mask: c.set_filters(
                FilterBank([AcceptanceFilter(0, m)])
            ),
        )
    sim.run()
    return {
        "trace": [record_to_dict(record) for record in sim.trace],
        "received": received,
        "events": sim.events_processed,
        "physical_frames": bus.stats.physical_frames,
        "error_frames": bus.stats.error_frames,
        "busy_bits": bus.stats.busy_bits,
        "bits_by_type": dict(bus.stats.bits_by_type),
        "rec": {n: c.rec for n, c in controllers.items()},
        "tec": {n: c.tec for n, c in controllers.items()},
        "crashed": sorted(n for n, c in controllers.items() if c.crashed),
    }


@SLOW
@given(bus_schedules())
def test_filtered_delivery_matches_broadcast_on_raw_bus(schedule):
    _assert_modes_agree(lambda spans: _run_bus_scenario(schedule, spans))


# -- full protocol stack under churn and inconsistent omissions ---------------


CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


@st.composite
def network_scenarios(draw):
    node_count = draw(st.integers(min_value=3, max_value=6))
    crash_node = draw(st.integers(min_value=0, max_value=node_count - 1))
    crash_at = draw(st.integers(min_value=ms(150), max_value=ms(300)))
    leave = draw(st.booleans())
    fault_accepting = draw(
        st.none() | st.integers(min_value=0, max_value=node_count - 1)
    )
    # ELS and application DATA reach receivers whose only listener is the
    # failure detector's collective form: there the form takes the whole
    # accepting subset.
    fault_mtype = draw(
        st.sampled_from([MessageType.FDA, MessageType.ELS, MessageType.DATA])
    )
    talker = draw(st.integers(min_value=0, max_value=node_count - 1))
    return (
        node_count, crash_node, crash_at, leave, fault_accepting, fault_mtype, talker
    )


def _run_network_scenario(scenario, spans):
    (
        node_count, crash_node, crash_at, leave, fault_accepting, fault_mtype, talker
    ) = scenario
    injector = FaultInjector()
    if fault_accepting is not None:
        injector.fault_on_frame(
            lambda f: f.mid.mtype is fault_mtype,
            FaultKind.INCONSISTENT_OMISSION,
            accepting=[fault_accepting],
        )
    net = CanelyNetwork(
        node_count=node_count, config=CONFIG, injector=injector, spans=spans
    )
    PeriodicSource(net.sim, net.node(talker), period=ms(20), offset=ms(1))
    net.join_all()
    net.run_for(ms(150))
    if leave and node_count > 2:
        net.node((crash_node + 1) % node_count).leave()
    net.sim.schedule_at(crash_at, net.node(crash_node).crash)
    net.run_for(ms(350))
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "views": views,
    }


@SLOW
@given(network_scenarios())
def test_filtered_delivery_matches_broadcast_on_protocol_stack(scenario):
    _assert_modes_agree(lambda spans: _run_network_scenario(scenario, spans))


# -- bridged multi-segment networks, both backends ----------------------------

# Each example runs a full bridged network three times (two backends would
# double it again), so the segmented property uses a smaller budget.
SLOW_SEGMENTED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def segmented_scenarios(draw):
    node_count = draw(st.integers(min_value=4, max_value=8))
    segments = draw(st.integers(min_value=2, max_value=3))
    backend = draw(st.sampled_from(["canely", "swim"]))
    crash_node = draw(st.integers(min_value=0, max_value=node_count - 1))
    crash_at = draw(st.integers(min_value=ms(150), max_value=ms(300)))
    return node_count, segments, backend, crash_node, crash_at


def _run_segmented_scenario(scenario, spans):
    node_count, segments, backend, crash_node, crash_at = scenario
    net = CanelyNetwork(
        node_count=node_count,
        config=CONFIG,
        backend=backend,
        segments=segments,
        spans=spans,
    )
    net.join_all()
    net.run_for(ms(150))
    net.sim.schedule_at(crash_at, net.node(crash_node).crash)
    net.run_for(ms(350))
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "per_segment": [
            (bus.stats.physical_frames, bus.stats.busy_bits)
            for bus in net.buses
        ],
        "gateway": (net.gateway.stats.forwarded, net.gateway.stats.dropped),
        "views": views,
    }


@SLOW_SEGMENTED
@given(segmented_scenarios())
def test_filtered_delivery_matches_broadcast_across_segments(scenario):
    # The gateway's relay traffic and plan invalidation on attach must be
    # mechanism-transparent too, for either membership backend.
    _assert_modes_agree(lambda spans: _run_segmented_scenario(scenario, spans))
