"""Integration: the paper's core failure mode — inconsistent omissions
hitting protocol traffic — must never break view agreement."""

import heapq

from repro.can import controller as controller_module
from repro.can.controller import CanController
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.workloads import PeriodicSource

CONFIG = CanelyConfig(capacity=64, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def make_net(node_count, injector):
    return CanelyNetwork(node_count=node_count, config=CONFIG, injector=injector)


def bootstrap(net):
    net.join_all()
    net.run_for(ms(500))
    assert net.views_agree()


def test_inconsistent_join_request_still_agrees():
    """A JOIN remote frame seen by a subset only: RHA's intersection keeps
    the views consistent; the join completes in a later cycle."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.JOIN and f.mid.node == 5,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0, 1],
    )
    net = make_net(6, injector)
    for node_id in range(5):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(5).join()
    net.run_for(ms(400))
    assert net.views_agree()
    assert 5 in net.agreed_view()  # the retry (CAN or next cycle) admits it


def test_inconsistent_leave_request_still_agrees():
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.LEAVE,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0],
    )
    net = make_net(5, injector)
    bootstrap(net)
    net.node(4).leave()
    net.run_for(ms(300))
    assert net.views_agree()
    assert 4 not in net.agreed_view()


def test_inconsistent_fda_with_detector_crash():
    """Failure-sign hit by an inconsistent omission while its sender (the
    detecting node) crashes: FDA's eager diffusion still notifies all."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[2],
        crash_sender=True,
    )
    net = make_net(8, injector)
    bootstrap(net)
    net.node(7).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    view = set(net.agreed_view())
    assert 7 not in view
    # The detector that crashed mid-FDA is gone too; everyone agrees on
    # whichever subset survived.
    for node in net.correct_nodes():
        if node.is_member:
            assert node.view().members == net.agreed_view()


def test_inconsistent_rha_signal_converges():
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.RHA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[1, 2],
        count=2,
    )
    net = make_net(6, injector)
    for node_id in range(5):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(5).join()
    net.run_for(ms(400))
    assert net.views_agree()


def test_consistent_errors_on_els_tolerated():
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.ELS,
        FaultKind.CONSISTENT_OMISSION,
        count=5,
    )
    net = make_net(4, injector)
    bootstrap(net)
    net.run_for(ms(300))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]  # retries mask the loss


def test_omission_burst_within_bound_no_false_suspicion():
    """k consecutive corrupted frames (MCAN3's bound) must not evict a
    live node: CAN retransmission masks them within Ttd."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: True, FaultKind.CONSISTENT_OMISSION, count=CONFIG.omission_degree
    )
    net = make_net(4, injector)
    net.join_all()
    net.run_for(ms(600))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]


def test_crash_sender_leaves_a_controller_that_never_offers_again(monkeypatch):
    """A ``crash_sender`` verdict crashes the sender's controller only. The
    node's protocol timers keep running and keep submitting, but a crashed
    controller discards every submission: none reaches the bus's ready heap
    and no frame from the victim reaches the wire — the weak fail-silence
    the paper's fault model assumes. The survivors evict it and agree."""
    victim = 3
    injector = FaultInjector()
    net = make_net(5, injector)
    bootstrap(net)
    offers = []  # (time, node id) of every ready-heap push
    submits = []  # (time, node id) of every submission

    def push(heap, entry):
        offers.append((net.sim.now, entry[1]))
        heapq.heappush(heap, entry)

    submit = CanController.submit

    def watched_submit(controller, frame):
        submits.append((net.sim.now, controller.node_id))
        return submit(controller, frame)

    monkeypatch.setattr(controller_module, "heappush", push)
    monkeypatch.setattr(CanController, "submit", watched_submit)
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.DATA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[0],
        crash_sender=True,
    )
    PeriodicSource(net.sim, net.node(victim), period=ms(10), offset=ms(1))
    net.run_for(ms(400))
    (crash,) = net.sim.trace.select(category="node.crash", node=victim)
    assert net.node(victim).crashed
    # The zombie's timers still reach its controller ...
    assert any(t > crash.time and n == victim for t, n in submits)
    # ... which offers nothing and sends nothing from then on.
    assert not [t for t, n in offers if t > crash.time and n == victim]
    for row in net.sim.trace.select(category="bus.tx"):
        if row.time > crash.time:
            assert victim not in row.data["senders"]
    assert net.views_agree()
    assert victim not in net.agreed_view()
