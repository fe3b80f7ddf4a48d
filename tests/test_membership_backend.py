"""Backend contract: registry, conformance of rival backends.

The conformance block is the executable form of the
:class:`repro.core.stack.MembershipNode` contract: every registered
backend — the paper's CANELy suite and the rival SWIM stack — must pass
the same membership-semantics tests (join/leave, view monotonicity,
change-callback ordering, halt/reset idempotence, metrics and span
emission). The remaining blocks pin the abstract contract, the registry
behaviour and the golden-trace identity of ``backend="canely"`` with the
default network.
"""

import pytest

from repro.core import backend as registry
from repro.core.backend import backend_names, register_backend, resolve_backend
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork, CanelyNode, MembershipNode
from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict
from repro.swim.node import SwimNode

BACKENDS = ["canely", "swim"]


def _settled(backend, nodes=5, **kwargs):
    """A converged network of ``nodes`` full members on ``backend``."""
    net = CanelyNetwork(node_count=nodes, backend=backend, **kwargs)
    net.join_all()
    net.run_for(net.config.tjoin_wait + round(6 * net.config.tm))
    return net


def _run_detection(net):
    """Run long enough for any backend to detect and remove a crash."""
    net.run_for(ms(400))


# -- conformance: every backend passes the same membership semantics ----------


@pytest.mark.parametrize("backend", BACKENDS)
def test_join_converges_to_full_agreed_view(backend):
    net = _settled(backend)
    assert len(net.member_views()) == 5
    assert net.views_agree()
    assert sorted(net.agreed_view()) == [0, 1, 2, 3, 4]
    for node in net.nodes.values():
        assert node.is_member


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_is_removed_and_view_round_is_monotonic(backend):
    net = _settled(backend)
    observer = net.node(0)
    round_before = observer.view().round_index
    net.node(3).crash()
    _run_detection(net)
    assert sorted(net.agreed_view()) == [0, 1, 2, 4]
    assert observer.view().round_index > round_before


@pytest.mark.parametrize("backend", BACKENDS)
def test_leave_withdraws_the_node(backend):
    net = _settled(backend)
    net.node(2).leave()
    _run_detection(net)
    assert not net.node(2).is_member
    assert sorted(net.agreed_view()) == [0, 1, 3, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_change_callbacks_arrive_in_time_order_with_the_failure(backend):
    net = _settled(backend)
    changes = []
    net.node(0).on_membership_change(changes.append)
    net.node(0).on_membership_change(lambda change: changes.append(change))
    net.node(4).crash()
    _run_detection(net)
    assert changes, "the survivor was never notified"
    times = [change.time for change in changes]
    assert times == sorted(times)
    assert any(4 in change.failed for change in changes)
    # both listeners observe the same notifications, in registration order.
    assert changes[0::2] == changes[1::2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_halt_and_reset_are_idempotent_and_rejoinable(backend):
    net = _settled(backend)
    victim = net.node(1)
    victim.crash()
    victim.halt()  # second halt must be a no-op, not an error
    _run_detection(net)
    assert sorted(net.agreed_view()) == [0, 2, 3, 4]
    victim.recover()
    victim.reset()  # second reset must also be safe
    victim.join()
    _run_detection(net)
    assert sorted(net.agreed_view()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_hook_reports_integer_counters(backend):
    net = _settled(backend)
    net.node(3).crash()
    _run_detection(net)
    metrics = net.node(0).metrics()
    assert metrics["view_round"] >= 1
    assert all(isinstance(value, int) for value in metrics.values())
    assert net.sim.metrics.counter("msh.change_notifications").value > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_span_emission_on_membership_change(backend):
    net = _settled(backend, spans=True)
    net.node(2).crash()
    _run_detection(net)
    assert net.sim.spans.select(name="msh.change")
    assert net.sim.spans.select(name="node.crash", node=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_protocol_listeners_register_before_the_application_indication(backend):
    """Listeners fire in registration order, so a DATA frame reaches every
    protocol listener before any application listener only if the node
    shell registers the application's DATA indication after the
    protocols' — with its first subscriber; a node nobody subscribed to
    carries none (and costs no upcall per data frame)."""
    from repro.can.bus import CanBus
    from repro.can.controller import CanController
    from repro.can.driver import CanStandardLayer
    from repro.can.identifiers import MessageType
    from repro.sim.kernel import Simulator

    class RecordingLayer(CanStandardLayer):
        registered = ()

        def add_data_ind(self, listener, mtype=None, collective=None):
            self.registered += ((mtype, listener),)
            super().add_data_ind(listener, mtype, collective)

    sim = Simulator()
    controller = CanController(0)
    CanBus(sim).attach(controller)
    layer = RecordingLayer(controller)
    cls = resolve_backend(backend)
    node = cls(0, sim, None, cls.default_config(), layer=layer)
    protocols = layer.registered
    assert protocols  # the protocols came first ...
    assert node._on_app_data not in [listener for _, listener in protocols]
    node.on_message(lambda sender, ref, data: None)
    node.on_message(lambda sender, ref, data: None)
    # ... and both subscribers share one indication, registered last.
    assert layer.registered == protocols + (
        (MessageType.DATA, node._on_app_data),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_message_subscriber_added_mid_run_receives_the_next_frame(backend):
    net = _settled(backend, nodes=3)
    net.node(0).send(b"unheard")  # delivered while nobody listens
    net.run_for(ms(5))
    heard = []
    net.node(1).on_message(lambda *message: heard.append(message))
    ref = net.node(0).send(b"heard")
    net.run_for(ms(5))
    assert heard == [(0, ref, b"heard")]


# -- registry ------------------------------------------------------------------


def test_registry_lists_both_builtin_backends():
    names = backend_names()
    assert "canely" in names and "swim" in names


def test_resolve_backend_default_and_by_name():
    assert resolve_backend(None) is CanelyNode
    assert resolve_backend("canely") is CanelyNode
    assert resolve_backend("swim") is SwimNode
    assert resolve_backend(SwimNode) is SwimNode


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        resolve_backend("raft")


def test_register_backend_rejects_name_collisions():
    register_backend(CanelyNode)  # same class again: a no-op

    class Impostor(CanelyNode):
        name = "canely"

    with pytest.raises(ConfigurationError):
        register_backend(Impostor)


def test_builtin_names_are_taken_before_first_use(monkeypatch):
    # A fresh registry: nothing has resolved "canely" yet, and still an
    # impostor cannot claim the built-in's name.
    monkeypatch.setattr(registry, "_REGISTRY", {})

    class Impostor(CanelyNode):
        name = "canely"

    with pytest.raises(ConfigurationError):
        register_backend(Impostor)
    assert resolve_backend("canely") is CanelyNode


def test_backend_classes_satisfy_the_contract():
    for name in backend_names():
        cls = resolve_backend(name)
        assert issubclass(cls, MembershipNode)
        assert cls.name == name
        assert cls.default_config() is not None


@pytest.mark.parametrize(
    "missing",
    ["join", "leave", "view", "on_membership_change", "is_member", "halt",
     "reset", "metrics", "_build_protocols", "default_config"],
)
def test_a_node_missing_part_of_the_contract_cannot_be_built(missing):
    from repro.can.bus import CanBus
    from repro.sim.kernel import Simulator

    # SwimNode less one member: the contract's declaration is all that
    # is left of it.
    members = {
        key: value
        for key, value in vars(SwimNode).items()
        if key != missing and not key.startswith(("__", "_abc"))
    }
    Partial = type("Partial", (MembershipNode,), members)
    sim = Simulator()
    with pytest.raises(TypeError, match=missing):
        Partial(0, sim, CanBus(sim), SwimNode.default_config())


# -- golden identity: backend="canely" is the pre-backend network -------------


def _crash_run(**kwargs):
    config = CanelyConfig(capacity=8, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    net = CanelyNetwork(node_count=6, config=config, **kwargs)
    net.join_all()
    net.run_for(ms(300))
    net.node(4).crash()
    net.run_for(ms(200))
    return net


def test_canely_backend_network_is_trace_identical_to_default():
    default = _crash_run()
    explicit = _crash_run(backend="canely")
    assert [record_to_dict(r) for r in default.sim.trace] == [
        record_to_dict(r) for r in explicit.sim.trace
    ]
    assert default.sim.events_processed == explicit.sim.events_processed
    assert default.bus.stats.busy_bits == explicit.bus.stats.busy_bits


def test_single_segment_network_has_no_gateway():
    net = _crash_run()
    assert net.gateway is None
    assert net.buses == (net.bus,)
    assert net.segment_of(0) == 0
