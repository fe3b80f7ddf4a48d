"""Backend contract: registry, conformance of rival backends, shims.

The conformance block is the executable form of the
:class:`repro.core.backend.MembershipBackend` contract: every registered
backend — the paper's CANELy suite and the rival SWIM stack — must pass
the same membership-semantics tests (join/leave, view monotonicity,
change-callback ordering, halt/reset idempotence, metrics and span
emission). The remaining blocks pin the registry behaviour, the
golden-trace identity of ``backend="canely"`` with the pre-backend
default, and the deprecation shim on direct node construction.
"""

import warnings

import pytest

from repro.core.backend import (
    CanelyBackend,
    MembershipBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork, CanelyNode
from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict
from repro.swim.node import SwimBackend

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
        assert node.backend.is_member


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
    net.node(0).backend.on_change(lambda change: changes.append(change))
    net.node(4).crash()
    _run_detection(net)
    assert changes, "the survivor was never notified"
    times = [change.time for change in changes]
    assert times == sorted(times)
    assert any(4 in change.failed for change in changes)
    # node-API and backend-API listeners observe the same notifications.
    assert len(changes) % 2 == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_halt_and_reset_are_idempotent_and_rejoinable(backend):
    net = _settled(backend)
    victim = net.node(1)
    victim.crash()
    victim.backend.halt()  # second halt must be a no-op, not an error
    _run_detection(net)
    assert sorted(net.agreed_view()) == [0, 2, 3, 4]
    victim.recover()
    victim.backend.reset()  # second reset must also be safe
    victim.join()
    _run_detection(net)
    assert sorted(net.agreed_view()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_hook_reports_integer_counters(backend):
    net = _settled(backend)
    net.node(3).crash()
    _run_detection(net)
    metrics = net.node(0).backend.metrics()
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
def test_describe_names_the_backend(backend):
    net = _settled(backend, nodes=3)
    description = net.node(0).backend.describe()
    assert description["backend"] == net.backend_name


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
    node = cls.build_node(0, sim, None, cls.default_config(), layer=layer)
    assert node.backend is not None
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
    assert resolve_backend(None) is CanelyBackend
    assert resolve_backend("canely") is CanelyBackend
    assert resolve_backend("swim") is SwimBackend
    assert resolve_backend(SwimBackend) is SwimBackend


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        resolve_backend("raft")


def test_register_backend_rejects_name_collisions():
    register_backend(CanelyBackend)  # same class again: a no-op

    class Impostor(CanelyBackend):
        name = "canely"

    with pytest.raises(ConfigurationError):
        register_backend(Impostor)


def test_backend_classes_satisfy_the_contract():
    for name in backend_names():
        cls = resolve_backend(name)
        assert issubclass(cls, MembershipBackend)
        assert cls.name == name
        assert isinstance(cls.critical_path, bool)
        assert cls.default_config() is not None


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


# -- deprecation shims ---------------------------------------------------------


def test_direct_canely_node_construction_warns_at_the_caller():
    from repro.sim.kernel import Simulator
    from repro.can.bus import CanBus

    sim = Simulator()
    bus = CanBus(sim)
    config = CanelyConfig(capacity=8, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CanelyNode(0, sim, bus, config)
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1
    assert "CanelyBackend.build_node" in str(deprecations[0].message)
    # stacklevel=2 must attribute the warning to this file, not to
    # repro/core/stack.py.
    assert deprecations[0].filename == __file__


def test_backend_built_nodes_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        net = CanelyNetwork(node_count=3)
        CanelyBackend.build_node(
            5, net.sim, net.bus, net.config  # a spare stack on the same bus
        )
