"""Golden-trace equivalence: the fast core must change *nothing* observable.

Each scenario runs twice — once on the default fast core (table-driven
encoding, tuple-based event queue, single encode per transmission) and once
under ``legacy_core()`` (the seed-faithful bit-list encoder, dataclass heap
and double-encode bus path) — and the complete observable fingerprint must
match exactly: every trace record in order (event order and timing), the
per-type bus bit accounting (wire lengths), the event count and every
node's membership view.
"""

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.perf.legacy import legacy_core
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def fingerprint(net):
    """Everything observable about a finished run, in comparable form."""
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "bits_by_type": dict(net.bus.stats.bits_by_type),
        "views": views,
    }


def scenario_crash_detection():
    """10 nodes bootstrap; one crashes; detection and view change follow."""
    net = CanelyNetwork(node_count=10, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.node(7).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    return fingerprint(net)


def scenario_join_leave_churn():
    """Staggered joins and a voluntary leave exercise RHA and the cycle."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    for node_id in range(4):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(4).join()
    net.node(5).join()
    net.run_for(ms(300))
    net.node(2).leave()
    net.run_for(ms(300))
    assert net.views_agree()
    return fingerprint(net)


def scenario_inconsistent_omissions():
    """FDA traffic hit by inconsistent omissions while a node crashes."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[2],
    )
    net = CanelyNetwork(node_count=8, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(400))
    net.node(6).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    return fingerprint(net)


SCENARIOS = [
    scenario_crash_detection,
    scenario_join_leave_churn,
    scenario_inconsistent_omissions,
]


def _assert_equivalent(scenario):
    fast = scenario()
    with legacy_core():
        legacy = scenario()
    assert fast["events"] == legacy["events"]
    assert fast["now"] == legacy["now"]
    assert fast["physical_frames"] == legacy["physical_frames"]
    assert fast["error_frames"] == legacy["error_frames"]
    # Wire lengths: identical per-type bit accounting implies every frame
    # was measured at the same stuffed length by both encoders.
    assert fast["busy_bits"] == legacy["busy_bits"]
    assert fast["bits_by_type"] == legacy["bits_by_type"]
    assert fast["views"] == legacy["views"]
    # Full event order and payloads, record by record.
    assert len(fast["trace"]) == len(legacy["trace"])
    for fast_rec, legacy_rec in zip(fast["trace"], legacy["trace"]):
        assert fast_rec == legacy_rec


def test_crash_detection_equivalent():
    _assert_equivalent(scenario_crash_detection)


def test_join_leave_churn_equivalent():
    _assert_equivalent(scenario_join_leave_churn)


def test_inconsistent_omissions_equivalent():
    _assert_equivalent(scenario_inconsistent_omissions)


def test_legacy_core_restores_the_fast_core():
    """The context manager must leave no patch behind."""
    from repro.can import bitstream, bus
    from repro.sim import kernel
    from repro.sim.event import EventQueue

    before_complete = bus.CanBus._complete
    with legacy_core():
        assert kernel.EventQueue is not EventQueue
        assert bus.CanBus._complete is not before_complete
        assert not bitstream._fast_encoding
    assert kernel.EventQueue is EventQueue
    assert bus.CanBus._complete is before_complete
    assert bitstream._fast_encoding


# -- idle skip ---------------------------------------------------------------


def scenario_settled_after_mass_crash(idle_skip):
    """Every node but one crashes. The survivor's heartbeat keeps kernel
    deadlines within ``Thb``, so the settling loop's quiescence probe runs
    every cycle but never actually leaps — this pins the probe itself as
    outcome-neutral (the leap path is unit-tested on a stub network in
    ``test_scenario_builder.py``)."""
    net = CanelyNetwork(node_count=5, config=CONFIG)
    builder = net.scenario(seed=11).bootstrap()
    for node_id in range(1, 5):
        builder.crash(node_id, at=ms(5 * node_id))
    builder.run_until_settled(idle_skip=idle_skip)
    return fingerprint(net)


def test_idle_skip_changes_no_simulated_outcome():
    with_skip = scenario_settled_after_mass_crash(idle_skip=True)
    without = scenario_settled_after_mass_crash(idle_skip=False)
    # The skip leaps provably silent cycles, so fewer kernel events fire
    # and the runs may end at different instants — but every observable
    # protocol outcome (trace, wire accounting, views) is identical up to
    # the shorter run's horizon. Compare everything except the run length.
    assert with_skip["views"] == without["views"]
    assert with_skip["physical_frames"] == without["physical_frames"]
    assert with_skip["error_frames"] == without["error_frames"]
    assert with_skip["busy_bits"] == without["busy_bits"]
    assert with_skip["bits_by_type"] == without["bits_by_type"]
    assert with_skip["trace"] == without["trace"]
