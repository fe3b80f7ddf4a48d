"""ScenarioBuilder: fluent API semantics and FrameMatch."""

from types import SimpleNamespace

import pytest

from repro.can.identifiers import MessageId, MessageType
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork, DualChannelNetwork
from repro.errors import ScenarioError
from repro.sim.clock import ms
from repro.util.sets import NodeSet
from repro.workloads import FrameMatch

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


# -- builder semantics -------------------------------------------------------------


def test_builder_chains_and_returns_self():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    builder = net.scenario()
    assert builder.bootstrap() is builder
    assert builder.crash(3) is builder
    assert builder.run_for(ms(100)) is builder
    assert builder.network is net
    assert sorted(net.agreed_view()) == [0, 1, 2]


def test_bootstrap_subset_leaves_late_joiners():
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap(nodes=(0, 1, 2))
    assert sorted(net.agreed_view()) == [0, 1, 2]
    net.scenario().join(3).run_for(ms(300))
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]


def test_bootstrap_error_names_the_nodes_that_never_joined():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    net.node(2).crash()
    with pytest.raises(ScenarioError) as excinfo:
        net.scenario(seed=3).bootstrap()
    message = str(excinfo.value)
    assert "not members: [2], unexpected members: []" in message
    assert "seed=3" in message and "\n" not in message


def test_bootstrap_error_names_the_views_that_disagree():
    """Membership as expected but views differ: the message must say so,
    per node, against the most common view — not print two equal lists."""
    net = CanelyNetwork(node_count=4, config=CONFIG)
    settled = CONFIG.tjoin_wait + round(6 * CONFIG.tm)

    def corrupt():
        net.node(1).state.view = NodeSet([0, 1, 7], capacity=16)

    net.sim.schedule_at(settled, corrupt)
    with pytest.raises(ScenarioError) as excinfo:
        net.scenario().bootstrap()
    message = str(excinfo.value)
    assert "members are as expected" in message
    assert "1 of 4 views differ from the most common one [0, 1, 2, 3]" in message
    assert "node 1 lacks [2, 3] adds [7]" in message


def test_run_until_settled_converges_after_crash():
    net = CanelyNetwork(node_count=5, config=CONFIG)
    net.scenario().bootstrap().crash(4, at=ms(30)).run_until_settled()
    assert net.node(4).crashed
    assert sorted(net.agreed_view()) == [0, 1, 2, 3]
    assert net.views_agree()


def test_run_until_settled_raises_with_seed():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    builder = net.scenario(seed=99)
    builder.bootstrap()
    # A crash scheduled beyond the settling horizon keeps the view churning
    # forever from the settler's perspective? No — instead force failure by
    # asking for impossible stability within zero cycles of budget.
    builder.crash(3)
    with pytest.raises(ScenarioError) as excinfo:
        builder.run_until_settled(max_cycles=1, stable_cycles=5)
    assert "seed=99" in str(excinfo.value)


def test_negative_offset_rejected():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    with pytest.raises(ScenarioError, match="in the past"):
        net.scenario().crash(1, at=-ms(5))


def test_omit_requires_exactly_one_selector():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    with pytest.raises(ScenarioError, match="frame/tx_index"):
        net.scenario().omit()
    with pytest.raises(ScenarioError, match="frame/tx_index"):
        net.scenario().omit(frame=FrameMatch(mtype="FDA"), tx_index=3)


def test_omit_accepting_needs_inconsistent():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    with pytest.raises(ScenarioError, match="accepting"):
        net.scenario().omit(frame=FrameMatch(mtype="FDA"), accepting=[1])


def test_builder_works_on_dual_channel_network():
    net = DualChannelNetwork(node_count=4, config=CONFIG)
    net.scenario().bootstrap().crash(2, at=ms(20)).run_for(ms(200))
    assert sorted(net.agreed_view()) == [0, 1, 3]


def test_network_faults_reach_either_channel_of_a_dual_network():
    """``segment`` indexes the network's ``buses``: channels on a
    dual-channel network, which once had no ``bus`` to fall back on."""
    net = DualChannelNetwork(node_count=4, config=CONFIG)
    scenario = net.scenario().bootstrap()
    scenario.inaccessibility(100).inaccessibility(100, segment=1)
    scenario.omit(frame=FrameMatch(mtype="ELS"), segment=1)
    scenario.run_for(ms(100))
    assert [bus.stats.inaccessibility_bits for bus in net.buses] == [100, 100]
    assert net.buses[1].injector.omissions_injected == 1
    assert net.buses[0].injector.omissions_injected == 0
    assert scenario.final_state().ok  # one channel's faults are masked
    with pytest.raises(ScenarioError, match="no segment 2"):
        scenario.inaccessibility(100, segment=2)


# -- recorded ground truth and the readouts over it --------------------------------


def test_builder_records_the_truth_it_scripts():
    """Crash + leave + late join + a sender-crash omission: the builder
    records the intent, folds the expected survivors (scripted intent minus
    the node nobody scripted but is found down) and judges the final state."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    scenario = net.scenario(seed=5).bootstrap(nodes=range(5))
    start = net.sim.now
    assert scenario.members == [0, 1, 2, 3, 4] and scenario.start == start
    scenario.crash(3, at=ms(40)).leave(1, at=ms(20)).join(5, at=ms(60))
    # A bare predicate names no node: the victim (0) is known only from
    # its state (and the trace's node.crash record).
    scenario.omit(
        frame=lambda frame: frame.mid.mtype is MessageType.ELS
        and frame.mid.node == 0,
        inconsistent=True,
        accepting=[2],
        crash_sender=True,
    )
    scenario.run_for(ms(400))
    assert scenario.intent == [
        (start + ms(40), "crash", 3),
        (start + ms(20), "leave", 1),
        (start + ms(60), "join", 5),
    ]
    assert scenario.scripted("crash") == {3: start + ms(40)}
    assert scenario.scripted("leave") == {1: start + ms(20)}
    assert net.node(0).crashed
    final = scenario.final_state()
    assert final.ok and final.detail == ""
    assert final.members == final.expected == [2, 4, 5]
    assert list(scenario.detection_latencies()) == [3]
    qos = scenario.qos()
    assert (qos.start, qos.end) == (start, net.sim.now)
    assert sorted(crash.node for crash in qos.crashes) == [0, 3]
    assert qos.population == (0, 1, 2, 3, 4, 5)


def test_a_scripted_crash_that_never_fired_is_a_violation():
    net = CanelyNetwork(node_count=4, config=CONFIG)
    scenario = net.scenario().bootstrap()
    scenario.crash(2, at=ms(500)).omit(
        frame=FrameMatch(mtype="DATA", node=1), inconsistent=True,
        accepting=[0], crash_sender=True,
    )
    net.run_for(ms(100))  # ends before the crash; no DATA frame ever flows
    final = scenario.final_state()
    assert final.agree and final.members == [0, 1, 2, 3]
    # Node 2's scripted crash stays in the fold; node 1's sender-crash
    # fault never fired, so node 1 is still expected.
    assert final.expected == [0, 1, 3]
    assert not final.ok and "expected survivors [0, 1, 3]" in final.detail


def test_final_state_reports_disagreement():
    net = CanelyNetwork(node_count=3, config=CONFIG)
    scenario = net.scenario().bootstrap()
    net.node(0).state.view = NodeSet([0], capacity=16)
    final = scenario.final_state()
    assert not final.agree and not final.ok and final.members == []
    assert "disagree" in final.detail


# -- FrameMatch --------------------------------------------------------------------


def test_frame_match_rejects_unknown_type():
    with pytest.raises(ScenarioError, match="unknown message type"):
        FrameMatch(mtype="BOGUS")
    with pytest.raises(ScenarioError, match="nth"):
        FrameMatch(mtype="FDA", nth=-1)


def test_frame_match_predicate_counts_nth():
    match = FrameMatch(mtype="ELS", node=1, nth=1).predicate()
    els1 = SimpleNamespace(mid=MessageId(MessageType.ELS, node=1))
    els2 = SimpleNamespace(mid=MessageId(MessageType.ELS, node=2))
    fda1 = SimpleNamespace(mid=MessageId(MessageType.FDA, node=1))
    assert not match(fda1)  # wrong type
    assert not match(els2)  # wrong node
    assert not match(els1)  # first match skipped (nth=1)
    assert match(els1)  # second match selected
    assert match(els1)  # and it stays armed for the injector's count


def test_frame_match_is_plain_data():
    """FrameMatch must serialize (it crosses process boundaries)."""
    import pickle

    match = FrameMatch(mtype="FDA", node=3, nth=2)
    assert pickle.loads(pickle.dumps(match)) == match
