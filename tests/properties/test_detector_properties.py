"""Property-based tests for the failure detector.

Completeness and accuracy, over randomized traffic patterns:

* **no false suspicion** — whatever mix of periodic traffic rates the
  nodes run (including none: pure ELS), a live node is never expelled;
* **completeness** — a crashed node is always expelled, whatever traffic
  it was running before.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.workloads.traffic import PeriodicSource

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NODE_COUNT = 5

# Per-node traffic period in ms; None = silent (relies on explicit ELS).
traffic_plans = st.lists(
    st.one_of(st.none(), st.integers(min_value=2, max_value=60)),
    min_size=NODE_COUNT,
    max_size=NODE_COUNT,
)


def build(plan):
    net = CanelyNetwork(node_count=NODE_COUNT, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    for node_id, period in enumerate(plan):
        if period is not None:
            PeriodicSource(net.sim, net.node(node_id), period=ms(period))
    return net


@SLOW
@given(traffic_plans)
def test_no_false_suspicion_whatever_the_traffic(plan):
    net = build(plan)
    net.run_for(ms(500))
    assert net.views_agree()
    assert sorted(net.agreed_view()) == list(range(NODE_COUNT))


@SLOW
@given(traffic_plans, st.integers(min_value=0, max_value=NODE_COUNT - 1))
def test_crash_always_detected_whatever_the_traffic(plan, victim):
    net = build(plan)
    net.run_for(ms(100))
    crash_time = net.sim.now
    net.node(victim).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    survivors = set(range(NODE_COUNT)) - {victim}
    assert set(net.agreed_view()) == survivors
    # Notification arrived within the analytic bound.
    from repro.analysis.latency import measured_detection_latencies

    latency = measured_detection_latencies(net.sim.trace, {victim: crash_time})[victim]
    assert latency is not None
    assert latency <= CONFIG.thb + CONFIG.ttd + ms(2)
