"""ABL-3 — failure detection latency vs the heartbeat period ``Thb``,
with implicit versus explicit life-signs.

Section 6.3: the detection latency is governed by ``Thb + Ttd``; implicit
life-signs (normal traffic) make the latency independent of explicit ELS
traffic. This ablation sweeps ``Thb`` and contrasts a silent network
(explicit life-signs only) with a chatty one (implicit only), reporting the
measured latency and the ELS frames consumed.
"""

from conftest import emit

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.util.tables import render_table
from repro.analysis.latency import measured_detection_latencies
from repro.workloads.traffic import PeriodicSource

NODES = 6
VICTIM = 4


def run(thb_ms: int, chatty: bool):
    config = CanelyConfig(
        capacity=16,
        tm=ms(max(50, 2 * thb_ms)),
        thb=ms(thb_ms),
        tjoin_wait=ms(max(150, 6 * thb_ms)),
    )
    net = CanelyNetwork(node_count=NODES, config=config)
    net.scenario().bootstrap()
    if chatty:
        for node_id in net.nodes:
            PeriodicSource(net.sim, net.node(node_id), period=ms(thb_ms) // 3)
    net.run_for(4 * config.thb)
    els_start = sum(node.detector.els_sent for node in net.nodes.values())
    crash_time = net.sim.now
    net.node(VICTIM).crash()
    net.run_for(4 * config.thb + 4 * config.ttd + ms(50))
    latency = measured_detection_latencies(net.sim.trace, {VICTIM: crash_time})[VICTIM]
    els_spent = (
        sum(node.detector.els_sent for node in net.nodes.values()) - els_start
    )
    return latency, els_spent, config


def bench_abl_detection_latency(benchmark):
    def sweep():
        results = {}
        for thb_ms in (5, 10, 20, 40):
            for chatty in (False, True):
                results[(thb_ms, chatty)] = run(thb_ms, chatty)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for (thb_ms, chatty), (latency, els_spent, config) in sorted(results.items()):
        bound = (config.thb + config.ttd) / ms(1)
        rows.append(
            [
                thb_ms,
                "implicit (periodic traffic)" if chatty else "explicit (ELS)",
                f"{latency / ms(1):.2f} ms" if latency else "-",
                f"{bound:.0f} ms",
                els_spent,
            ]
        )
    table = render_table(
        ["Thb (ms)", "life-sign mode", "measured latency", "bound Thb+Ttd", "ELS frames"],
        rows,
        title="ABL-3 — detection latency vs heartbeat period (6 nodes)",
    )
    emit("abl_detection_latency", table)

    for (thb_ms, chatty), (latency, els_spent, config) in results.items():
        assert latency is not None, (thb_ms, chatty)
        # Fig. 8's bound: the crash is signalled within Thb + Ttd (plus the
        # FDA frame itself).
        assert latency <= config.thb + config.ttd + ms(2)
        if chatty:
            assert els_spent == 0  # implicit life-signs carried everything
        else:
            assert els_spent > 0
    # Latency scales with Thb (the knob the designer turns).
    silent = {thb: results[(thb, False)][0] for thb in (5, 10, 20, 40)}
    assert silent[5] < silent[40]
