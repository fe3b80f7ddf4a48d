"""FIG-10 — CAN bandwidth utilization of the membership suite vs ``Tm``.

The paper's Fig. 10 plots, for n=32, b=8, f=4, the fraction of CAN
bandwidth the site membership protocol suite consumes per membership cycle
period, under four cumulative scenarios: no membership changes, f crash
failures, a join/leave event, and multiple (c=20) join/leave requests.

This benchmark regenerates the figure twice:

* **analytically**, from :class:`repro.analysis.bandwidth.BandwidthModel`
  (the paper's own evaluation is analytical, from [16]);
* **by simulation**, running the full protocol stack on the simulated bus
  and reading the per-message-type bit accounting out of the bus stats.

Shape checks assert the paper's qualitative claims: hyperbolic decline in
``Tm``, the curve ordering, and the ~0.4% marginal cost per join/leave
request (Section 6.5 footnote). ``repro fig10`` prints the analytic table
(:func:`repro.analysis.figures.fig10_table`).
"""

from conftest import emit

from repro.analysis.bandwidth import BandwidthModel
from repro.analysis.figures import FIG10_TM_MS, PAPER_FIG10, fig10_table
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.util.tables import render_table
from repro.workloads.traffic import PeriodicSource

#: The membership suite's message types (what Fig. 10 accounts).
SUITE_TYPES = ("ELS", "FDA", "RHA", "JOIN", "LEAVE")


def _simulate_suite_bits(tm_ms: int, crashes: int, join_leaves: int) -> float:
    """Run the full stack for one loaded cycle; return the suite's
    utilization fraction averaged over the measurement window."""
    # The paper's Fig. 10 charges at most b life-signs per membership
    # cycle, i.e. its operating point ties the heartbeat period to Tm.
    config = CanelyConfig.for_population(
        32,
        capacity=64,
        tm=ms(tm_ms),
        thb=ms(tm_ms),
        trha=ms(min(5, tm_ms // 2)),
        tjoin_wait=ms(3 * tm_ms),
    )
    population = 32
    net = CanelyNetwork(node_count=population, config=config)
    net.join_all()
    net.run_for(config.tjoin_wait + 6 * config.tm)
    assert net.views_agree()

    # b=8: give 24 nodes periodic traffic faster than Thb so only 8 rely
    # on explicit life-signs.
    for node_id in range(8, population):
        PeriodicSource(net.sim, net.node(node_id), period=ms(8))
    net.run_for(2 * config.tm)  # let traffic settle

    start_bits = {
        key: net.bus.stats.bits_by_type.get(key, 0) for key in SUITE_TYPES
    }
    start_time = net.sim.now

    for node_id in range(crashes):
        # Crash periodic-traffic nodes so the b=8 explicit-life-sign
        # population is the same in every scenario.
        net.node(12 + node_id).crash()
    leaves = min(join_leaves, 8)
    for node_id in range(leaves):
        net.node(population - 1 - node_id).leave()

    net.run_for(4 * config.tm)
    window = net.sim.now - start_time
    suite_bits = sum(
        net.bus.stats.bits_by_type.get(key, 0) - start_bits[key]
        for key in SUITE_TYPES
    )
    # Utilization normalized per membership cycle, as in the figure.
    cycles = window / config.tm
    per_cycle_bits = suite_bits / cycles
    return per_cycle_bits / (tm_ms * 1000)


def bench_fig10_analytic_curves(benchmark):
    emit("fig10_bandwidth_analytic", benchmark(fig10_table))

    # The paper's operating point: n=32, b=8, f=4, standard-format frames.
    curves = BandwidthModel().figure10(FIG10_TM_MS)
    # Shape assertions: hyperbolic decline and curve ordering.
    for label, curve in curves.items():
        assert curve == sorted(curve, reverse=True), label
    for index in range(len(FIG10_TM_MS)):
        column = [curves[label][index] for label in PAPER_FIG10]
        assert column == sorted(column)
    # Magnitude: within the paper's band (same order, factor < 2 off).
    for label, paper_points in PAPER_FIG10.items():
        for tm, paper_value in paper_points.items():
            model_value = curves[label][FIG10_TM_MS.index(tm)]
            assert 0.4 < model_value / paper_value < 2.2, (
                label,
                tm,
                model_value,
                paper_value,
            )


def bench_fig10_simulation_crosscheck(benchmark):
    scenarios = {
        "no msh. changes": (0, 0),
        "f crash failures": (4, 0),
        "join/leave event": (0, 1),
        "multiple join/leave": (0, 8),
    }

    def run_all():
        return {
            label: {tm: _simulate_suite_bits(tm, *params) for tm in (30, 60, 90)}
            for label, params in scenarios.items()
        }

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    model = BandwidthModel()
    rows = []
    for label, by_tm in measured.items():
        crashes, join_leaves = scenarios[label]
        for tm, value in by_tm.items():
            analytic = model.utilization(tm, crashes, join_leaves)
            rows.append(
                [label, tm, f"{value * 100:.2f}%", f"{analytic * 100:.2f}%"]
            )
    table = render_table(
        ["scenario", "Tm (ms)", "simulated", "worst-case model"],
        rows,
        title=(
            "Figure 10 cross-check — simulated suite bandwidth vs the "
            "conservative analytical model"
        ),
    )
    emit("fig10_bandwidth_simulated", table)

    # The simulation must decline with Tm and stay below the conservative
    # worst-case model's prediction for the loaded scenarios.
    for label, by_tm in measured.items():
        values = [by_tm[tm] for tm in (30, 60, 90)]
        assert values[0] > values[-1], label
    quiet = measured["no msh. changes"]
    loaded = measured["multiple join/leave"]
    for tm in (30, 60, 90):
        assert loaded[tm] > quiet[tm]
