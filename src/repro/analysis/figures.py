"""The paper's figures as text: its tables, and charts of its curves.

:func:`fig1_table`, :func:`fig10_table` and :func:`fig11_table` build the
tables of Figs. 1, 10 and 11 exactly as ``benchmarks/results/`` commits
them; ``repro fig1|fig10|fig11`` and ``benchmarks/bench_fig*`` both call
them. :func:`ascii_chart` renders one or more ``(x, y)`` series into a
fixed-size character grid with axes and a legend — no plotting dependency
required.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, ScenarioError
from repro.util.tables import render_table

#: Plot glyphs assigned to series in order.
GLYPHS = "*o+x#@"

#: The ``Tm`` values (ms) of the Fig. 10 table.
FIG10_TM_MS = (30, 40, 50, 60, 70, 80, 90)

#: Approximate values read off the published Fig. 10 plot (1 Mbps,
#: standard-format frames), for the paper-vs-model table.
PAPER_FIG10 = {
    "no msh. changes": {30: 0.017, 50: 0.010, 70: 0.007, 90: 0.006},
    "f crash failures": {30: 0.046, 50: 0.028, 70: 0.020, 90: 0.015},
    "join/leave event": {30: 0.060, 50: 0.036, 70: 0.026, 90: 0.020},
    "multiple join/leave": {30: 0.135, 50: 0.081, 70: 0.058, 90: 0.045},
}


def fig1_table() -> str:
    """Fig. 1 — the TTP vs standard CAN comparison table."""
    from repro.analysis.comparison import fig1_rows

    return render_table(
        ["Parameter", "TTP", "Standard CAN"],
        fig1_rows(),
        title="Figure 1 — comparison of TTP and CAN (reproduced)",
    )


def fig10_table() -> str:
    """Fig. 10 — the membership suite's bandwidth at the paper's operating
    point (n=32, b=8, f=4, standard frames) next to the values read off the
    published plot, then the marginal cost of one join/leave request."""
    from repro.analysis.bandwidth import BandwidthModel

    model = BandwidthModel()
    rows = []
    for label, curve in model.figure10(FIG10_TM_MS).items():
        for tm, value in zip(FIG10_TM_MS, curve):
            paper = PAPER_FIG10[label].get(tm)
            rows.append(
                [
                    label,
                    tm,
                    f"{value * 100:.2f}%",
                    f"{paper * 100:.1f}%" if paper is not None else "-",
                ]
            )
    table = render_table(
        ["scenario", "Tm (ms)", "model", "paper (read off plot)"],
        rows,
        title="Figure 10 — CAN bandwidth utilization by the membership suite",
    )
    marginal = model.marginal_join_leave_utilization(25)
    return table + (
        f"\nmarginal cost per join/leave request at Tm=25ms: "
        f"{marginal * 100:.2f}% (paper: ~0.4%)"
    )


def _fig11_network(node_count: int):
    """A bootstrapped network on Fig. 11's measurement configuration."""
    from repro.core.config import CanelyConfig
    from repro.core.stack import CanelyNetwork
    from repro.sim.clock import ms

    config = CanelyConfig(capacity=32, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))
    net = CanelyNetwork(node_count=node_count, config=config)
    net.scenario().bootstrap()
    return net


def measure_membership_latency_ms() -> float:
    """Worst observed crash-to-notification latency over three crashes in
    a 16-node network (Fig. 11's membership cell)."""
    from repro.analysis.latency import measured_detection_latencies
    from repro.sim.clock import ms

    worst = 0.0
    for victim in (3, 9, 14):
        net = _fig11_network(16)
        crash_time = net.sim.now
        net.node(victim).crash()
        net.run_for(ms(200))
        latency = measured_detection_latencies(
            net.sim.trace, {victim: crash_time}
        )[victim]
        if latency is None:
            raise ScenarioError(f"the crash of node {victim} was never notified")
        worst = max(worst, latency / ms(1))
    return worst


def measure_clock_precision_us() -> float:
    """Worst pairwise clock deviation after 1 s of synchronized operation
    in an 8-node network (Fig. 11's clock-synchronization cell)."""
    from repro.services.clocksync import ClockSyncService, VirtualClock, precision
    from repro.sim.clock import ms, us

    net = _fig11_network(8)
    clocks = {}
    for node_id, node in net.nodes.items():
        clock = VirtualClock(
            drift=random.Random(100 + node_id).uniform(-1e-4, 1e-4)
        )
        clocks[node_id] = clock
        ClockSyncService(
            node.layer,
            node.timers,
            net.sim,
            clock,
            resync_period=ms(100),
            reception_jitter_rng=random.Random(200 + node_id),
        ).start()
    net.run_for(ms(1000))
    return precision(clocks, net.sim.now) / us(1)


def fig11_table(latency_ms: float, clock_us: float) -> str:
    """Fig. 11 — the TTP vs CAN vs CANELy table with the measured
    membership latency and clock precision (see
    :func:`measure_membership_latency_ms`, :func:`measure_clock_precision_us`),
    followed by the inaccessibility scenario catalogue behind its ranges."""
    from repro.analysis.comparison import fig11_rows
    from repro.analysis.inaccessibility import (
        canely_inaccessibility_range,
        scenario_catalogue,
    )

    ely_lo, ely_hi = canely_inaccessibility_range()
    table = render_table(
        ["Parameter", "TTP", "CAN", "CANELy (this reproduction)"],
        fig11_rows(
            measured={
                "inaccessibility": f"{ely_lo} - {ely_hi} bit-times (derived)",
                "membership": f"{latency_ms:.1f} ms latency (measured)",
                "clock": f"{clock_us:.1f} us precision (measured)",
            }
        ),
        title="Figure 11 — comparison of TTP, CAN and CANELy",
    )
    catalogue = render_table(
        ["scenario", "bit-times", "description"],
        [[s.name, s.duration_bits, s.description] for s in scenario_catalogue()],
        title="Inaccessibility scenario catalogue (standard format)",
    )
    return table + "\n\n" + catalogue


def ascii_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    y_format: str = "{:.1%}",
    x_format: str = "{:.0f}",
    title: str = "",
) -> str:
    """Render ``{label: [(x, y), ...]}`` as an ASCII chart.

    Points are nearest-neighbour mapped onto a ``width x height`` grid;
    the y axis starts at zero (these are utilization curves).
    """
    if not series:
        raise ConfigurationError("at least one series is required")
    if width < 8 or height < 4:
        raise ConfigurationError(f"chart too small: {width}x{height}")
    points = [point for curve in series.values() for point in curve]
    if not points:
        raise ConfigurationError("series contain no points")
    x_values = [x for x, _ in points]
    y_values = [y for _, y in points]
    x_lo, x_hi = min(x_values), max(x_values)
    y_lo, y_hi = 0.0, max(y_values) or 1.0
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, curve) in enumerate(series.items()):
        glyph = GLYPHS[index % len(GLYPHS)]
        for x, y in curve:
            column = round((x - x_lo) / x_span * (width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][column] = glyph

    label_width = max(len(y_format.format(y_hi)), len(y_format.format(y_lo)))
    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = y_format.format(y_hi)
        elif row_index == height - 1:
            label = y_format.format(y_lo)
        else:
            label = ""
        lines.append(f"{label:>{label_width}} |{''.join(row)}")
    lines.append(f"{'':>{label_width}} +{'-' * width}")
    x_left = x_format.format(x_lo)
    x_right = x_format.format(x_hi)
    padding = width - len(x_left) - len(x_right)
    lines.append(f"{'':>{label_width}}  {x_left}{'' :>{max(0, padding)}}{x_right}")
    for index, label in enumerate(series):
        lines.append(
            f"{'':>{label_width}}  {GLYPHS[index % len(GLYPHS)]} = {label}"
        )
    return "\n".join(lines)


def fig10_chart() -> str:
    """The Fig. 10 curves, at the paper's operating point, as an ASCII
    chart."""
    from repro.analysis.bandwidth import BandwidthModel

    model = BandwidthModel()
    tm_values = list(range(30, 95, 5))
    curves = model.figure10(tm_values)
    series = {
        label: list(zip(tm_values, values)) for label, values in curves.items()
    }
    return ascii_chart(
        series,
        title=(
            "Figure 10 — membership suite bandwidth vs Tm (ms), "
            f"n={model.population}, b={model.lifesign_nodes}, "
            f"f={model.crash_failures}"
        ),
    )


# ---------------------------------------------------------------------------
# QoS catalog figures (``repro qos --chart`` / ``--figure``)
# ---------------------------------------------------------------------------


def qos_detection_series(report):
    """``{backend: [(scenario index, detection p50 ms), ...]}`` curves.

    The data behind the QoS chart, extracted from a
    :class:`~repro.scenarios.runner.QoSReport`: x is the scenario's index
    in the report's scenario order, y the detection-time median. Cells
    without a detection sample (no crash, or nothing notified) are
    omitted. Pure data, deterministic for a deterministic report — the
    figure-determinism tests byte-compare exactly this.
    """
    series = {}
    for index, scenario in enumerate(report.scenarios):
        for backend in report.backends:
            outcome = report.outcome(scenario, backend)
            if outcome is None:
                continue
            p50 = outcome.qos.to_dict()["detection_ms"]["p50_ms"]
            if p50 is None:
                continue
            series.setdefault(backend, []).append((float(index), p50))
    return series


def qos_chart(report, width: int = 64, height: int = 16) -> str:
    """The QoS catalog's detection medians as an ASCII chart.

    One glyph per backend, x = scenario index (in report order), y =
    detection p50 in ms. Falls back to a plain message when no scenario
    produced a detection sample (an all-quiet or all-starved catalog).
    """
    series = qos_detection_series(report)
    if not any(series.values()):
        return "qos chart: no detection samples to plot"
    scenarios = ", ".join(
        f"{index}={name}" for index, name in enumerate(report.scenarios)
    )
    return ascii_chart(
        series,
        width=width,
        height=height,
        y_format="{:.1f}",
        x_format="{:.0f}",
        title=f"Detection p50 (ms) by scenario — {scenarios}",
    )


def save_qos_figure(report, path: str) -> str:
    """Render the QoS detection chart to an image file via matplotlib.

    matplotlib is an *optional* dependency: when it is not installed this
    raises :class:`~repro.errors.ConfigurationError` with a clear message
    instead of an ImportError mid-plot (the ASCII chart needs nothing).
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        from matplotlib import pyplot
    except ImportError:
        raise ConfigurationError(
            "matplotlib is not installed; use the ASCII chart "
            "(repro qos --chart) or install matplotlib for image output"
        ) from None
    series = qos_detection_series(report)
    figure, axes = pyplot.subplots(figsize=(8, 4.5))
    for backend in sorted(series):
        points = series[backend]
        axes.plot(
            [x for x, _ in points],
            [y for _, y in points],
            marker="o",
            label=backend,
        )
    axes.set_xticks(range(len(report.scenarios)))
    axes.set_xticklabels(report.scenarios, rotation=45, ha="right", fontsize=7)
    axes.set_ylabel("detection p50 (ms)")
    axes.set_title("Failure-detector QoS catalog")
    axes.legend()
    figure.tight_layout()
    figure.savefig(path)
    pyplot.close(figure)
    return path
