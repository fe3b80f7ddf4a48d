"""Analytical models: timing, bandwidth, inaccessibility, comparisons.

These modules regenerate the paper's analytical artifacts — the Fig. 10
bandwidth-utilization curves, the inaccessibility rows of Fig. 11 and the
qualitative comparison tables of Figs. 1 and 11 — and provide the
Tindell-Burns response-time analysis used to parameterize the protocol's
``Ttd`` bound.
"""

from repro.analysis.bandwidth import BandwidthModel, BandwidthBreakdown
from repro.analysis.comparison import fig1_rows, fig11_rows
from repro.analysis.inaccessibility import (
    InaccessibilityScenario,
    can_inaccessibility_range,
    canely_inaccessibility_range,
    scenario_catalogue,
)
from repro.analysis.latency import LatencyBounds, latency_bounds
from repro.analysis.timing import MessageSpec, response_time, transmission_delay_bound

__all__ = [
    "BandwidthBreakdown",
    "BandwidthModel",
    "InaccessibilityScenario",
    "LatencyBounds",
    "MessageSpec",
    "can_inaccessibility_range",
    "canely_inaccessibility_range",
    "fig1_rows",
    "fig11_rows",
    "latency_bounds",
    "response_time",
    "scenario_catalogue",
    "transmission_delay_bound",
]
