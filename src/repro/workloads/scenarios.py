"""Trace-query helpers shared by tests, examples and benchmarks.

Scenario *construction* lives on the fluent
:class:`~repro.workloads.builder.ScenarioBuilder` reachable as
``network.scenario()``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.stack import CanelyNetwork


def first_change_with_failed(
    network: CanelyNetwork, failed_node: int, after: int = 0
) -> Optional[int]:
    """Time of the first membership-change notifying ``failed_node``."""
    for record in network.sim.trace.select(category="msh.change"):
        if record.time >= after and failed_node in record.data["failed"]:
            return record.time
    return None


def detection_latencies(
    network: CanelyNetwork, crash_times: dict
) -> dict:
    """Failure-notification latency per crashed node, in ticks.

    ``crash_times`` maps node id -> crash time; the result maps node id ->
    (first notification time - crash time), or ``None`` if never notified.
    A thin convenience over the shared one-pass extraction in
    :func:`repro.analysis.latency.measured_detection_latencies`.
    """
    from repro.analysis.latency import measured_detection_latencies

    return measured_detection_latencies(network.sim.trace, dict(crash_times))
