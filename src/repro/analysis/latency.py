"""Analytical bounds for failure detection and membership latency.

Fig. 11 quotes CANELy's membership latency as "tens of ms". This module
derives the bound from the protocol structure so deployments can verify a
configuration *before* running it, and so the Fig. 11 benchmark can check
the measured latency against the bound:

* **silence bound** — a node may transmit a life-sign immediately before
  crashing; its silence is certain only ``Thb + Ttd`` later (the remote
  surveillance timeout of Fig. 8, line a04);
* **dissemination bound** — the FDA failure-sign plus its worst-case
  echoes and error recovery, at top bus priority;
* **notification** — ``fd-can.nty`` / ``msh-can.nty`` are local upcalls
  (no bus traffic).

The *view update* additionally waits for the next membership cycle
boundary (at most ``Tm``), which is the figure to compare against TTP's
slot-synchronous membership.

Alongside the analytic bounds, the ``measured_*`` queries read the same
latencies out of a finished run's trace. They go through
:meth:`~repro.sim.trace.TraceRecorder.category_columns`, the bulk column
accessor, so they scan the recorder's packed arrays without materializing
one record object per entry — the difference between a post-processing
blip and a second full pass on a 200-node campaign trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.can.bitstream import (
    ERROR_DELIMITER_BITS,
    SUSPEND_TRANSMISSION_BITS,
    worst_case_frame_bits,
)
from repro.analysis.inaccessibility import SUPERPOSED_FLAG_BITS
from repro.core.config import CanelyConfig
from repro.sim.clock import SEC
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class LatencyBounds:
    """Worst-case latency decomposition, all in kernel ticks.

    Attributes:
        silence: crash-to-timer-expiry bound (``Thb + Ttd``).
        dissemination: FDA worst-case dissemination time.
        notification: crash-to-``msh-can.nty`` bound (failure notification
            at every correct node).
        view_update: crash-to-consistent-view bound (adds one membership
            cycle).
    """

    silence: int
    dissemination: int
    notification: int
    view_update: int


def fda_dissemination_bound(
    config: CanelyConfig, bit_rate: int = 1_000_000
) -> int:
    """Worst-case FDA dissemination time, in kernel ticks.

    The failure-sign travels at top bus priority; it can suffer at most
    ``j`` inconsistent omissions, each costing a frame plus the error
    signalling overhead, followed by the clustered echo round.
    """
    bit_ticks = SEC // bit_rate
    frame_bits = worst_case_frame_bits(0, extended=True)
    error_bits = (
        SUPERPOSED_FLAG_BITS + ERROR_DELIMITER_BITS + SUSPEND_TRANSMISSION_BITS
    )
    j = config.inconsistent_degree
    # Blocking by one in-flight maximum-length frame, then the sign and its
    # echo, plus j faulty attempts.
    blocking_bits = worst_case_frame_bits(8, extended=True)
    total_bits = blocking_bits + 2 * frame_bits + j * (frame_bits + error_bits)
    return total_bits * bit_ticks


def latency_bounds(
    config: CanelyConfig, bit_rate: int = 1_000_000
) -> LatencyBounds:
    """The full crash-to-consequence latency decomposition."""
    silence = config.thb + config.ttd
    dissemination = fda_dissemination_bound(config, bit_rate)
    notification = silence + dissemination
    return LatencyBounds(
        silence=silence,
        dissemination=dissemination,
        notification=notification,
        view_update=notification + config.tm,
    )


# -- measured latencies (trace queries) ---------------------------------------


def measured_crash_times(trace: TraceRecorder) -> Dict[int, int]:
    """First crash instant per node, from the ``node.crash`` records."""
    times, nodes, _payloads = trace.category_columns("node.crash")
    crash_times: Dict[int, int] = {}
    for index in range(len(times)):
        node = nodes[index]
        if node not in crash_times:
            crash_times[node] = times[index]
    return crash_times


def crash_notification_times(
    trace: TraceRecorder,
    crash_times: Optional[Dict[int, int]] = None,
) -> Dict[int, Dict[int, int]]:
    """First ``msh.change`` naming each crash, per observing node.

    Maps crashed node -> {observer -> time that observer's view first
    reported the crash}, in one pass over the ``msh.change`` columns
    (:meth:`~repro.sim.trace.TraceRecorder.category_columns`, so the
    trace answers from its backing arrays). A single change record
    whose ``failed`` set names several crashed nodes feeds every one of
    them — two crashes folded into the same membership cycle are both
    attributed to that one view change.

    This is the one crash-event extraction shared by
    :func:`measured_detection_latencies` and the QoS engine
    (:mod:`repro.obs.qos`); notifications predating the crash (a stale
    view change about an earlier incarnation) are ignored.
    """
    if crash_times is None:
        crash_times = measured_crash_times(trace)
    if not crash_times:
        return {}
    notifications: Dict[int, Dict[int, int]] = {
        node: {} for node in crash_times
    }
    times, observers, payloads = trace.category_columns("msh.change")
    crashed = list(crash_times.items())
    for index in range(len(times)):
        failed = payloads[index]["failed"]
        time = times[index]
        observer = observers[index]
        for node, crashed_at in crashed:
            if node in failed and time >= crashed_at:
                seen = notifications[node]
                if observer not in seen:
                    seen[observer] = time
    return notifications


def measured_detection_latencies(
    trace: TraceRecorder,
    crash_times: Optional[Dict[int, int]] = None,
) -> Dict[int, Optional[int]]:
    """Measured crash-to-view-change latency per crashed node, in ticks.

    ``crash_times`` maps node id -> crash instant; when omitted it is
    read from the trace's ``node.crash`` records. The result maps node
    id -> time from the crash to the first ``msh.change`` reporting the
    node failed, or ``None`` when the run ended unnotified. Built on
    :func:`crash_notification_times`, the shared one-pass extraction.
    """
    if crash_times is None:
        crash_times = measured_crash_times(trace)
    notifications = crash_notification_times(trace, crash_times)
    return {
        node: (
            min(notifications[node].values()) - crash_times[node]
            if notifications[node]
            else None
        )
        for node in crash_times
    }
