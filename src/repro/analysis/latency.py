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

Alongside the analytic bounds, :func:`measured_detection_latencies` reads
the same latencies out of a finished run's trace, through the per-spell
crash ledger (:mod:`repro.obs.episodes`) every other crash readout uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.can.bitstream import (
    ERROR_DELIMITER_BITS,
    SUSPEND_TRANSMISSION_BITS,
    worst_case_frame_bits,
)
from repro.analysis.inaccessibility import SUPERPOSED_FLAG_BITS
from repro.core.config import CanelyConfig
from repro.obs.episodes import Episodes, one_or_all
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


# -- measured latencies ------------------------------------------------------


def measured_detection_latencies(
    trace: TraceRecorder,
    crash_times: Optional[Dict[int, int]] = None,
) -> Dict[int, Union[None, int, List[Optional[int]]]]:
    """Measured crash-to-view-change latency per crashed node, in ticks.

    ``crash_times`` maps node id -> crash instant; when omitted the
    crashes are the trace's ``node.crash`` records. Each crash's latency
    runs to the first ``msh.change`` reporting the node failed
    (:class:`~repro.obs.episodes.Episodes`), ``None`` when the run ended
    unnotified. A node that crashed once maps to its latency, one that
    crashed several times to the list of them, in order.
    """
    return one_or_all(Episodes.of(trace, crashes=crash_times).latencies())
