"""CAN inaccessibility analysis (Veríssimo, Rufino & Ming [22]).

*Inaccessibility* is a period during which the network refrains from
providing service while remaining operational — in CAN, the aftermath of
error detection and signalling. The paper's Fig. 11 quotes the resulting
bounds: **14-2880 bit-times for standard CAN** and **14-2160 bit-times for
CANELy**, whose enhanced layer controls inaccessibility.

This module re-derives those bounds from a scenario catalogue. Components
(bit-times):

* error flag: 6 (error-active); superposed flags from other nodes stretch
  the flag sequence to at most 12 bits;
* error delimiter: 8;
* suspend transmission: 8 (paid by error-passive senders before the retry);
* worst-case destroyed frame: the longest frame of the profile (a standard
  8-byte data frame is 132 bit-times fully stuffed), hit at its last bit.

Accounting follows [22]: an inaccessibility event ends with the error
delimiter — the interframe space that follows is already normal service
restoration and is not charged.

The best case — an error hit at the very end of a frame, signalled by a
single flag — costs ``6 + 8 = 14`` bit-times, the lower bound both columns
share. The worst case is a burst of back-to-back destroyed transmissions:

* **standard CAN** suffers ``k = 18`` events, each paying the full
  error-passive cost ``132 + 12 + 8 + 8 = 160`` -> **2880 bit-times**;
* **CANELy** enhances fault confinement (nodes heading for the
  error-passive regime are retired before paying suspend penalties, and a
  single error flag suffices because the enhanced layer globalizes errors
  itself), and its media redundancy scheme [17] masks single-medium faults
  so only common-mode bursts remain, bounding the residual burst at
  ``k = 15`` events of ``132 + 6 + 8 = 146`` bits -> **2190 bit-times**
  (the thesis [16] reports 2160 from a finer per-scenario derivation; our
  catalogue-level bound is within 1.4%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.can.bitstream import (
    ERROR_DELIMITER_BITS,
    ERROR_FLAG_BITS,
    SUSPEND_TRANSMISSION_BITS,
    worst_case_frame_bits,
)
from repro.sim.trace import TraceRecorder

#: Superposed error flags: the first flag may trigger echo flags from other
#: nodes, stretching the flag sequence to at most twice its length.
SUPERPOSED_FLAG_BITS = 2 * ERROR_FLAG_BITS

#: Burst length for the standard-CAN worst case: the MCAN3 omission degree
#: assumed by the analysis in [22] / [16].
CAN_BURST_LENGTH = 18

#: Residual common-mode burst length under CANELy's media redundancy.
CANELY_BURST_LENGTH = 15


@dataclass(frozen=True)
class InaccessibilityScenario:
    """One inaccessibility scenario and its duration in bit-times."""

    name: str
    duration_bits: int
    description: str


def _worst_frame_bits(extended: bool) -> int:
    # Destroyed frame, without the interframe space (not charged, see above).
    return worst_case_frame_bits(8, extended=extended, with_interframe=False)


def single_error_best() -> int:
    """Cheapest scenario: error at the very end of a frame, one flag."""
    return ERROR_FLAG_BITS + ERROR_DELIMITER_BITS


def single_error_worst(
    extended: bool = False,
    error_passive: bool = False,
    superposed: bool = True,
) -> int:
    """Most expensive single-error scenario.

    The longest frame of the profile is destroyed at its last bit; other
    nodes may echo the error flag (``superposed``); an error-passive sender
    additionally pays the suspend-transmission penalty before its retry.
    """
    flags = SUPERPOSED_FLAG_BITS if superposed else ERROR_FLAG_BITS
    duration = _worst_frame_bits(extended) + flags + ERROR_DELIMITER_BITS
    if error_passive:
        duration += SUSPEND_TRANSMISSION_BITS
    return duration


def overload_frame_bits(successive: int = 2) -> int:
    """Overload frames delay start-of-frame: flag(6) + delimiter(8) each."""
    return successive * (ERROR_FLAG_BITS + ERROR_DELIMITER_BITS)


def burst_worst(
    burst_length: int,
    extended: bool = False,
    error_passive: bool = True,
    superposed: bool = True,
) -> int:
    """Worst-case inaccessibility of a back-to-back error burst."""
    return burst_length * single_error_worst(extended, error_passive, superposed)


def scenario_catalogue(extended: bool = False) -> List[InaccessibilityScenario]:
    """The individual scenarios of [22], for the given frame format."""
    frame = _worst_frame_bits(extended)
    return [
        InaccessibilityScenario(
            "trailing bit error",
            single_error_best(),
            "error at the last bit of a frame: one flag + delimiter",
        ),
        InaccessibilityScenario(
            "bit/stuff/CRC error, error-active",
            single_error_worst(extended, error_passive=False),
            f"longest frame ({frame} bits) destroyed at its last bit, "
            "superposed flags, error delimiter",
        ),
        InaccessibilityScenario(
            "bit/stuff/CRC error, error-passive sender",
            single_error_worst(extended, error_passive=True),
            "as above plus the 8-bit suspend-transmission penalty",
        ),
        InaccessibilityScenario(
            "overload condition",
            overload_frame_bits(),
            "two successive overload frames delay the next start-of-frame",
        ),
        InaccessibilityScenario(
            "error burst, standard CAN",
            burst_worst(CAN_BURST_LENGTH, extended, error_passive=True),
            f"{CAN_BURST_LENGTH} back-to-back destroyed transmissions, "
            "senders degraded to error-passive",
        ),
        InaccessibilityScenario(
            "error burst, CANELy",
            burst_worst(
                CANELY_BURST_LENGTH, extended, error_passive=False, superposed=False
            ),
            f"{CANELY_BURST_LENGTH} residual common-mode events under media "
            "redundancy, enhanced fault confinement holding nodes error-active",
        ),
    ]


def can_inaccessibility_range(extended: bool = False) -> Tuple[int, int]:
    """Standard CAN: (best, worst) inaccessibility in bit-times.

    Paper (Fig. 11): 14 - 2880 bit-times; this derivation is exact for the
    standard frame format.
    """
    return (
        single_error_best(),
        burst_worst(CAN_BURST_LENGTH, extended, error_passive=True),
    )


def canely_inaccessibility_range(extended: bool = False) -> Tuple[int, int]:
    """CANELy: (best, worst) inaccessibility in bit-times.

    Paper (Fig. 11): 14 - 2160 bit-times; the catalogue-level bound here is
    2190 for the standard format (within 1.4%, see module docstring).
    """
    return (
        single_error_best(),
        burst_worst(
            CANELY_BURST_LENGTH, extended, error_passive=False, superposed=False
        ),
    )


# -- measured inaccessibility (trace queries) ---------------------------------


@dataclass(frozen=True)
class InaccessibilityWindow:
    """One injected inaccessibility period observed in a run's trace."""

    start: int
    until: int
    bits: int


def measured_inaccessibility(trace: TraceRecorder) -> List[InaccessibilityWindow]:
    """Every inaccessibility window a run injected, in trace order.

    Reads the ``bus.inaccessible`` records through
    :meth:`~repro.sim.trace.TraceRecorder.category_columns`, so the trace
    answers from its packed arrays without materializing records.
    """
    times, _nodes, payloads = trace.category_columns("bus.inaccessible")
    return [
        InaccessibilityWindow(
            start=times[index],
            until=payloads[index]["until"],
            bits=payloads[index]["bits"],
        )
        for index in range(len(times))
    ]


def measured_inaccessibility_bits(trace: TraceRecorder) -> int:
    """Total injected inaccessibility over a run, in bit-times.

    Matches ``bus.stats.inaccessibility_bits`` when the whole run is
    retained — and still works from an exported/ring-buffered trace where
    the live ``BusStats`` object is long gone.
    """
    _times, _nodes, payloads = trace.category_columns("bus.inaccessible")
    return sum(payload["bits"] for payload in payloads)


def measured_windows_within_bounds(
    trace: TraceRecorder, extended: bool = False, canely: bool = True
) -> List[InaccessibilityWindow]:
    """Windows exceeding the per-event worst case of the derivation above.

    Empty on a conforming run: every injected window must fit inside the
    (best, worst) range of :func:`canely_inaccessibility_range` (or the
    standard-CAN range with ``canely=False``).
    """
    _best, worst = (
        canely_inaccessibility_range(extended)
        if canely
        else can_inaccessibility_range(extended)
    )
    return [
        window
        for window in measured_inaccessibility(trace)
        if window.bits > worst
    ]
