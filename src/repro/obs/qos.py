"""Failure-detector QoS metrics computed from recorded traces.

The paper argues CANELy's failure detector in terms of *bounded detection
time* and *membership consistency*; the related work (Duarte's
unreliable-FD diagnosis model, Sens' partial-connectivity detectors, and
the Chen/Toueg/Aguilera QoS framework they build on) frames detector
quality as a small set of measurable figures. This module computes those
figures from a finished run's trace — via the bulk
:meth:`~repro.sim.trace.TraceRecorder.category_columns` accessor — so
every backend comparison in the repo can quote them:

* **detection time** — per crash, the distribution of crash-to-
  notification latencies across the surviving observers (first, last,
  and nearest-rank quantiles);
* **mistake rate** ``λ_M`` — wrongful removals (a node dropped from a
  view while the ground truth says it was up) per observer-second;
* **mistake duration** ``T_M`` — how long a wrongful removal stands
  before the detector corrects itself (the node is re-added), the
  subject genuinely goes down, or the run ends (censored);
* **query-accuracy probability** ``P_A`` — the probability that asking
  any observer about any node at a uniformly random instant returns the
  ground truth, computed by exact time-integration of the per-entry
  view/truth agreement (all-integer arithmetic, so deterministic);
* **completeness / accuracy** — crashes eventually detected by every
  expected observer, and genuine removals over total removals, under
  join/leave churn.

Ground truth comes from the trace's ``node.crash`` records plus the
scripted ``leave_times`` / ``join_times`` the caller passes (the trace
has no join/leave category — intent lives in the scenario script). The
model is one membership spell per node: initial members are in from
``start``; a late joiner enters at its join time; a node exits at its
first crash or scripted leave. That covers the whole scenario catalog;
crash-recover-rejoin cycles are out of scope and documented as such.

Everything serializes deterministically: :meth:`QoSMetrics.to_dict`
emits plain data with stable key order and :meth:`QoSMetrics.to_json`
uses sorted keys, so same-seed runs produce byte-identical reports (the
contract the CI smoke job enforces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.clock import ms
from repro.sim.trace import TraceRecorder

#: The detection-time quantiles every report quotes.
QUANTILES = (0.50, 0.90, 0.99)


def quantile(values: Sequence[float], fraction: float):
    """The ``fraction``-quantile by nearest-rank; ``None`` when empty.

    The one quantile rule: the campaign report's ``percentile`` is this
    function, so the two surfaces quote comparable numbers.
    """
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _to_ms(ticks) -> Optional[float]:
    if ticks is None:
        return None
    return round(ticks / ms(1), 6)


def distribution_ms(latencies: Sequence[int]) -> Dict[str, object]:
    """Summary statistics of a latency sample, in milliseconds.

    Nearest-rank quantiles over the tick-valued sample, converted to ms
    only at the edge so the summary is exact and deterministic.
    """
    values = sorted(latencies)
    summary: Dict[str, object] = {"count": len(values)}
    summary["min_ms"] = _to_ms(values[0]) if values else None
    for fraction in QUANTILES:
        key = f"p{int(fraction * 100)}_ms"
        summary[key] = _to_ms(quantile(values, fraction))
    summary["max_ms"] = _to_ms(values[-1]) if values else None
    summary["mean_ms"] = (
        _to_ms(sum(values) / len(values)) if values else None
    )
    return summary


@dataclass(frozen=True)
class CrashDetection:
    """One crash's detection record across the surviving observers.

    Attributes:
        node: the crashed node.
        crash_time: crash instant, in ticks.
        expected: observers that could have learned of the crash
            (correct members still up at the crash instant).
        latencies: per-observer crash-to-notification latencies, sorted,
            in ticks; shorter than ``expected`` when the run ended with
            some observers never notified.
    """

    node: int
    crash_time: int
    expected: int
    latencies: Tuple[int, ...]

    @property
    def notified(self) -> int:
        """Observers that learned of the crash before the run ended."""
        return len(self.latencies)

    @property
    def first(self) -> Optional[int]:
        """Crash-to-*first*-notification latency, in ticks."""
        return self.latencies[0] if self.latencies else None

    @property
    def last(self) -> Optional[int]:
        """Crash-to-*everyone-notified* latency; ``None`` while any
        expected observer remains uninformed."""
        if self.latencies and self.notified == self.expected:
            return self.latencies[-1]
        return None

    @property
    def complete(self) -> bool:
        """True when every expected observer was notified."""
        return self.expected > 0 and self.notified == self.expected

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node,
            "crash_ms": _to_ms(self.crash_time),
            "expected": self.expected,
            "notified": self.notified,
            "complete": self.complete,
            "first_ms": _to_ms(self.first),
            "last_ms": _to_ms(self.last),
            "detection_ms": distribution_ms(self.latencies),
        }


@dataclass(frozen=True)
class Mistake:
    """One wrongful removal: ``observer`` dropped ``subject`` while the
    ground truth had it up.

    ``end`` is the refutation instant (the observer re-added the
    subject); ``None`` when the mistake was never refuted — the duration
    is then censored at the subject's genuine exit or the window end.
    """

    observer: int
    subject: int
    start: int
    end: Optional[int]

    @property
    def refuted(self) -> bool:
        return self.end is not None

    def duration(self, horizon: int) -> int:
        """The mistake's standing time, censored at ``horizon``."""
        return (self.end if self.end is not None else horizon) - self.start

    def to_dict(self, horizon: int) -> Dict[str, object]:
        return {
            "observer": self.observer,
            "subject": self.subject,
            "start_ms": _to_ms(self.start),
            "end_ms": _to_ms(self.end),
            "refuted": self.refuted,
            "duration_ms": _to_ms(self.duration(horizon)),
        }


@dataclass(frozen=True)
class QoSMetrics:
    """The full QoS readout of one run's observation window.

    All times are kernel ticks; conversion to milliseconds happens only
    in :meth:`to_dict`. ``agreement_ticks`` / ``total_ticks`` are the
    exact integer integrals behind ``P_A``.
    """

    start: int
    end: int
    population: Tuple[int, ...]
    observers: Tuple[int, ...]
    crashes: Tuple[CrashDetection, ...]
    mistakes: Tuple[Mistake, ...]
    removals: int
    flaps: int
    agreement_ticks: int
    total_ticks: int
    observer_ticks: int
    mistake_horizons: Tuple[int, ...]
    segment_latencies: Mapping[int, Tuple[int, ...]]

    # -- derived figures ---------------------------------------------------

    @property
    def detection_latencies(self) -> List[int]:
        """Every observer detection latency in the window, sorted."""
        return sorted(
            value for crash in self.crashes for value in crash.latencies
        )

    @property
    def completeness(self) -> Optional[float]:
        """Fraction of crashes every expected observer learned about."""
        if not self.crashes:
            return None
        complete = sum(1 for crash in self.crashes if crash.complete)
        return complete / len(self.crashes)

    @property
    def accuracy(self) -> Optional[float]:
        """Genuine removals over total removals; ``None`` without any."""
        if not self.removals:
            return None
        return (self.removals - len(self.mistakes)) / self.removals

    @property
    def mistake_rate(self) -> float:
        """``λ_M``: wrongful removals per observer-second."""
        if not self.observer_ticks:
            return 0.0
        seconds = self.observer_ticks / ms(1000)
        return len(self.mistakes) / seconds

    @property
    def mistake_durations(self) -> List[int]:
        """``T_M`` sample: each mistake's standing time, in ticks."""
        return sorted(
            mistake.duration(horizon)
            for mistake, horizon in zip(self.mistakes, self.mistake_horizons)
        )

    @property
    def query_accuracy(self) -> Optional[float]:
        """``P_A``: probability a random (observer, node, instant) query
        agrees with the ground truth."""
        if not self.total_ticks:
            return None
        return self.agreement_ticks / self.total_ticks

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data readout with deterministic content and key order."""
        durations = self.mistake_durations
        refuted = sum(1 for mistake in self.mistakes if mistake.refuted)
        return {
            "window_ms": {
                "start": _to_ms(self.start),
                "end": _to_ms(self.end),
                "duration": _to_ms(self.end - self.start),
            },
            "population": len(self.population),
            "observers": len(self.observers),
            "crashes": [crash.to_dict() for crash in self.crashes],
            "detection_ms": distribution_ms(self.detection_latencies),
            "completeness": _round(self.completeness),
            "accuracy": _round(self.accuracy),
            "removals": self.removals,
            "flaps": self.flaps,
            "mistakes": {
                "count": len(self.mistakes),
                "refuted": refuted,
                "rate_per_node_s": _round(self.mistake_rate),
                "duration_ms": distribution_ms(durations),
                "events": [
                    mistake.to_dict(horizon)
                    for mistake, horizon in zip(
                        self.mistakes, self.mistake_horizons
                    )
                ],
            },
            "query_accuracy": _round(self.query_accuracy),
            "per_segment": {
                str(segment): distribution_ms(latencies)
                for segment, latencies in sorted(
                    self.segment_latencies.items()
                )
            },
        }

    def to_json(self) -> str:
        """Byte-identical across same-seed runs: sorted keys, no floats
        beyond the fixed rounding in :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> Dict[str, object]:
        """Flat one-level projection of the headline figures.

        The compact embedding campaign checkpoints and ``repro compare``
        records carry — same values as :meth:`to_dict`, no nesting.
        """
        readout = self.to_dict()
        detection = readout["detection_ms"]
        mistakes = readout["mistakes"]
        return {
            "detection_p50_ms": detection["p50_ms"],
            "detection_p90_ms": detection["p90_ms"],
            "detection_p99_ms": detection["p99_ms"],
            "mistakes": mistakes["count"],
            "mistake_rate_per_node_s": mistakes["rate_per_node_s"],
            "mistake_duration_mean_ms": mistakes["duration_ms"]["mean_ms"],
            "flaps": readout["flaps"],
            "query_accuracy": readout["query_accuracy"],
            "completeness": readout["completeness"],
            "accuracy": readout["accuracy"],
        }


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


def compute_qos(
    trace: TraceRecorder,
    *,
    nodes: Sequence[int],
    start: int = 0,
    end: Optional[int] = None,
    crash_times: Optional[Dict[int, int]] = None,
    leave_times: Optional[Mapping[int, int]] = None,
    join_times: Optional[Mapping[int, int]] = None,
    segment_of: Optional[Mapping[int, int]] = None,
) -> QoSMetrics:
    """Compute the FD QoS figures for one run's observation window.

    Args:
        trace: the run's trace.
        nodes: the initial full members — the agreed view at ``start``
            (callers pass the bootstrapped membership and a ``start`` at
            or after convergence).
        start: window start, ticks. Views are assumed to agree on
            ``nodes`` here; membership changes before ``start`` are
            outside the window.
        end: window end, ticks; defaults to the last trace event.
        crash_times: node -> crash instant; read from the trace's
            ``node.crash`` records when omitted.
        leave_times: node -> scripted voluntary-leave instant (ground
            truth the trace cannot carry).
        join_times: node -> scripted late-join instant; the node becomes
            an *expected* member from that instant (its admission lag
            counts against ``P_A``, exactly like detection lag does).
        segment_of: node -> segment index, for per-segment detection
            aggregation on bridged topologies.

    Returns:
        The :class:`QoSMetrics` readout.
    """
    # Imported here: repro.analysis pulls in the CAN layer, whose modules
    # import the simulator kernel, which imports repro.obs — importing at
    # module scope would make ``import repro.obs`` circular.
    from repro.analysis.latency import (
        crash_notification_times,
        measured_crash_times,
    )

    if crash_times is None:
        crash_times = measured_crash_times(trace)
    leave_times = dict(leave_times or {})
    join_times = dict(join_times or {})

    initial = sorted(set(nodes))
    population = sorted(set(initial) | set(join_times))

    # One membership spell per node: [in_time, out_time).
    in_time: Dict[int, int] = {node: start for node in initial}
    in_time.update(join_times)
    out_time: Dict[int, int] = {}
    for node, when in crash_times.items():
        out_time[node] = min(out_time.get(node, when), when)
    for node, when in leave_times.items():
        out_time[node] = min(out_time.get(node, when), when)

    # Pull every in-window membership change once, grouped per observer.
    times, record_nodes, payloads = trace.category_columns("msh.change")
    if end is None:
        end = max(
            [start]
            + [times[-1]] * (1 if len(times) else 0)
            + list(crash_times.values())
        )
    changes: Dict[int, List[Tuple[int, frozenset]]] = {}
    for index in range(len(times)):
        time = times[index]
        if time <= start or time > end:
            continue
        observer = record_nodes[index]
        active = payloads[index]["active"]
        changes.setdefault(observer, []).append((time, frozenset(active)))

    observers = list(initial)
    horizon: Dict[int, int] = {
        node: min(end, out_time.get(node, end)) for node in observers
    }

    def expected_at(subject: int, time: int) -> bool:
        entered = in_time.get(subject)
        if entered is None or time < entered:
            return False
        exited = out_time.get(subject)
        return exited is None or time < exited

    # Ground-truth transition instants inside the window, for the P_A sweep.
    truth_events = sorted(
        {
            when
            for when in list(in_time.values()) + list(out_time.values())
            if start < when < end
        }
    )

    agreement_ticks = 0
    total_ticks = 0
    observer_ticks = 0
    removals = 0
    flaps = 0
    mistakes: List[Mistake] = []
    mistake_horizons: List[int] = []

    population_size = len(population)
    initial_view = frozenset(initial)

    for observer in observers:
        stop = horizon[observer]
        if stop <= start:
            continue
        observer_ticks += stop - start
        total_ticks += (stop - start) * population_size

        view_changes = changes.get(observer, [])
        # Merge view changes and truth transitions into one time-ordered
        # sweep; between events both the view and the truth are constant,
        # so the disagreement integral is exact integer arithmetic.
        view = initial_view
        truth = frozenset(
            node for node in population if expected_at(node, start)
        )
        previous = start
        wrong = len(view ^ truth)
        open_mistakes: Dict[int, Mistake] = {}
        removed_ever: set = set()
        events: List[Tuple[int, int, object]] = [
            (time, 0, None) for time in truth_events if time < stop
        ] + [
            (time, 1, new_view)
            for time, new_view in view_changes
            if time <= stop
        ]
        events.sort(key=lambda event: (event[0], event[1]))
        for time, kind, new_view in events:
            agreement_ticks += (time - previous) * (population_size - wrong)
            previous = time
            if kind == 0:
                truth = frozenset(
                    node for node in population if expected_at(node, time)
                )
            else:
                removed = view - new_view
                added = new_view - view
                for subject in sorted(removed):
                    removals += 1
                    removed_ever.add(subject)
                    if expected_at(subject, time) and subject not in (
                        open_mistakes
                    ):
                        open_mistakes[subject] = Mistake(
                            observer=observer,
                            subject=subject,
                            start=time,
                            end=None,
                        )
                for subject in sorted(added):
                    if subject in removed_ever:
                        flaps += 1
                    opened = open_mistakes.pop(subject, None)
                    if opened is not None:
                        mistakes.append(
                            Mistake(
                                observer=opened.observer,
                                subject=opened.subject,
                                start=opened.start,
                                end=time,
                            )
                        )
                        mistake_horizons.append(stop)
                view = new_view
            wrong = len(view ^ truth)
        agreement_ticks += (stop - previous) * (population_size - wrong)
        for subject in sorted(open_mistakes):
            opened = open_mistakes[subject]
            mistakes.append(opened)
            # An unrefuted mistake stops standing when the subject
            # genuinely exits, or at the observer's horizon.
            mistake_horizons.append(min(stop, out_time.get(subject, stop)))

    # Detection distributions, via the shared crash-event extraction.
    window_crashes = {
        node: when
        for node, when in crash_times.items()
        if start <= when <= end
    }
    notifications = crash_notification_times(trace, window_crashes)
    crashes: List[CrashDetection] = []
    segment_latencies: Dict[int, List[int]] = {}
    for node in sorted(window_crashes):
        crashed_at = window_crashes[node]
        # Completeness quantifies over *correct* observers: a node that
        # itself crashes or leaves before the window ends is not required
        # to have learned of anyone (it may have had no time to).
        expected = [
            observer
            for observer in observers
            if observer != node
            and horizon[observer] > crashed_at
            and out_time.get(observer, end) >= end
        ]
        latencies = []
        for observer in expected:
            notified_at = notifications.get(node, {}).get(observer)
            if notified_at is None or notified_at > horizon[observer]:
                continue
            latency = notified_at - crashed_at
            latencies.append(latency)
            if segment_of is not None:
                segment = segment_of.get(observer)
                if segment is not None:
                    segment_latencies.setdefault(segment, []).append(latency)
        crashes.append(
            CrashDetection(
                node=node,
                crash_time=crashed_at,
                expected=len(expected),
                latencies=tuple(sorted(latencies)),
            )
        )

    order = sorted(
        range(len(mistakes)),
        key=lambda i: (mistakes[i].start, mistakes[i].observer,
                       mistakes[i].subject),
    )
    return QoSMetrics(
        start=start,
        end=end,
        population=tuple(population),
        observers=tuple(observers),
        crashes=tuple(crashes),
        mistakes=tuple(mistakes[i] for i in order),
        removals=removals,
        flaps=flaps,
        agreement_ticks=agreement_ticks,
        total_ticks=total_ticks,
        observer_ticks=observer_ticks,
        mistake_horizons=tuple(mistake_horizons[i] for i in order),
        segment_latencies={
            segment: tuple(sorted(values))
            for segment, values in segment_latencies.items()
        },
    )


def network_qos(
    network,
    *,
    start: int = 0,
    crash_times: Optional[Dict[int, int]] = None,
    leave_times: Optional[Mapping[int, int]] = None,
    join_times: Optional[Mapping[int, int]] = None,
) -> QoSMetrics:
    """:func:`compute_qos` over a live network's trace and topology.

    ``nodes`` is the network's full population, the window ends *now*,
    and on bridged topologies the per-segment aggregation follows the
    network's segment map.
    """
    return compute_qos(
        network.sim.trace,
        nodes=sorted(network.nodes),
        start=start,
        end=network.sim.now,
        crash_times=crash_times,
        leave_times=leave_times,
        join_times=join_times,
        segment_of=getattr(network, "segment_map", None),
    )
