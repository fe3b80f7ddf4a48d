"""Failure-detector QoS metrics computed from recorded traces.

The paper argues CANELy's failure detector in terms of *bounded detection
time* and *membership consistency*; the related work (Duarte's
unreliable-FD diagnosis model, Sens' partial-connectivity detectors, and
the Chen/Toueg/Aguilera QoS framework they build on) frames detector
quality as a small set of measurable figures. This module computes those
figures from a finished run's trace — one replay of its crash, recover
and membership-change rows — so every backend comparison in the repo can
quote them:

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

Ground truth is per *spell* (:mod:`repro.obs.episodes`): the trace's
``node.crash`` records (or an explicit ``crash_times`` map) plus the
scripted ``leave_times`` / ``join_times`` the caller passes (the trace has
no join/leave category — intent lives in the scenario script). Initial
members are in from the outset; a node that is out enters at a join; a
crash or leave puts it out. So a node that crashes, is rebooted and
rejoins is expected during each of its spells, and each of its crashes
gets its own detection record. Observers are the initial members, each
until its first exit.

Everything serializes deterministically: :meth:`QoSMetrics.to_dict`
emits plain data with stable key order and :meth:`QoSMetrics.to_json`
uses sorted keys, so same-seed runs produce byte-identical reports (the
contract the CI smoke job enforces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.episodes import Episodes, Intent
from repro.sim.clock import ms
from repro.sim.trace import TraceRecorder
from repro.util.tables import to_json

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
        return to_json(self.to_dict())

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
    crash_times: Intent = None,
    leave_times: Intent = None,
    join_times: Intent = None,
    segment_of: Optional[Mapping[int, int]] = None,
) -> QoSMetrics:
    """Compute the FD QoS figures for one run's observation window.

    Args:
        trace: the run's trace.
        nodes: the initial full members — the agreed view at ``start``
            (callers pass the bootstrapped membership and a ``start`` at
            or after convergence). They are the observers.
        start: window start, ticks. Views are assumed to agree on
            ``nodes`` here; membership changes before ``start`` are
            outside the window.
        end: window end, ticks; defaults to the last trace event.
        crash_times: node -> crash instant (or instants, in order); read
            from the trace's ``node.crash`` records when omitted.
        leave_times: node -> scripted voluntary-leave instant(s) (ground
            truth the trace cannot carry).
        join_times: node -> scripted join instant(s); a node that is out
            becomes an *expected* member from its join (its admission lag
            counts against ``P_A``, exactly like detection lag does).
        segment_of: node -> segment index, for per-segment detection
            aggregation on bridged topologies.

    Returns:
        The :class:`QoSMetrics` readout.
    """
    initial = sorted(set(nodes))
    # One replay builds the ledger and each observer's view changes.
    changes: Dict[int, List[Tuple[int, int, frozenset]]] = {}

    def view_change(time, category, node, data) -> None:
        if category == "msh.change" and time > start:
            changes.setdefault(node, []).append(
                (time, 1, frozenset(data["active"]))
            )

    episodes = Episodes.of(
        trace, view_change, members=initial, joins=join_times,
        leaves=leave_times, crashes=crash_times,
    )
    if end is None:
        end = max(start, trace.last_time)

    spells = episodes.spells()
    population = sorted(spells)

    def spell_at(subject: int, time: int) -> Optional[List[Optional[int]]]:
        """The subject's spell covering ``time``: it is expected then."""
        for spell in spells.get(subject, ()):
            if (spell[0] is None or spell[0] <= time) and (
                spell[1] is None or time < spell[1]
            ):
                return spell
        return None

    def truth_at(time: int) -> frozenset:
        return frozenset(node for node in population if spell_at(node, time))

    # The observers are the initial members, each until its first exit.
    horizon = {
        node: end if spells[node][0][1] is None else min(end, spells[node][0][1])
        for node in initial
    }
    # The ground truth at the window start and after each transition in it.
    first_truth = truth_at(start)
    truths = [
        (when, 0, truth_at(when))
        for when in sorted(
            {
                when
                for node_spells in spells.values()
                for spell in node_spells
                for when in spell
                if when is not None and start < when < end
            }
        )
    ]

    agreement_ticks = total_ticks = observer_ticks = removals = flaps = 0
    found: List[Tuple[Mistake, int]] = []  # each mistake and its horizon
    size = len(population)
    for observer in initial:
        stop = horizon[observer]
        if stop <= start:
            continue
        observer_ticks += stop - start
        total_ticks += (stop - start) * size
        # Merge view changes and truth transitions into one time-ordered
        # sweep; between events both the view and the truth are constant,
        # so the disagreement integral is exact integer arithmetic.
        events = [truth for truth in truths if truth[0] < stop] + [
            change for change in changes.get(observer, ()) if change[0] <= stop
        ]
        events.sort(key=lambda event: event[:2])
        view = frozenset(initial)
        truth = first_truth
        previous = start
        wrong = len(view ^ truth)
        open_mistakes: Dict[int, Mistake] = {}
        removed_ever: set = set()
        for time, kind, new_view in events:
            agreement_ticks += (time - previous) * (size - wrong)
            previous = time
            if kind == 0:
                truth = new_view
            else:
                for subject in sorted(view - new_view):
                    removals += 1
                    removed_ever.add(subject)
                    if spell_at(subject, time) and subject not in open_mistakes:
                        open_mistakes[subject] = Mistake(observer, subject, time, None)
                for subject in sorted(new_view - view):
                    flaps += subject in removed_ever
                    opened = open_mistakes.pop(subject, None)
                    if opened is not None:
                        refuted = Mistake(observer, subject, opened.start, time)
                        found.append((refuted, stop))
                view = new_view
            wrong = len(view ^ truth)
        agreement_ticks += (stop - previous) * (size - wrong)
        for subject in sorted(open_mistakes):
            opened = open_mistakes[subject]
            # An unrefuted mistake stops standing when the subject's spell
            # genuinely ends, or at the observer's horizon.
            exited = spell_at(subject, opened.start)[1]
            found.append((opened, stop if exited is None else min(stop, exited)))

    # One detection record per crash in the window. Completeness quantifies
    # over *correct* observers: one that itself crashes or leaves before
    # the window ends need not have learned of anyone.
    correct = [observer for observer in initial if horizon[observer] == end]
    crashes: List[CrashDetection] = []
    segment_latencies: Dict[int, List[int]] = {}
    in_window = [
        crash
        for node in sorted(episodes.crashes)
        for crash in episodes.crashes[node]
        if start <= crash.time <= end
    ]
    for crash in in_window:
        expected = [o for o in correct if o != crash.node and crash.time < end]
        latencies = []
        for observer in expected:
            notified_at = crash.notified.get(observer)
            if notified_at is None or notified_at > end:
                continue
            latencies.append(notified_at - crash.time)
            if segment_of is not None and observer in segment_of:
                segment_latencies.setdefault(segment_of[observer], []).append(
                    latencies[-1]
                )
        crashes.append(CrashDetection(
            crash.node, crash.time, len(expected), tuple(sorted(latencies))
        ))

    found.sort(key=lambda pair: (pair[0].start, pair[0].observer, pair[0].subject))
    return QoSMetrics(
        start=start,
        end=end,
        population=tuple(population),
        observers=tuple(initial),
        crashes=tuple(crashes),
        mistakes=tuple(mistake for mistake, _ in found),
        removals=removals,
        flaps=flaps,
        agreement_ticks=agreement_ticks,
        total_ticks=total_ticks,
        observer_ticks=observer_ticks,
        mistake_horizons=tuple(horizon for _, horizon in found),
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
