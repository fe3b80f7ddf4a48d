"""The QoS engine as it was before the crash ledger: the test oracle.

``compute_qos`` here is the one-spell engine: a node is in from the window
start (or its one join) until its first crash or leave, and each crash's
notifications are the first ``msh.change`` naming it at or after its
instant. ``repro.obs.qos.compute_qos`` reads the per-spell ledger
(``repro.obs.episodes``) instead; on any run where every node has at most
one spell both must give the same readout
(``tests/properties/test_qos_spell_properties.py``).
"""

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.qos import CrashDetection, Mistake, QoSMetrics
from repro.sim.trace import TraceRecorder


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
