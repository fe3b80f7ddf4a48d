"""The per-pair reference: what the surveillance table has to be equivalent to.

``TimerService.watcher`` gives a node its handle on the simulation's one
``SurveillanceTable``, which keeps "observer *i* watches subject *s* until
*t*" once per group of observers that share a deadline. The oracle the
table is checked against is surveillance the way the protocols' pseudocode
describes it, and the way SWIM kept its ``fail_after`` clocks until they
moved onto the table: one private alarm per (observer, subject), started,
cancelled and restarted by ``start_alarm`` / ``cancel_alarm``, named and
tagged as ``SwimProtocol._arm_fail`` passed them. It lives here, not beside
the table — one implementation runs, the other judges it.
"""

from contextlib import contextmanager

from repro.sim.timers import SurveillanceTable, TimerService


class PerPairWatcher:
    """``repro.sim.timers.Watcher``, one private alarm per subject."""

    def __init__(self, timers, on_expire, name):
        self._timers = timers
        self._on_expire = on_expire
        self._name = name
        self._durations = {}
        self._alarms = {}

    @property
    def table(self):
        return SurveillanceTable.of(self._timers.sim)

    def watch(self, subject, duration):
        self._durations[subject] = duration
        self._start(subject)

    def heard(self, subject):
        if subject in self._durations:
            self._start(subject)

    def _start(self, subject):
        # Cancel-and-start, the pseudocode's idiom (``restart_alarm`` in
        # place is bit-identical to it: one sequence number either way).
        self._timers.cancel_alarm(self._alarms.get(subject))
        self._alarms[subject] = self._timers.start_alarm(
            self._durations[subject],
            lambda: self._on_expire(subject),
            name=self._name,
            tag=subject,
        )

    def unwatch(self, subject):
        if self._durations.pop(subject, None) is not None:
            self._timers.cancel_alarm(self._alarms.pop(subject))

    def clear(self):
        for subject in list(self._durations):
            self.unwatch(subject)

    def watching(self, subject):
        return subject in self._durations

    @property
    def subjects(self):
        return list(self._durations)

    def deadline(self, subject):
        alarm = self._alarms.get(subject)
        if alarm is None or not self._timers.is_pending(alarm):
            return None
        return alarm.deadline

    def fence(self, deadline):
        """Private alarms are sequenced one by one: nothing to close."""


def _heard_by_each(table, mid, listeners):
    """``SurveillanceTable.heard`` by its contract, without a memo."""
    for listener in listeners:
        listener(mid)


@contextmanager
def per_pair_surveillance():
    """Every watcher made inside the block keeps private alarms, and the
    table's collective form is its definition (each listener in turn)."""
    watcher, heard = TimerService.watcher, SurveillanceTable.heard
    TimerService.watcher = (
        lambda self, on_expire, name="timer": PerPairWatcher(self, on_expire, name)
    )
    SurveillanceTable.heard = _heard_by_each
    try:
        yield
    finally:
        TimerService.watcher, SurveillanceTable.heard = watcher, heard
