"""Network fault injection.

The system model (paper Section 4) constrains network components to be
*weak-fail-silent* with bounded omission degree: in a reference interval at
most ``k`` transmissions suffer omissions (MCAN3) of which at most ``j`` are
*inconsistent* (LCAN4) — the last-two-bits scenario where a subset of the
recipients accepts the frame while the remaining nodes (and the sender) see
an error. The :class:`FaultInjector` produces exactly these failure modes,
either scripted (deterministic schedules keyed on the global transmission
index or on frame predicates) or stochastic (seeded per-transmission draws),
and it enforces/reports the k and j bounds so tests can assert the model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.can.frame import CanFrame
from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """Outcome classes for one physical frame transmission."""

    #: Error-free transmission: every correct node accepts the frame.
    NONE = "none"
    #: Error detected by all nodes: nobody accepts, sender retransmits.
    CONSISTENT_OMISSION = "consistent"
    #: Fault in the last two bits at a subset of nodes: the subset accepts
    #: the frame, everyone else (sender included) sees an error and the
    #: sender retransmits — producing duplicates at the subset, or an
    #: inconsistent omission if the sender crashes first.
    INCONSISTENT_OMISSION = "inconsistent"


@dataclass(frozen=True)
class FaultVerdict:
    """Verdict for one transmission attempt.

    Attributes:
        kind: the outcome class.
        accepting: node ids that accept the frame despite the fault (only
            meaningful for inconsistent omissions).
        crash_sender: when True the bus crashes the sending node(s)
            immediately after this attempt, *before* the automatic
            retransmission — the paper's "sender fails before retransmission"
            inconsistent-omission scenario.
    """

    kind: FaultKind
    accepting: FrozenSet[int] = frozenset()
    crash_sender: bool = False


OK_VERDICT = FaultVerdict(FaultKind.NONE)

FramePredicate = Callable[[CanFrame], bool]


@dataclass
class _ScheduledFault:
    verdict: FaultVerdict
    tx_index: Optional[int] = None
    predicate: Optional[FramePredicate] = None
    remaining: int = 1

    def matches(self, frame: CanFrame, tx_index: int) -> bool:
        if self.remaining <= 0:
            return False
        if self.tx_index is not None and self.tx_index != tx_index:
            return False
        if self.predicate is not None and not self.predicate(frame):
            return False
        return self.tx_index is not None or self.predicate is not None


class FaultInjector:
    """Produces fault verdicts for bus transmissions.

    Faults come from two sources, checked in order:

    1. **Scripted faults** registered with :meth:`fault_on_transmission` or
       :meth:`fault_on_frame` — deterministic, used by unit/integration
       tests and failure-injection benchmarks.
    2. **Stochastic faults** drawn from a seeded RNG with configured
       per-transmission probabilities — used by soak tests and benchmarks.

    The injector also tracks how many omissions (total and inconsistent)
    it has produced, so tests can assert the MCAN3/LCAN4 degree bounds.
    """

    def __init__(
        self,
        rng=None,
        consistent_probability: float = 0.0,
        inconsistent_probability: float = 0.0,
        omission_degree: Optional[int] = None,
        inconsistent_degree: Optional[int] = None,
    ) -> None:
        if consistent_probability < 0 or inconsistent_probability < 0:
            raise ConfigurationError("fault probabilities must be non-negative")
        if consistent_probability + inconsistent_probability > 1:
            raise ConfigurationError("fault probabilities must sum to at most 1")
        if (consistent_probability or inconsistent_probability) and rng is None:
            raise ConfigurationError("stochastic faults require an rng")
        self._rng = rng
        self._p_consistent = consistent_probability
        self._p_inconsistent = inconsistent_probability
        self._omission_degree = omission_degree
        self._inconsistent_degree = inconsistent_degree
        self._scheduled: List[_ScheduledFault] = []
        self.omissions_injected = 0
        self.inconsistent_injected = 0

    # -- scripting ------------------------------------------------------------

    def fault_on_transmission(
        self,
        tx_index: int,
        kind: FaultKind,
        accepting: Sequence[int] = (),
        crash_sender: bool = False,
    ) -> None:
        """Schedule a fault on the ``tx_index``-th physical transmission."""
        self._scheduled.append(
            _ScheduledFault(
                verdict=FaultVerdict(kind, frozenset(accepting), crash_sender),
                tx_index=tx_index,
            )
        )

    def fault_on_frame(
        self,
        predicate: FramePredicate,
        kind: FaultKind,
        accepting: Sequence[int] = (),
        crash_sender: bool = False,
        count: int = 1,
    ) -> None:
        """Schedule a fault on the next ``count`` frames matching ``predicate``."""
        self._scheduled.append(
            _ScheduledFault(
                verdict=FaultVerdict(kind, frozenset(accepting), crash_sender),
                predicate=predicate,
                remaining=count,
            )
        )

    def configure_stochastic(self, consistent_probability: float) -> None:
        """Re-arm the stochastic consistent-omission rate mid-run: a storm
        (:class:`~repro.workloads.scenario.Action` ``storm``) raises it for
        an interval and restores it after. Validation matches the
        constructor; counters and scripted faults are untouched."""
        if consistent_probability < 0:
            raise ConfigurationError("fault probabilities must be non-negative")
        if consistent_probability + self._p_inconsistent > 1:
            raise ConfigurationError("fault probabilities must sum to at most 1")
        if consistent_probability and self._rng is None:
            raise ConfigurationError("stochastic faults require an rng")
        self._p_consistent = consistent_probability

    # -- verdict --------------------------------------------------------------

    @property
    def armed(self) -> bool:
        """True while any fault could still be injected.

        The completion hot path consults this before assembling the
        receiver list a verdict would need — on a fault-free bus (the
        common case outside fault campaigns) the whole verdict machinery
        is skipped per frame.
        """
        if self._scheduled:
            return True
        return self._rng is not None and bool(
            self._p_consistent or self._p_inconsistent
        )

    def verdict(
        self,
        frame: CanFrame,
        senders: Sequence[int],
        receivers: Sequence[int],
        tx_index: int,
    ) -> FaultVerdict:
        """Decide the outcome of one physical transmission attempt."""
        for position, fault in enumerate(self._scheduled):
            if fault.matches(frame, tx_index):
                fault.remaining -= 1
                if fault.remaining <= 0:
                    # Evict spent entries so long campaigns do not re-scan
                    # every exhausted fault on each transmission.
                    del self._scheduled[position]
                return self._account(fault.verdict)
        if self._rng is not None and (self._p_consistent or self._p_inconsistent):
            draw = self._rng.random()
            if draw < self._p_inconsistent:
                others = [node for node in receivers if node not in senders]
                if others:
                    size = self._rng.randint(1, len(others))
                    subset = frozenset(self._rng.sample(others, size))
                    return self._account(
                        FaultVerdict(FaultKind.INCONSISTENT_OMISSION, subset)
                    )
                # No receiver other than the sender(s) can accept the frame,
                # so the draw degrades to a consistent omission: everyone
                # sees the error. Returning OK here would silently inject
                # below the configured fault rate.
                return self._account(FaultVerdict(FaultKind.CONSISTENT_OMISSION))
            elif draw < self._p_inconsistent + self._p_consistent:
                return self._account(FaultVerdict(FaultKind.CONSISTENT_OMISSION))
        return OK_VERDICT

    def _account(self, verdict: FaultVerdict) -> FaultVerdict:
        if verdict.kind is FaultKind.NONE:
            return verdict
        self.omissions_injected += 1
        if verdict.kind is FaultKind.INCONSISTENT_OMISSION:
            self.inconsistent_injected += 1
        if (
            self._omission_degree is not None
            and self.omissions_injected > self._omission_degree
        ):
            raise ConfigurationError(
                f"fault schedule exceeds the omission degree bound "
                f"k={self._omission_degree} (MCAN3)"
            )
        if (
            self._inconsistent_degree is not None
            and self.inconsistent_injected > self._inconsistent_degree
        ):
            raise ConfigurationError(
                f"fault schedule exceeds the inconsistent omission degree "
                f"bound j={self._inconsistent_degree} (LCAN4)"
            )
        return verdict
