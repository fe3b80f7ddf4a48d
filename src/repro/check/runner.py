"""Deterministic execution of one fault schedule, with online invariants.

:func:`run_schedule` turns a plain-data
:class:`~repro.check.schedule.FaultSchedule` into a simulator run: build
the network, attach the backend's online invariant monitors
(:mod:`repro.obs.monitors`), drive the scenario through the fluent
:class:`~repro.workloads.builder.ScenarioBuilder`, and let the shared
verdict ladder (:func:`repro.campaign.worker.judge`) classify it. A run
that finishes is judged by the builder's final-state readout, the
whole-run checks the monitors cannot see online:

* **agreement** — every surviving full member holds the same view;
* **validity** — that view is exactly the expected survivor set
  (:func:`~repro.workloads.builder.expected_survivors`): every
  crashed/left node removed (no missed detections), every joined node
  integrated (no lost joins), nobody else touched.

The simulation is fully deterministic, so the *fingerprint* — a SHA-256
over every trace record in order — identifies the complete behaviour:
``repro check --replay`` re-executes a schedule and compares fingerprints
to prove bit-for-bit reproduction.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from repro.campaign.spec import (
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_VIOLATION,
)
from repro.campaign.worker import judge
from repro.can.errormodel import FaultInjector
from repro.check.schedule import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_INCONSISTENT,
    Fault,
    FaultSchedule,
)
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import CheckError
from repro.sim.clock import ms
from repro.workloads.builder import (
    FrameMatch,
    ScenarioBuilder,
    expected_survivors,
)

#: Check verdicts: the run-level subset of the campaign verdicts.
CHECK_OK = VERDICT_OK
CHECK_BOOTSTRAP_FAILED = VERDICT_BOOTSTRAP_FAILED
CHECK_VIOLATION = VERDICT_VIOLATION
CHECK_ERROR = VERDICT_ERROR


@dataclass
class CheckResult:
    """The outcome of executing one fault schedule.

    ``fingerprint`` hashes the complete trace (every record, in order);
    two runs of the same schedule on the same code produce the same
    fingerprint — that is the replay contract. ``monitor`` names the
    violated invariant (``final-state`` for the whole-run checks).
    """

    schedule: FaultSchedule
    verdict: str = CHECK_ERROR
    monitor: str = ""
    detail: str = ""
    fingerprint: str = ""
    events: int = 0
    final_members: List[int] = field(default_factory=list)
    expected_members: List[int] = field(default_factory=list)
    violation_slice: List[Dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return self.verdict == CHECK_OK

    @property
    def violating(self) -> bool:
        """True when an invariant was violated (the minimizer's oracle)."""
        return self.verdict == CHECK_VIOLATION

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (artifacts, campaign results)."""
        return {
            "schedule": self.schedule.to_dict(),
            "verdict": self.verdict,
            "monitor": self.monitor,
            "detail": self.detail,
            "fingerprint": self.fingerprint,
            "events": self.events,
            "final_members": self.final_members,
            "expected_members": self.expected_members,
            "violation_slice": self.violation_slice,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CheckResult":
        """Rebuild a result from :meth:`to_dict` output."""
        data = dict(raw)
        data["schedule"] = FaultSchedule.from_dict(data["schedule"])
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def expected_members(schedule: FaultSchedule) -> Set[int]:
    """The survivor set the final agreed view must equal.

    :func:`~repro.workloads.builder.expected_survivors` over the schedule
    alone: timed actions fold in ``at_ms`` order; ``crash_sender``
    omissions count as a crash of the targeted sender. That is the
    prediction for a run where every sender-crash fault fires; a run is
    judged against the nodes actually found down instead
    (:meth:`~repro.workloads.builder.ScenarioBuilder.final_state`). On
    SWIM, which sends no ELS, CANELy-frame faults never fire and their
    senders stay in the view.
    """
    return expected_survivors(
        range(schedule.members),
        [
            (fault.at_ms, fault.action, fault.node)
            for fault in schedule.faults
            if fault.action != ACTION_OMIT
        ],
        doomed=[
            fault.node
            for fault in schedule.faults
            if fault.action == ACTION_OMIT and fault.crash_sender
        ],
    )


def _apply_fault(builder, fault: Fault) -> None:
    """Translate one plain-data fault into builder calls."""
    if fault.action == ACTION_CRASH:
        builder.crash(fault.node, at=ms(fault.at_ms))
    elif fault.action == ACTION_JOIN:
        builder.join(fault.node, at=ms(fault.at_ms))
    elif fault.action == ACTION_LEAVE:
        builder.leave(fault.node, at=ms(fault.at_ms))
    elif fault.action == ACTION_OMIT:
        builder.omit(
            frame=FrameMatch(
                mtype=fault.frame_type,
                node=fault.node if fault.node >= 0 else None,
                nth=fault.nth,
            ),
            inconsistent=fault.omission == OMISSION_INCONSISTENT,
            accepting=fault.accepting,
            crash_sender=fault.crash_sender,
        )
    else:  # pragma: no cover - schedule validation rejects these
        raise CheckError(f"unknown fault action {fault.action!r}")


def trace_fingerprint(net: CanelyNetwork) -> str:
    """SHA-256 over every row's sorted-key JSON text, in order: the replay identity."""
    digest = hashlib.sha256()
    for rows in net.sim.trace.encode_rows(sort_keys=True):
        digest.update("".join(rows).encode())
    return digest.hexdigest()


def run_schedule(
    schedule: FaultSchedule,
    backend: str = "canely",
    segments: int = 1,
) -> CheckResult:
    """Execute ``schedule`` deterministically and check every invariant.

    Never raises for protocol-level failures — bootstrap non-convergence,
    online invariant violations and final-state disagreements all map to
    verdicts; only genuinely unexpected exceptions surface as the
    ``error`` verdict with the traceback in ``detail``.

    ``backend`` and ``segments`` select the membership stack and bus
    topology the schedule executes on. They are runtime parameters, not
    part of the schedule — the same schedule can be checked against rival
    backends — so they do not enter ``schedule_key`` fingerprints. The
    run is judged online by the backend's own monitors
    (:meth:`~repro.core.stack.MembershipNode.monitors`).
    """
    started = time.perf_counter()
    result = CheckResult(schedule=schedule)
    config = CanelyConfig(
        capacity=schedule.capacity,
        tm=ms(schedule.tm_ms),
        thb=ms(schedule.thb_ms),
        tjoin_wait=ms(schedule.tjoin_wait_ms),
    )
    net = CanelyNetwork(
        node_count=schedule.nodes,
        config=config,
        injector=FaultInjector(),
        backend=backend,
        segments=segments,
    )
    net.attach_monitors()

    def script() -> ScenarioBuilder:
        builder = net.scenario(seed=schedule.seed)
        builder.bootstrap(nodes=range(schedule.members))
        for fault in schedule.faults:
            _apply_fault(builder, fault)
        return builder.run_for(ms(schedule.run_ms))

    outcome = judge(script)
    result.verdict = outcome.verdict
    result.monitor = outcome.monitor
    result.detail = outcome.detail
    result.violation_slice = outcome.violation_slice
    if outcome.final is not None:
        result.final_members = outcome.final.members
        result.expected_members = outcome.final.expected
    result.fingerprint = trace_fingerprint(net)
    result.events = net.sim.events_processed
    result.elapsed_s = time.perf_counter() - started
    return result
