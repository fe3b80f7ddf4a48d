"""One campaign scenario, end to end, inside one worker.

:func:`run_scenario` is the unit of work the engine fans out: derive the
scenario's private seed, build the randomized network, attach the online
invariant monitors, and script bootstrap, traffic and crashes under
stochastic bus faults through the
:class:`~repro.workloads.builder.ScenarioBuilder`, whose readouts
(latencies, QoS, final state) fill the
:class:`~repro.campaign.spec.ScenarioResult`. It never raises — every
failure mode maps to a verdict through :func:`judge`, the one verdict
ladder (shared with :func:`repro.check.runner.run_schedule`) — so the
engine only has to handle the process-level failures (hangs, killed
workers).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.spec import (
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_VIOLATION,
    CampaignSpec,
    ScenarioResult,
)
from repro.can.errormodel import FaultInjector
from repro.core.stack import CanelyNetwork
from repro.errors import ScenarioError
from repro.obs.monitors import InvariantViolation
from repro.sim.clock import ms
from repro.sim.rng import RngStreams
from repro.sim.trace import record_to_dict
from repro.workloads.builder import FinalState, ScenarioBuilder
from repro.workloads.traffic import PeriodicSource

#: Cap on how many trace records a violation slice carries back.
_SLICE_LIMIT = 120


@dataclass(frozen=True)
class Judgement:
    """What :func:`judge` made of one scripted run."""

    verdict: str
    #: The violated invariant (``final-state`` for the whole-run check).
    monitor: str = ""
    detail: str = ""
    violation_slice: List[Dict[str, Any]] = field(default_factory=list)
    #: The final-state readout, when the run got that far.
    final: Optional[FinalState] = None


def judge(script: Callable[[], ScenarioBuilder]) -> Judgement:
    """Run ``script`` and classify what happened — the one verdict ladder.

    A :class:`~repro.errors.ScenarioError` (bootstrap non-convergence) is
    ``bootstrap_failed``; an online :class:`InvariantViolation` is a
    ``violation`` carrying the monitor's name and at most
    :data:`_SLICE_LIMIT` offending trace records; a finished run is judged
    by the builder's :meth:`~ScenarioBuilder.final_state`; anything else
    is ``error`` with the traceback.
    """
    try:
        final = script().final_state()
    except ScenarioError as error:
        return Judgement(VERDICT_BOOTSTRAP_FAILED, detail=str(error))
    except InvariantViolation as violation:
        return Judgement(
            VERDICT_VIOLATION,
            monitor=violation.monitor,
            detail=str(violation),
            violation_slice=[
                record_to_dict(record)
                for record in violation.records[:_SLICE_LIMIT]
            ],
        )
    except Exception:
        return Judgement(VERDICT_ERROR, detail=traceback.format_exc())
    if final.ok:
        return Judgement(VERDICT_OK, final=final)
    return Judgement(
        VERDICT_VIOLATION, monitor="final-state", detail=final.detail, final=final
    )


def run_scenario(spec: CampaignSpec, index: int) -> ScenarioResult:
    """Run scenario ``index`` of ``spec`` and classify the outcome."""
    seed = spec.scenario_seed(index)
    started = time.perf_counter()
    result = ScenarioResult(index=index, seed=seed, verdict=VERDICT_ERROR)
    outcome = judge(lambda: _simulate(spec, result))
    result.verdict = outcome.verdict
    result.detail = (
        f"[{outcome.monitor}] {outcome.detail}"
        if outcome.monitor
        else outcome.detail
    )
    result.violation_slice = outcome.violation_slice
    if result.ok and result.missed:
        result.verdict = VERDICT_VIOLATION
        result.detail = f"{result.missed} crash(es) were never notified"
    result.elapsed_s = time.perf_counter() - started
    return result


def _simulate(spec: CampaignSpec, result: ScenarioResult) -> ScenarioBuilder:
    """Script the scenario; fill ``result`` with everything but the verdict."""
    streams = RngStreams(result.seed)
    topology = streams.stream("topology")
    node_count = topology.randint(spec.node_min, spec.node_max)
    crash_hi = max(spec.crash_min, min(spec.crash_max, node_count - 2))
    crash_count = topology.randint(spec.crash_min, crash_hi)
    result.nodes = node_count
    result.crashes = crash_count

    injector = FaultInjector(
        rng=streams.stream("faults"),
        consistent_probability=topology.uniform(
            0.0, spec.consistent_probability
        ),
        inconsistent_probability=topology.uniform(
            0.0, spec.inconsistent_probability
        ),
    )
    net = CanelyNetwork(
        node_count=node_count,
        config=spec.config(),
        injector=injector,
        backend=spec.backend,
        segments=spec.segments,
    )
    net.attach_monitors()
    try:
        scenario = net.scenario().bootstrap()

        # Background traffic on a random half of the nodes.
        traffic = streams.stream("traffic")
        for node_id in traffic.sample(range(node_count), node_count // 2):
            PeriodicSource(
                net.sim, net.node(node_id), period=ms(traffic.randint(4, 9))
            )

        for victim in topology.sample(range(node_count), crash_count):
            scenario.crash(
                victim,
                at=ms(topology.randint(0, int(spec.crash_window_ms))),
            )
        scenario.run_for(ms(spec.run_ms))
    finally:
        result.injected_omissions = injector.omissions_injected
        result.injected_inconsistent = injector.inconsistent_injected
        result.metrics = net.sim.metrics.snapshot()

    latencies = scenario.detection_latencies().values()
    result.latencies = sorted(v for v in latencies if v is not None)
    result.missed = sum(1 for v in latencies if v is None)
    result.qos = scenario.qos().summary()
    return scenario
