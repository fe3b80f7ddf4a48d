"""One campaign scenario, end to end, inside one worker.

:func:`run_scenario` is the campaign's fold, the unit of work the engine
fans out: execute one drawn scenario (``spec[i]``,
:class:`~repro.campaign.spec.CampaignSpec`) with
:func:`repro.workloads.scenario.run`, and fold the readouts the campaign
reports — detection latencies, QoS, injected omissions, the metrics
snapshot — into a :class:`~repro.campaign.spec.ScenarioResult`. A run
never raises for what the simulated network does, so the engine only has
to handle the process-level failures (hangs, killed workers).
"""

from __future__ import annotations

from repro.campaign.spec import VERDICT_VIOLATION, ScenarioResult
from repro.workloads.scenario import Scenario, run


def run_scenario(scenario: Scenario, index: int) -> ScenarioResult:
    """Run ``scenario``, the population's ``index``-th, and classify the
    outcome."""
    outcome = run(scenario)
    net = outcome.network
    result = ScenarioResult(
        index=index,
        seed=scenario.seed,
        verdict=outcome.verdict,
        nodes=scenario.nodes,
        crashes=len(scenario.actions),
        injected_omissions=net.bus.injector.omissions_injected,
        injected_inconsistent=net.bus.injector.inconsistent_injected,
        metrics=net.sim.metrics.snapshot(),
        detail=f"[{outcome.monitor}] {outcome.detail}"
        if outcome.monitor
        else outcome.detail,
        violation_slice=outcome.violation_slice,
        elapsed_s=outcome.elapsed_s,
    )
    if outcome.final is not None:
        # The run finished: its latencies and QoS are worth reading.
        latencies = sum(outcome.builder.detection_latencies().values(), [])
        result.latencies = sorted(v for v in latencies if v is not None)
        result.missed = len(latencies) - len(result.latencies)
        result.qos = outcome.builder.qos().summary()
    if result.ok and result.missed:
        result.verdict = VERDICT_VIOLATION
        result.detail = f"{result.missed} crash(es) were never notified"
    return result
