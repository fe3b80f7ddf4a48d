"""CANELy — node failure detection and site membership for CAN.

A full reproduction of *"Node Failure Detection and Membership in CANELy"*
(Rufino, Veríssimo, Arroz — DSN 2003): a discrete-event CAN fieldbus
simulator with the paper's fault model (including inconsistent omissions),
the CAN standard layer of Fig. 4, the FDA/RHA micro-protocols and the
failure-detection and site-membership protocols of Figs. 6-9, the companion
reliable-broadcast and clock-synchronization services, the related-work
baselines (CAL node guarding, OSEK NM), and the analytical models behind
the paper's evaluation figures.

Quickstart::

    from repro import CanelyNetwork
    from repro.sim import ms

    net = CanelyNetwork(node_count=8)
    net.scenario().bootstrap().crash(3, at=ms(50)).run_until_settled()
    print(sorted(net.agreed_view()))     # node 3 consistently removed

The package front door re-exports every stable entry point — the core
stack eagerly, the tooling subsystems (scenario builder, campaigns,
systematic checking, observability) lazily via module
``__getattr__`` (PEP 562), so ``import repro`` stays light::

    from repro import ScenarioBuilder, CheckSweep, explore, run_campaign
"""

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork, CanelyNode, MembershipNode
from repro.core.views import MembershipChange, MembershipView
from repro.util.sets import NodeSet

__version__ = "14.0.2"

#: Lazily re-exported name -> home module (PEP 562). Importing ``repro``
#: must not drag in multiprocessing (campaign) or the checker; attribute
#: access resolves them on first use.
_LAZY_EXPORTS = {
    # membership backends (repro.core.backend, repro.swim) and the
    # multi-segment gateway (repro.can.gateway)
    "backend_names": "repro.core.backend",
    "register_backend": "repro.core.backend",
    "resolve_backend": "repro.core.backend",
    "SwimConfig": "repro.swim",
    "SwimNode": "repro.swim",
    "CanGateway": "repro.can.gateway",
    # head-to-head backend QoS (repro.analysis.comparison)
    "BackendQoS": "repro.analysis.comparison",
    "compare_backends": "repro.analysis.comparison",
    "probe_backend": "repro.analysis.comparison",
    # scenarios (repro.workloads) — one plain-data scenario, one
    # interpreter (judged or not), and the fluent scripting API beneath them
    "Action": "repro.workloads",
    "FrameMatch": "repro.workloads",
    "Result": "repro.workloads",
    "Scenario": "repro.workloads",
    "ScenarioBuilder": "repro.workloads",
    "load_script": "repro.workloads",
    "play": "repro.workloads",
    "run": "repro.workloads",
    # campaigns (repro.campaign)
    "CampaignReport": "repro.campaign",
    "CampaignSpec": "repro.campaign",
    "CheckpointStore": "repro.campaign",
    "FingerprintStore": "repro.campaign",
    "ScenarioResult": "repro.campaign",
    "default_workers": "repro.campaign",
    "load_checkpoint": "repro.campaign",
    "run_campaign": "repro.campaign",
    "schedule_key": "repro.campaign",
    # systematic checking (repro.check)
    "CheckSweep": "repro.check",
    "CoverageReport": "repro.check",
    "ScheduleSpace": "repro.check",
    "enumerate_schedules": "repro.check",
    "explore": "repro.check",
    "explore_coverage": "repro.check",
    "minimize_schedule": "repro.check",
    "mutate_schedule": "repro.check",
    "replay_artifact": "repro.check",
    "run_selftest": "repro.check",
    "sample_schedules": "repro.check",
    "write_artifact": "repro.check",
    # observability (repro.obs)
    "CrashDetection": "repro.obs",
    "CriticalPath": "repro.obs",
    "DetectionLatencyMonitor": "repro.obs",
    "DuplicateFailureSignMonitor": "repro.obs",
    "InvariantMonitor": "repro.obs",
    "InvariantViolation": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "Mistake": "repro.obs",
    "PhantomRemovalMonitor": "repro.obs",
    "QoSMetrics": "repro.obs",
    "Span": "repro.obs",
    "SpanTracer": "repro.obs",
    "ViewAgreementMonitor": "repro.obs",
    "compute_qos": "repro.obs",
    "detection_path": "repro.obs",
    "export_chrome_trace": "repro.obs",
    "network_qos": "repro.obs",
    "notification_path": "repro.obs",
    "render_msc": "repro.obs",
    "render_span_tree": "repro.obs",
    "standard_monitors": "repro.obs",
    "validate_chrome_trace": "repro.obs",
    "view_update_path": "repro.obs",
    # named scenario catalog + QoS reports (repro.scenarios)
    "QoSReport": "repro.scenarios",
    "ScenarioOutcome": "repro.scenarios",
    "run_catalog": "repro.scenarios",
    "scenario_names": "repro.scenarios",
}

__all__ = [
    "CanelyConfig",
    "CanelyNetwork",
    "CanelyNode",
    "MembershipChange",
    "MembershipNode",
    "MembershipView",
    "NodeSet",
    "__version__",
] + sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """Resolve the lazy re-exports on first attribute access (PEP 562)."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    """Make the lazy names discoverable by ``dir(repro)`` and tooling."""
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
