"""Workload generation: traffic sources, scenario scripting and the one
plain-data :class:`Scenario` with its interpreter :func:`run`."""

from repro.workloads.builder import FrameMatch, ScenarioBuilder
from repro.workloads.scenario import Action, Result, Scenario, load_script, run
from repro.workloads.traffic import PeriodicSource, SporadicSource, TrafficSet

__all__ = [
    "Action",
    "FrameMatch",
    "PeriodicSource",
    "Result",
    "Scenario",
    "ScenarioBuilder",
    "SporadicSource",
    "TrafficSet",
    "load_script",
    "run",
]
