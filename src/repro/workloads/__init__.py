"""Workload generation: traffic sources, scenario scripting and the one
plain-data :class:`Scenario` with its interpreter: :func:`run` judges a
run, :func:`play` only executes it."""

from repro.workloads.builder import FrameMatch, ScenarioBuilder
from repro.workloads.scenario import Action, Result, Scenario, load_script, play, run
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
    "play",
    "run",
]
