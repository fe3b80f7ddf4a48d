"""Workload generation: traffic sources and scenario scripting."""

from repro.workloads.builder import FrameMatch, ScenarioBuilder
from repro.workloads.traffic import PeriodicSource, SporadicSource, TrafficSet

__all__ = [
    "FrameMatch",
    "PeriodicSource",
    "ScenarioBuilder",
    "SporadicSource",
    "TrafficSet",
]
