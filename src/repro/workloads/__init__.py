"""Workload generation: traffic sources and scenario scripting."""

from repro.workloads.builder import FrameMatch, ScenarioBuilder
from repro.workloads.scenarios import (
    detection_latencies,
    first_change_with_failed,
)
from repro.workloads.traffic import PeriodicSource, SporadicSource, TrafficSet

__all__ = [
    "FrameMatch",
    "PeriodicSource",
    "ScenarioBuilder",
    "SporadicSource",
    "TrafficSet",
    "detection_latencies",
    "first_change_with_failed",
]
