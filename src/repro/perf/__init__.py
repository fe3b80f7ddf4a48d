"""The seed-faithful reference core the golden-trace tests compare against."""

from repro.perf.legacy import LegacyEvent, LegacyEventQueue, legacy_core

__all__ = [
    "LegacyEvent",
    "LegacyEventQueue",
    "legacy_core",
]
