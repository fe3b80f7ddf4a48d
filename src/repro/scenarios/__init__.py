"""Named scenario catalog: fault-and-load recipes as plain data.

:data:`~repro.scenarios.recipes.CATALOG` maps every name to a recipe — a
pure function ``(backend, seed, quick) -> (Scenario, detail)`` returning a
plain-data :class:`~repro.workloads.scenario.Scenario` — and
:func:`~repro.scenarios.runner.run_catalog` plays them against one or
more backends into a :class:`QoSReport`, as the ``repro qos`` CLI does.
The built-in catalog covers the paper's fault menagerie: babbling idiot
(Fig. 11's admitted limitation), bus-off storms, error-passive flapping,
inaccessibility bursts, join/leave churn, bus-load sweeps, gateway
partition stress, and a quiet baseline.
"""

from repro.scenarios.recipes import CATALOG, scenario_names
from repro.scenarios.runner import QoSReport, ScenarioOutcome, run_catalog

__all__ = [
    "CATALOG",
    "QoSReport",
    "ScenarioOutcome",
    "run_catalog",
    "scenario_names",
]
