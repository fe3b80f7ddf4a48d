"""Run catalog recipes and fold their QoS readouts into one report.

:func:`run_recipe` executes one named recipe against one backend and
returns its :class:`ScenarioOutcome` (the QoS readout plus recipe
detail); :func:`run_catalog` sweeps scenarios x backends into a
:class:`QoSReport`, the cross-backend quality comparison the ``repro
qos`` CLI renders and the CI smoke job byte-compares across double runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.qos import QoSMetrics
from repro.scenarios.catalog import resolve_recipe, scenario_names
from repro.util.tables import render_table


@dataclass
class ScenarioOutcome:
    """One (scenario, backend) cell of a QoS report."""

    scenario: str
    backend: str
    seed: int
    quick: bool
    qos: QoSMetrics
    detail: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "seed": self.seed,
            "quick": self.quick,
            "detail": dict(sorted(self.detail.items())),
            "qos": self.qos.to_dict(),
        }


def run_recipe(
    name: str,
    backend: str = "canely",
    seed: int = 0,
    quick: bool = False,
) -> ScenarioOutcome:
    """Execute one catalog recipe and compute its QoS readout."""
    entry = resolve_recipe(name)
    run = entry.build(backend=backend, seed=seed, quick=quick)
    return ScenarioOutcome(
        scenario=name,
        backend=run.scenario.network.backend_name,
        seed=seed,
        quick=quick,
        qos=run.scenario.qos(),
        detail=dict(run.detail),
    )


@dataclass
class QoSReport:
    """A scenarios x backends QoS comparison."""

    seed: int
    quick: bool
    scenarios: List[str]
    backends: List[str]
    outcomes: List[ScenarioOutcome]

    def outcome(self, scenario: str, backend: str) -> Optional[ScenarioOutcome]:
        """The cell for (scenario, backend); ``None`` when absent."""
        for outcome in self.outcomes:
            if outcome.scenario == scenario and outcome.backend == backend:
                return outcome
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "quick": self.quick,
            "scenarios": list(self.scenarios),
            "backends": list(self.backends),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def to_json(self) -> str:
        """Deterministic document: sorted keys over already-ordered data,
        byte-identical across same-seed runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def rows(self) -> List[List[str]]:
        """Comparison rows, one per (scenario, backend) cell."""

        def fmt(value, pattern: str = "{:.2f}") -> str:
            return "-" if value is None else pattern.format(value)

        rows = []
        for outcome in self.outcomes:
            readout = outcome.qos.to_dict()
            detection = readout["detection_ms"]
            mistakes = readout["mistakes"]
            rows.append([
                outcome.scenario,
                outcome.backend,
                fmt(detection["p50_ms"]),
                fmt(detection["p99_ms"]),
                str(mistakes["count"]),
                fmt(mistakes["rate_per_node_s"], "{:.3f}"),
                fmt(mistakes["duration_ms"]["mean_ms"]),
                fmt(readout["query_accuracy"], "{:.4f}"),
                fmt(readout["completeness"], "{:.2f}"),
            ])
        return rows

    #: ``to_csv`` column order — fixed, part of the output contract.
    CSV_COLUMNS = (
        "scenario", "backend", "detection_p50_ms", "detection_p90_ms",
        "detection_p99_ms", "detection_count", "mistakes",
        "mistake_rate_per_node_s", "mistake_duration_mean_ms",
        "query_accuracy", "completeness", "accuracy", "removals", "flaps",
    )

    def to_csv(self) -> str:
        """The comparison as CSV with deterministically ordered keys.

        Raw (unformatted) values straight from the QoS readout; ``None``
        renders as an empty cell. Row order matches :meth:`rows`.
        """

        def cell(value) -> str:
            return "" if value is None else str(value)

        lines = [",".join(self.CSV_COLUMNS)]
        for outcome in self.outcomes:
            readout = outcome.qos.to_dict()
            detection = readout["detection_ms"]
            mistakes = readout["mistakes"]
            lines.append(",".join(cell(value) for value in (
                outcome.scenario,
                outcome.backend,
                detection["p50_ms"],
                detection["p90_ms"],
                detection["p99_ms"],
                detection["count"],
                mistakes["count"],
                mistakes["rate_per_node_s"],
                mistakes["duration_ms"]["mean_ms"],
                readout["query_accuracy"],
                readout["completeness"],
                readout["accuracy"],
                readout["removals"],
                readout["flaps"],
            )))
        return "\n".join(lines)

    def render(self, title: Optional[str] = None) -> str:
        """The standard human-readable comparison table."""
        return render_table(
            [
                "scenario", "backend", "det p50 ms", "det p99 ms",
                "mistakes", "λ_M /node·s", "T_M mean ms", "P_A",
                "completeness",
            ],
            self.rows(),
            title=title or (
                f"failure-detector QoS catalog (seed {self.seed}"
                f"{', quick' if self.quick else ''})"
            ),
        )


def run_catalog(
    scenarios: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("canely",),
    seed: int = 0,
    quick: bool = False,
) -> QoSReport:
    """Run the catalog (or a subset) against one or more backends.

    Cells run scenario-major in catalog order, backends in the order
    given — the deterministic layout the report's JSON contract needs.
    """
    names = list(scenarios) if scenarios else scenario_names()
    outcomes = [
        run_recipe(name, backend=backend, seed=seed, quick=quick)
        for name in names
        for backend in backends
    ]
    return QoSReport(
        seed=seed,
        quick=quick,
        scenarios=names,
        backends=list(backends),
        outcomes=outcomes,
    )
