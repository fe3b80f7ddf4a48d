"""Aggregation and rendering of campaign results.

A :class:`CampaignReport` folds the per-scenario results into the
statistics a dependability argument needs — verdict counts, injected
omission totals (k and j), the detection-latency distribution against the
analytic bound — and renders them as the standard report table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.latency import latency_bounds
from repro.campaign.spec import (
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_TIMEOUT,
    VERDICT_VIOLATION,
    VERDICT_WORKER_CRASH,
    CampaignSpec,
    ScenarioResult,
)
from repro.core.config import CanelyConfig
from repro.obs.qos import quantile
from repro.sim.clock import ms
from repro.util.tables import render_table, to_json


#: Nearest-rank quantile: the QoS engine's, under the campaign's name.
percentile = quantile


@dataclass
class CampaignReport:
    """Aggregated view over one campaign's results."""

    spec: CampaignSpec
    results: List[ScenarioResult]

    def by_verdict(self, verdict: str) -> List[ScenarioResult]:
        """The results carrying ``verdict``."""
        return [r for r in self.results if r.verdict == verdict]

    @property
    def latencies(self) -> List[int]:
        """Every measured detection latency, in ticks."""
        return [value for r in self.results for value in r.latencies]

    @property
    def missed(self) -> int:
        """Crashes that were never notified, over the whole campaign."""
        return sum(r.missed for r in self.results)

    @property
    def injected_omissions(self) -> int:
        """Total omissions injected (the model's k tally)."""
        return sum(r.injected_omissions for r in self.results)

    @property
    def injected_inconsistent(self) -> int:
        """Total inconsistent omissions injected (the j tally)."""
        return sum(r.injected_inconsistent for r in self.results)

    @property
    def notification_bound(self) -> int:
        """The analytic worst-case notification latency, in ticks.

        CANELy's bound comes from the paper's critical path
        (:func:`~repro.analysis.latency.latency_bounds`); rival backends
        supply their own via ``detection_latency_bound`` on their config.
        """
        spec = self.spec
        config = CanelyConfig(
            capacity=spec.capacity,
            tm=ms(spec.tm_ms),
            thb=ms(spec.thb_ms),
            tjoin_wait=ms(spec.tjoin_wait_ms),
        )
        if self.spec.backend != "canely":
            from repro.core.backend import resolve_backend

            coerced = resolve_backend(self.spec.backend).coerce_config(config)
            bound = getattr(coerced, "detection_latency_bound", None)
            if bound is not None:
                return bound
        return latency_bounds(config).notification

    def _qos_values(self, key: str) -> List[float]:
        """Non-null per-scenario QoS summary values for ``key``."""
        return [
            r.qos[key]
            for r in self.results
            if r.qos and r.qos.get(key) is not None
        ]

    def qos_aggregate(self) -> Dict[str, Any]:
        """Campaign-level FD-QoS aggregate over the per-scenario
        summaries (scenarios that never got past bootstrap carry no QoS
        and are excluded)."""

        def mean(values):
            return round(sum(values) / len(values), 6) if values else None

        p50s = self._qos_values("detection_p50_ms")
        return {
            "scenarios_measured": sum(1 for r in self.results if r.qos),
            "detection_p50_ms_mean": mean(p50s),
            "detection_p50_ms_p95": percentile(p50s, 0.95),
            "mistakes_total": sum(self._qos_values("mistakes")),
            "mistake_rate_per_node_s_mean": mean(
                self._qos_values("mistake_rate_per_node_s")
            ),
            "flaps_total": sum(self._qos_values("flaps")),
            "query_accuracy_mean": mean(self._qos_values("query_accuracy")),
            "completeness_mean": mean(self._qos_values("completeness")),
        }

    @property
    def success(self) -> bool:
        """True when every scenario completed with verdict ``ok``."""
        return len(self.results) == self.spec.scenarios and all(
            r.ok for r in self.results
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data report (for ``--report`` files)."""
        return {
            "spec": self.spec.to_dict(),
            "success": self.success,
            "verdicts": {
                verdict: len(self.by_verdict(verdict))
                for verdict in (
                    VERDICT_OK,
                    VERDICT_BOOTSTRAP_FAILED,
                    VERDICT_VIOLATION,
                    VERDICT_ERROR,
                    VERDICT_TIMEOUT,
                    VERDICT_WORKER_CRASH,
                )
            },
            "missed": self.missed,
            "injected_omissions": self.injected_omissions,
            "injected_inconsistent": self.injected_inconsistent,
            "latency_ticks": {
                "count": len(self.latencies),
                "p50": percentile(self.latencies, 0.50),
                "p95": percentile(self.latencies, 0.95),
                "max": max(self.latencies) if self.latencies else None,
                "bound": self.notification_bound,
            },
            "qos": self.qos_aggregate(),
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        """The report as a JSON document (sorted keys)."""
        return to_json(self.to_dict())

    def render(self, title: Optional[str] = None) -> str:
        """The standard human-readable summary table."""
        latencies = self.latencies

        def latency_ms(value) -> str:
            return "-" if value is None else f"{value / ms(1):.1f} ms"

        rows = [
            ["scenarios", str(self.spec.scenarios)],
            ["completed ok", str(len(self.by_verdict(VERDICT_OK)))],
            [
                "bootstrap failures",
                str(len(self.by_verdict(VERDICT_BOOTSTRAP_FAILED))),
            ],
            [
                "agreement violations",
                str(len(self.by_verdict(VERDICT_VIOLATION))),
            ],
            ["worker errors", str(len(self.by_verdict(VERDICT_ERROR)))],
            ["worker timeouts", str(len(self.by_verdict(VERDICT_TIMEOUT)))],
            [
                "worker crashes",
                str(len(self.by_verdict(VERDICT_WORKER_CRASH))),
            ],
            ["crashes never notified", str(self.missed)],
            ["faults injected (k)", str(self.injected_omissions)],
            ["inconsistent faults (j)", str(self.injected_inconsistent)],
            ["detections measured", str(len(latencies))],
            ["latency p50", latency_ms(percentile(latencies, 0.50))],
            ["latency p95", latency_ms(percentile(latencies, 0.95))],
            ["latency max", latency_ms(max(latencies) if latencies else None)],
            ["analytic bound", latency_ms(self.notification_bound)],
        ]
        qos = self.qos_aggregate()

        def ratio(value) -> str:
            return "-" if value is None else f"{value:.4f}"

        rows += [
            ["QoS detection p50 mean",
             "-" if qos["detection_p50_ms_mean"] is None
             else f"{qos['detection_p50_ms_mean']:.1f} ms"],
            ["QoS mistakes (total)", str(qos["mistakes_total"])],
            ["QoS mistake rate λ_M mean",
             ratio(qos["mistake_rate_per_node_s_mean"])],
            ["QoS query accuracy P_A mean", ratio(qos["query_accuracy_mean"])],
            ["QoS completeness mean", ratio(qos["completeness_mean"])],
        ]
        return render_table(
            ["metric", "value"],
            rows,
            title=title
            or (
                f"scenario campaign ({self.spec.scenarios} scenarios, "
                f"{self.spec.node_min}-{self.spec.node_max} nodes, "
                f"{self.spec.crash_min}-{self.spec.crash_max} crashes, "
                f"seed {self.spec.seed})"
            ),
        )
