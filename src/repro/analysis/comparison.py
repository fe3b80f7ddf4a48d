"""Comparison tables and head-to-head backend QoS measurement.

The first half reproduces the qualitative comparison tables of the paper
(Figs. 1 and 11): Fig. 1 contrasts TTP with standard CAN to motivate the
work; Fig. 11 adds the CANELy column to show the gap has been closed. The
rows are reproduced verbatim; the quantitative cells (inaccessibility,
membership latency, clock precision) can be overridden with values
measured/derived by this reproduction, which is what the Fig. 11 benchmark
does.

The second half is quantitative and runs live simulations:
:func:`probe_backend` plays one seeded crash
:class:`~repro.workloads.scenario.Scenario` on one membership backend
(:mod:`repro.core.backend`) and distils it into a :class:`BackendQoS`
record — detection latency, view-stability mistakes and flaps, bandwidth
per node — and :func:`compare_backends` runs the *same* crash under rival
backends so ``repro compare`` can print them side by side. The headline
figures are reads of the run's one QoS result and one final-state
verdict. Both are fully deterministic: the same seed yields a
byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.inaccessibility import (
    can_inaccessibility_range,
    canely_inaccessibility_range,
)

Fig1Row = List[str]


def fig1_rows() -> List[Fig1Row]:
    """Fig. 1 — TTP vs standard CAN: [parameter, TTP, CAN]."""
    return [
        ["Error detection domains", "value and time", "value domain"],
        [
            "Omission handling",
            "masking / frame diffusion",
            "detection-recovery / frame retransmission",
        ],
        ["Media redundancy", "no", "no"],
        ["Channel redundancy", "yes", "no"],
        ["Babbling idiot avoidance", "bus guardian", "not provided"],
        ["Communications", "broadcast", "broadcast"],
        ["Membership service", "provided", "not provided"],
        ["Clock synchronization", "in us range", "not provided"],
    ]


def fig11_rows(
    measured: Optional[Dict[str, str]] = None,
) -> List[List[str]]:
    """Fig. 11 — TTP vs CAN vs CANELy: [parameter, TTP, CAN, CANELy].

    ``measured`` may override the CANELy cells for the keys
    ``"inaccessibility"``, ``"membership"`` and ``"clock"`` with values
    produced by this reproduction (the benchmark prints both).
    """
    measured = measured or {}
    can_lo, can_hi = can_inaccessibility_range()
    ely_lo, ely_hi = canely_inaccessibility_range()
    return [
        [
            "Omission handling",
            "masking / diffusion",
            "detection-recovery / retransmission",
            "both algorithms",
        ],
        [
            "Inaccessibility duration",
            "unknown",
            f"{can_lo} - {can_hi} bit-times",
            measured.get("inaccessibility", f"{ely_lo} - {ely_hi} bit-times"),
        ],
        ["Inaccessibility control", "not completely addressed", "no", "yes"],
        ["Media redundancy", "no", "no", "yes"],
        ["Channel redundancy", "yes", "no", "yes (optional)"],
        ["Babbling idiot avoidance", "bus guardian", "not provided", "not provided"],
        ["Communications", "broadcast", "broadcast", "broadcast/multicast"],
        [
            "Membership",
            "provided",
            "not provided",
            measured.get("membership", "tens of ms latency"),
        ],
        [
            "Clock synchronization",
            "in us range",
            "not provided",
            measured.get("clock", "tens of us precision"),
        ],
    ]


# ---------------------------------------------------------------------------
# Head-to-head backend QoS (``repro compare``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendQoS:
    """One backend's quality-of-service record for one seeded scenario.

    Latencies are crash-to-``msh.change`` notification times in
    milliseconds: ``detection_first_ms`` at the earliest survivor,
    ``detection_last_ms`` when the *last* survivor learned (``None`` when
    some survivor never did — ``notified`` counts how many were).
    ``mistakes`` and ``flaps`` are the QoS engine's (:mod:`repro.obs.qos`,
    ``docs/qos.md``), over *all* correct observers: wrongful removals of a
    node the ground truth had up, and re-additions of a previously removed
    node. ``bandwidth_bits_per_node_ms`` is total bus
    occupancy across all segments divided by population and simulated
    time — the per-node cost of running the protocol suite.
    """

    backend: str
    nodes: int
    segments: int
    seed: int
    converged: bool
    victim: int
    crash_at_ms: float
    detection_first_ms: Optional[float]
    detection_last_ms: Optional[float]
    notified: int
    survivors: int
    mistakes: int
    flaps: int
    final_view_ok: bool
    bus_utilization: float
    bandwidth_bits_per_node_ms: float
    physical_frames: int
    gateway_forwarded: int
    gateway_dropped: int
    metrics: Dict[str, int] = field(default_factory=dict)
    #: Flat QoS summary from :func:`repro.obs.qos.compute_qos` —
    #: detection quantiles, λ_M, T_M, P_A, completeness (plain data,
    #: already rounded, deterministic).
    qos: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form with stable key order and fixed precision."""

        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 3)

        return {
            "backend": self.backend,
            "nodes": self.nodes,
            "segments": self.segments,
            "seed": self.seed,
            "converged": self.converged,
            "victim": self.victim,
            "crash_at_ms": _round(self.crash_at_ms),
            "detection_first_ms": _round(self.detection_first_ms),
            "detection_last_ms": _round(self.detection_last_ms),
            "notified": self.notified,
            "survivors": self.survivors,
            "mistakes": self.mistakes,
            "flaps": self.flaps,
            "final_view_ok": self.final_view_ok,
            "bus_utilization": round(self.bus_utilization, 6),
            "bandwidth_bits_per_node_ms": round(
                self.bandwidth_bits_per_node_ms, 3
            ),
            "physical_frames": self.physical_frames,
            "gateway_forwarded": self.gateway_forwarded,
            "gateway_dropped": self.gateway_dropped,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "qos": {k: self.qos[k] for k in sorted(self.qos)},
        }


def probe_backend(
    backend: str,
    *,
    nodes: int = 12,
    segments: int = 1,
    seed: int = 0,
    crash_window_ms: float = 40.0,
    run_ms: float = 500.0,
) -> BackendQoS:
    """Run one seeded crash scenario on ``backend`` and measure its QoS.

    The scenario — victim and crash offset drawn from ``seed`` — depends
    only on the seed, never on the backend, so rival backends face exactly
    the same fault and the comparison is fair; each backend runs on its
    own default configuration. The whole run is deterministic: same
    arguments, same :class:`BackendQoS`. A network that never forms raises
    :class:`~repro.errors.ScenarioError`.
    """
    from repro.errors import ConfigurationError
    from repro.sim.clock import ms
    from repro.sim.rng import RngStreams
    from repro.workloads.scenario import Action, on_defaults, play

    if nodes < 2:
        raise ConfigurationError(
            f"a crash needs a survivor to detect it: nodes={nodes}"
        )
    rng = RngStreams(seed).stream("compare")
    victim = rng.randint(0, nodes - 1)
    crash_offset = rng.randint(0, max(0, int(crash_window_ms)))
    builder = play(on_defaults(
        backend, nodes=nodes, members=nodes, segments=segments,
        seed=seed, run_ms=crash_offset + run_ms,
        actions=[Action("crash", node=victim, at_ms=crash_offset)],
    ))
    net = builder.network

    qos = builder.qos()
    detection = next(crash for crash in qos.crashes if crash.node == victim)
    elapsed_ms = net.sim.now / ms(1)
    busy_bits = sum(bus.stats.busy_bits for bus in net.buses)
    frames = sum(bus.stats.physical_frames for bus in net.buses)
    utilization = sum(bus.utilization() for bus in net.buses) / len(net.buses)
    gateway = net.gateway
    observer = 0 if victim else 1  # the lowest surviving id
    return BackendQoS(
        backend=net.backend_name,
        nodes=nodes,
        segments=segments,
        seed=seed,
        converged=True,
        victim=victim,
        crash_at_ms=detection.crash_time / ms(1),
        detection_first_ms=(
            None if detection.first is None else detection.first / ms(1)
        ),
        detection_last_ms=(
            None if detection.last is None else detection.last / ms(1)
        ),
        notified=detection.notified,
        survivors=detection.expected,
        mistakes=len(qos.mistakes),
        flaps=qos.flaps,
        final_view_ok=builder.final_state().ok,
        bus_utilization=utilization,
        bandwidth_bits_per_node_ms=(
            busy_bits / nodes / elapsed_ms if elapsed_ms else 0.0
        ),
        physical_frames=frames,
        gateway_forwarded=gateway.stats.forwarded if gateway else 0,
        gateway_dropped=gateway.stats.dropped if gateway else 0,
        metrics=dict(net.node(observer).metrics()),
        qos=qos.summary(),
    )


def compare_backends(
    backends: Sequence[str] = ("canely", "swim"),
    *,
    nodes: int = 12,
    segments: int = 1,
    seed: int = 0,
    crash_window_ms: float = 40.0,
    run_ms: float = 500.0,
) -> Dict[str, Any]:
    """Run the same seeded crash scenario under every backend in
    ``backends`` and fold the :class:`BackendQoS` records into one report.

    Deterministic by construction: the report for a given argument tuple
    is byte-identical run to run (``repro compare``'s contract). Every
    backend name resolves before the first probe runs.
    """
    from repro.core.backend import resolve_backend

    for name in backends:
        resolve_backend(name)
    probes = [
        probe_backend(
            name,
            nodes=nodes,
            segments=segments,
            seed=seed,
            crash_window_ms=crash_window_ms,
            run_ms=run_ms,
        )
        for name in backends
    ]
    return {
        "scenario": {
            "nodes": nodes,
            "segments": segments,
            "seed": seed,
            "crash_window_ms": round(crash_window_ms, 3),
            "run_ms": round(run_ms, 3),
        },
        "backends": [probe.to_dict() for probe in probes],
    }


def comparison_rows(report: Dict[str, Any]) -> Tuple[List[str], List[List[str]]]:
    """``(header, rows)`` for rendering a comparison report as a table."""

    def _fmt(value: Any) -> str:
        if value is None:
            return "never"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    probes = report["backends"]
    header = ["metric"] + [probe["backend"] for probe in probes]
    metrics = [
        ("converged after bootstrap", "converged"),
        ("detection latency, first survivor (ms)", "detection_first_ms"),
        ("detection latency, last survivor (ms)", "detection_last_ms"),
        ("survivors notified", "notified"),
        ("false removals (mistakes)", "mistakes"),
        ("view flaps (re-additions)", "flaps"),
        ("final view correct", "final_view_ok"),
        ("bus utilization", "bus_utilization"),
        ("bandwidth (bits/node/ms)", "bandwidth_bits_per_node_ms"),
        ("physical frames", "physical_frames"),
        ("gateway forwarded", "gateway_forwarded"),
        ("gateway dropped", "gateway_dropped"),
    ]
    rows = [
        [label] + [_fmt(probe[key]) for probe in probes]
        for label, key in metrics
    ]
    qos_metrics = [
        ("QoS detection p50 (ms)", "detection_p50_ms"),
        ("QoS detection p90 (ms)", "detection_p90_ms"),
        ("QoS detection p99 (ms)", "detection_p99_ms"),
        ("QoS mistake rate λ_M (/node·s)", "mistake_rate_per_node_s"),
        ("QoS mistake duration T_M mean (ms)", "mistake_duration_mean_ms"),
        ("QoS query accuracy P_A", "query_accuracy"),
        ("QoS completeness", "completeness"),
    ]
    rows += [
        [label]
        + [
            "-" if value is None else _fmt(value)
            for value in (probe.get("qos", {}).get(key) for probe in probes)
        ]
        for label, key in qos_metrics
    ]
    return header, rows
