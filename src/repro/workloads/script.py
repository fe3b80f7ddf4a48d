"""Declarative scenario scripts.

A scenario — network size, protocol parameters, traffic, timed fault events
and a measurement plan — described as plain data (a dict, usually loaded
from JSON), executed reproducibly, yielding a structured report. This is
the batch interface behind ``python -m repro run``.

Example::

    {
      "nodes": 8,
      "config": {"tm_ms": 50, "thb_ms": 10},
      "traffic": [{"node": 0, "period_ms": 5}],
      "events": [
        {"at_ms": 500, "action": "crash", "node": 3},
        {"at_ms": 700, "action": "join", "node": 3, "recover": true}
      ],
      "duration_ms": 1500
    }

Supported actions: ``crash``, ``leave``, ``join`` (with ``"recover":
true`` to reboot a crashed node first), ``inaccessibility`` (with
``"bits"``) and — on dual-channel scenarios (``"channels": 2``) —
``fail_channel`` (with ``"channel"``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.sim.timeline import summarize
from repro.workloads.traffic import PeriodicSource

_ACTIONS = ("crash", "leave", "join", "inaccessibility", "fail_channel")
_NODELESS_ACTIONS = ("inaccessibility", "fail_channel")


def _entries(raw: Dict[str, Any], key: str) -> List[Dict[str, Any]]:
    """``raw[key]`` as a list of JSON objects (empty when absent)."""
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) for entry in entries
    ):
        raise ConfigurationError(
            f"{key!r} must be a list of objects: {entries!r}"
        )
    return entries


def _integer(entry: Dict[str, Any], key: str) -> int:
    value = entry.get(key, 0)
    if not isinstance(value, int):
        raise ConfigurationError(f"event needs an integer {key!r}: {entry}")
    return value


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed event of a scenario."""

    at: int
    action: str
    node: Optional[int] = None
    recover: bool = False
    bits: int = 0
    channel: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario description."""

    nodes: int
    config: CanelyConfig
    traffic: List[Dict[str, int]]
    events: List[ScenarioEvent]
    duration: int
    channels: int = 1
    backend: str = "canely"
    segments: int = 1

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioSpec":
        """Validate and normalize a plain-data scenario description.

        Every shape error — a non-object document or entry, an unknown
        or non-numeric ``config`` key — is a
        :class:`~repro.errors.ConfigurationError`.
        """
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"a scenario is a JSON object, not {type(raw).__name__}"
            )
        nodes = raw.get("nodes")
        if not isinstance(nodes, int) or nodes < 1:
            raise ConfigurationError(f"invalid node count: {nodes!r}")
        config_raw = raw.get("config", {})
        if not isinstance(config_raw, dict):
            raise ConfigurationError(
                f"'config' must be an object: {config_raw!r}"
            )
        overrides = {}
        for key, value in config_raw.items():
            name = key[:-3] if key.endswith("_ms") else key
            if name not in CanelyConfig.__dataclass_fields__ or not isinstance(
                value, (int, float)
            ):
                raise ConfigurationError(
                    f"invalid config entry {key!r}: {value!r}"
                )
            overrides[name] = ms(value) if key.endswith("_ms") else value
        config = CanelyConfig.for_population(nodes, **overrides)

        traffic = []
        for entry in _entries(raw, "traffic"):
            node = entry.get("node")
            period = entry.get("period_ms")
            if not isinstance(node, int) or not 0 <= node < nodes:
                raise ConfigurationError(f"traffic entry names bad node: {entry}")
            if not isinstance(period, (int, float)) or period <= 0:
                raise ConfigurationError(f"traffic entry needs period_ms: {entry}")
            traffic.append({"node": node, "period": ms(period)})

        events = []
        channels = raw.get("channels", 1)
        if channels not in (1, 2):
            raise ConfigurationError(f"channels must be 1 or 2: {channels!r}")

        for entry in _entries(raw, "events"):
            action = entry.get("action")
            if action not in _ACTIONS:
                raise ConfigurationError(
                    f"unknown action {action!r}; expected one of {_ACTIONS}"
                )
            at = entry.get("at_ms")
            if not isinstance(at, (int, float)) or at < 0:
                raise ConfigurationError(f"event needs at_ms: {entry}")
            node = entry.get("node")
            if action not in _NODELESS_ACTIONS and (
                not isinstance(node, int) or not 0 <= node < nodes
            ):
                raise ConfigurationError(f"event names bad node: {entry}")
            channel = _integer(entry, "channel")
            if action == "fail_channel":
                if channels != 2:
                    raise ConfigurationError(
                        "fail_channel requires a dual-channel scenario"
                    )
                if channel not in (0, 1):
                    raise ConfigurationError(f"bad channel index: {channel}")
            events.append(
                ScenarioEvent(
                    at=ms(at),
                    action=action,
                    node=node,
                    recover=bool(entry.get("recover", False)),
                    bits=_integer(entry, "bits"),
                    channel=channel,
                )
            )
        events.sort(key=lambda event: event.at)

        duration_ms = raw.get("duration_ms", 1000)
        if not isinstance(duration_ms, (int, float)) or duration_ms <= 0:
            raise ConfigurationError(f"invalid duration_ms: {duration_ms!r}")

        backend = raw.get("backend", "canely")
        from repro.core.backend import resolve_backend

        resolve_backend(backend)  # fail fast on unknown names
        segments = raw.get("segments", 1)
        if not isinstance(segments, int) or not 1 <= segments <= nodes:
            raise ConfigurationError(f"invalid segment count: {segments!r}")
        if channels == 2 and (backend != "canely" or segments != 1):
            raise ConfigurationError(
                "dual-channel scenarios support only the canely backend "
                "on a single segment"
            )
        return cls(
            nodes=nodes,
            config=config,
            traffic=traffic,
            events=events,
            duration=ms(duration_ms),
            channels=channels,
            backend=backend,
            segments=segments,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON scenario description."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"scenario is not valid JSON: {error}"
            ) from None
        return cls.from_dict(raw)


@dataclass
class ScenarioReport:
    """What a scenario run produced."""

    final_view: List[int]
    views_agree: bool
    crash_latencies_ms: Dict[int, Optional[float]]
    bus_utilization: float
    physical_frames: int
    faulty_frames: int
    frames_by_type: Dict[str, int]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "final_view": self.final_view,
            "views_agree": self.views_agree,
            "crash_latencies_ms": self.crash_latencies_ms,
            "bus_utilization": round(self.bus_utilization, 6),
            "physical_frames": self.physical_frames,
            "faulty_frames": self.faulty_frames,
            "frames_by_type": self.frames_by_type,
        }


def run_scenario(spec: ScenarioSpec, monitors: bool = False) -> ScenarioReport:
    """Execute a scenario and collect its report.

    With ``monitors=True`` the backend's online invariant monitors (see
    :mod:`repro.obs.monitors`) run during the scenario and raise
    :class:`~repro.obs.monitors.InvariantViolation` the moment a protocol
    property breaks, instead of the report merely noting disagreement.
    """
    report, _net = run_scenario_detailed(spec, monitors=monitors)
    return report


def run_scenario_detailed(
    spec: ScenarioSpec, monitors: bool = False
) -> "Tuple[ScenarioReport, Any]":
    """Like :func:`run_scenario`, but also returns the finished network.

    The network gives observability consumers (the ``repro trace`` /
    ``repro metrics`` CLI) access to ``net.sim.trace`` and
    ``net.sim.metrics`` after the run. A network that never forms raises
    :class:`~repro.errors.ScenarioError` before any event is scripted.
    """
    if spec.channels == 2:
        from repro.core.stack import DualChannelNetwork

        net = DualChannelNetwork(node_count=spec.nodes, config=spec.config)
    else:
        net = CanelyNetwork(
            node_count=spec.nodes,
            config=spec.config,
            backend=spec.backend,
            segments=spec.segments,
        )
    if monitors:
        net.attach_monitors()
    # Let the network form before the scripted timeline starts: four of
    # the *scenario's* cycles, whatever the backend calls its own cycle.
    scenario = net.scenario().bootstrap(
        settle_cycles=4 * spec.config.tm / net.config.tm
    )
    for entry in spec.traffic:
        PeriodicSource(net.sim, net.node(entry["node"]), period=entry["period"])

    for event in spec.events:
        if event.action == "crash":
            scenario.crash(event.node, at=event.at)
        elif event.action == "leave":
            scenario.leave(event.node, at=event.at)
        elif event.action == "join":
            if event.recover:
                # Reboot first, if the node is down by then.
                node = net.node(event.node)
                scenario.at(
                    event.at, lambda node=node: node.crashed and node.recover()
                )
            scenario.join(event.node, at=event.at)
        elif event.action == "inaccessibility":
            scenario.inaccessibility(event.bits, at=event.at)
        elif event.action == "fail_channel":
            scenario.at(event.at, partial(net.fail_channel, event.channel))
    scenario.run_for(spec.duration)

    final = scenario.final_state()
    summary = summarize(net.sim.trace)
    if spec.channels == 2:
        utilization = sum(bus.utilization() for bus in net.buses) / 2
    else:
        utilization = net.bus.utilization()
    report = ScenarioReport(
        final_view=final.members,
        views_agree=final.agree,
        crash_latencies_ms={
            node: (None if latency is None else latency / ms(1))
            for node, latency in scenario.detection_latencies().items()
        },
        bus_utilization=utilization,
        physical_frames=summary.physical_frames,
        faulty_frames=summary.faulty_frames,
        frames_by_type=summary.frames_by_type,
    )
    return report, net
