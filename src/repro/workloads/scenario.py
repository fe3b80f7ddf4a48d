"""One scenario, one run.

A :class:`Scenario` is the one plain-data description of a simulated
fault scenario: a population, its protocol timing, the bus topology,
background traffic, stochastic omission rates and an ordered tuple of
actions (:class:`Action`) — the paper's fault alphabet: crashes, joins and
leaves, consistent and inconsistent omissions on chosen frames,
inaccessibility spells, a failed channel — plus the faults outside the
fault model the QoS catalog measures: a babbling idiot and a stochastic
error storm. It holds primitives and tuples only, so it hashes, pickles
and round-trips through JSON; its one validator, :func:`_validate`, runs
on construction and raises :class:`~repro.errors.ConfigurationError`.

One interpreter executes it: :func:`_network` builds the network,
:func:`_bootstrap` bootstraps it and :func:`_script` starts the traffic,
applies the actions in order and runs. :func:`run` attaches the backend's
online invariant monitors first and judges the outcome; :func:`play` runs
the same steps unjudged, for workloads that break the fault model on
purpose. Inside :func:`shared_bootstraps` — one population call — the
runs that share a bootstrap simulate it twice and unpickle it after. The
systematic checker's schedules (:mod:`repro.check`), the campaign's draws
(:class:`~repro.campaign.spec.CampaignSpec`), ``repro run``'s JSON
scripts (:func:`load_script`), the QoS catalog's recipes
(:mod:`repro.scenarios`) and ``repro compare``'s crash are all scenarios.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.can.errormodel import FaultInjector
from repro.can.identifiers import MessageType
from repro.core.config import CanelyConfig
from repro.errors import ConfigurationError, ScenarioError
from repro.obs.episodes import one_or_all
from repro.obs.monitors import InvariantViolation
from repro.sim.clock import MS, ms
from repro.sim.rng import RngStreams
from repro.sim.timeline import summarize
from repro.sim.trace import record_to_dict
from repro.workloads.builder import (
    DEFAULT_SETTLE_CYCLES,
    FinalState,
    FrameMatch,
    ScenarioBuilder,
)
from repro.workloads.traffic import PeriodicSource

#: Run verdicts, from best to worst (the campaign adds its process-level
#: ones, :mod:`repro.campaign.spec`).
VERDICT_OK = "ok"
#: The network never converged to full membership before fault injection.
VERDICT_BOOTSTRAP_FAILED = "bootstrap_failed"
#: An invariant monitor fired, or the final views/survivors disagreed.
VERDICT_VIOLATION = "violation"
#: The run raised an unexpected exception.
VERDICT_ERROR = "error"

#: Action kinds.
ACTION_CRASH = "crash"
ACTION_JOIN = "join"
ACTION_LEAVE = "leave"
ACTION_OMIT = "omit"
ACTION_INACCESSIBILITY = "inaccessibility"
ACTION_FAIL_CHANNEL = "fail_channel"
ACTION_BABBLE = "babble"
ACTION_STORM = "storm"

ACTIONS = (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    ACTION_INACCESSIBILITY,
    ACTION_FAIL_CHANNEL,
    ACTION_BABBLE,
    ACTION_STORM,
)
#: The membership actions: each names its subject node.
TIMED_ACTIONS = (ACTION_CRASH, ACTION_JOIN, ACTION_LEAVE)
#: The actions that last ``bits`` bit times on the first bus.
SPELL_ACTIONS = (ACTION_INACCESSIBILITY, ACTION_BABBLE, ACTION_STORM)

#: Omission flavours for ``ACTION_OMIT``.
OMISSION_CONSISTENT = "consistent"
OMISSION_INCONSISTENT = "inconsistent"

#: Cap on how many trace records a violation slice carries.
SLICE_LIMIT = 120

_NUMBER = (int, float)


@dataclass(frozen=True)
class Action:
    """One scripted action of a :class:`Scenario`.

    ``crash``/``join``/``leave`` act on ``node`` at ``at_ms`` milliseconds
    after bootstrap; a ``join`` with ``recover`` first reboots the node if
    it is down by then. ``inaccessibility`` makes the first bus
    inaccessible for ``bits`` bit times at ``at_ms``; ``fail_channel``
    silences channel ``channel`` of a dual-channel network for good.
    ``babble`` starts a top-priority babbling idiot on the first bus at
    ``at_ms`` and silences it ``bits`` bit times later; ``storm`` sets the
    first bus's stochastic consistent-omission rate to ``probability`` for
    ``bits`` bit times, then back to the scenario's own rate (storms do not
    nest).

    ``omit`` hits the ``nth`` (0-based, counted from the moment it is
    armed) frame of message type ``frame_type`` and the ``count - 1``
    matching frames after it — restricted to frames whose identifier names
    ``node`` when ``node >= 0``. It is armed at the end of bootstrap when
    ``at_ms`` is 0, else ``at_ms`` later. ``omission`` selects the
    flavour: an inconsistent omission is accepted by the ``accepting``
    subset while everyone else (sender included) sees an error, so the
    sender's automatic retransmission generates duplicates at the subset.
    ``crash_sender`` crashes the sender before that retransmission — the
    paper's inconsistent-omission-then-crash scenario (Section 4), only
    meaningful for frame types whose identifier names the sender.
    """

    action: str
    node: int = -1
    at_ms: float = 0.0
    frame_type: str = ""
    nth: int = 0
    omission: str = OMISSION_CONSISTENT
    accepting: Tuple[int, ...] = ()
    crash_sender: bool = False
    recover: bool = False
    bits: int = 0
    channel: int = 0
    count: int = 1
    probability: float = 0.0

    def __post_init__(self) -> None:
        # Tuples, not lists, so actions hash (the minimizer caches on them).
        object.__setattr__(self, "accepting", tuple(self.accepting))

    def describe(self) -> str:
        """One-line human-readable form for reports."""
        if self.action == ACTION_OMIT:
            target = self.frame_type
            if self.node >= 0:
                target += f"[node={self.node}]"
            flavour = self.omission
            if self.accepting:
                flavour += f" accepted-by={list(self.accepting)}"
            if self.crash_sender:
                flavour += " +crash-sender"
            burst = f" x{self.count}" if self.count != 1 else ""
            when = f" at +{self.at_ms:g}ms" if self.at_ms else ""
            return f"omit {target}#{self.nth}{burst} ({flavour}){when}"
        if self.action in SPELL_ACTIONS:
            rate = f" p={self.probability:g}" if self.probability else ""
            return f"{self.action}{rate} {self.bits} bits at +{self.at_ms:g}ms"
        if self.action == ACTION_FAIL_CHANNEL:
            return f"fail channel {self.channel} at +{self.at_ms:g}ms"
        recover = " (recover)" if self.recover else ""
        return f"{self.action} node {self.node} at +{self.at_ms:g}ms{recover}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON form; defaults elided for compact artifacts."""
        raw: Dict[str, Any] = {"action": self.action}
        if self.node >= 0:
            raw["node"] = self.node
        if self.at_ms:
            raw["at_ms"] = self.at_ms
        if self.frame_type:
            raw["frame_type"] = self.frame_type
        if self.nth:
            raw["nth"] = self.nth
        if self.omission != OMISSION_CONSISTENT:
            raw["omission"] = self.omission
        if self.accepting:
            raw["accepting"] = list(self.accepting)
        if self.crash_sender:
            raw["crash_sender"] = True
        if self.recover:
            raw["recover"] = True
        if self.bits:
            raw["bits"] = self.bits
        if self.channel:
            raw["channel"] = self.channel
        if self.count != 1:
            raw["count"] = self.count
        if self.probability:
            raw["probability"] = self.probability
        return raw

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Action":
        """Rebuild an action from :meth:`to_dict` output."""
        known = cls.__dataclass_fields__
        if not isinstance(raw, dict) or "action" not in raw or set(raw) - set(known):
            raise ConfigurationError(f"bad action fields: {raw!r}")
        return cls(**raw)


@dataclass(frozen=True)
class Scenario:
    """One fully specified, deterministically executable scenario.

    Attributes:
        nodes: network population (node ids ``0..nodes-1``).
        members: how many of them bootstrap as initial members (the rest
            stay silent until a scripted ``join``).
        actions: the ordered scripted actions.
        run_ms: how long the scenario runs after bootstrap.
        tm_ms / thb_ms / tjoin_wait_ms / capacity: protocol configuration.
        seed: the scenario's label, and the root of its ``faults`` random
            stream when the omission rates are non-zero.
        ttd_ms ... max_crash_failures: the other
            :class:`~repro.core.config.CanelyConfig` overrides; ``None``
            keeps the configuration's default.
        backend / segments / channels: the membership stack (a registered
            backend name, :func:`~repro.core.backend.backend_names`) and
            topology (``channels=2``: CANELy over two replicated buses).
        traffic: ``(node, period_ms)`` or ``(node, period_ms,
            offset_ms)`` periodic data sources, started after bootstrap
            (the first frame ``offset_ms`` later, default 0).
        consistent_probability / inconsistent_probability: per-frame
            stochastic omission rates on the first bus.
        settle_cycles: bootstrap settle, in cycles of ``tm_ms``; ``None``
            is the builder's default of six of the backend's own cycles.
        bus_off_recovery: a controller driven bus-off rejoins after the
            ISO 11898 recovery sequence instead of staying silent.
        gateway_latency_ms / gateway_queue_limit: the relay latency and
            per-port queue bound of the gateway bridging ``segments > 1``.
        fail_after_ms / suspicion_timeout_ms: SWIM's silence and
            suspicion bounds (``backend="swim"`` only); ``None`` derives
            them from the CANELy timing
            (:meth:`~repro.swim.config.SwimConfig.from_canely`).
    """

    nodes: int = 4
    members: int = 4
    actions: Tuple[Action, ...] = ()
    run_ms: float = 400.0
    tm_ms: float = 50.0
    thb_ms: float = 10.0
    tjoin_wait_ms: float = 150.0
    capacity: int = 16
    seed: int = 0
    ttd_ms: Optional[float] = None
    trha_ms: Optional[float] = None
    reference_window_ms: Optional[float] = None
    reintegration_cooldown_ms: Optional[float] = None
    omission_degree: Optional[int] = None
    inconsistent_degree: Optional[int] = None
    max_crash_failures: Optional[int] = None
    backend: str = "canely"
    segments: int = 1
    channels: int = 1
    traffic: Tuple[Tuple[float, ...], ...] = ()
    consistent_probability: float = 0.0
    inconsistent_probability: float = 0.0
    settle_cycles: Optional[float] = None
    bus_off_recovery: bool = False
    gateway_latency_ms: float = 0.0
    gateway_queue_limit: int = 64
    fail_after_ms: Optional[float] = None
    suspicion_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "traffic", tuple(map(tuple, self.traffic)))
        _validate(self)

    @property
    def depth(self) -> int:
        """Number of scripted actions."""
        return len(self.actions)

    def without(self, indices) -> "Scenario":
        """A copy with the actions at ``indices`` removed (minimizer step)."""
        drop = set(indices)
        kept = tuple(
            action for i, action in enumerate(self.actions) if i not in drop
        )
        return replace(self, actions=kept)

    def describe(self) -> str:
        """Multi-line human-readable form."""
        lines = [
            f"schedule seed={self.seed}: {self.nodes} nodes "
            f"({self.members} bootstrap), run {self.run_ms:g}ms, "
            f"{self.depth} fault(s)"
        ]
        for i, action in enumerate(self.actions):
            lines.append(f"  [{i}] {action.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (artifact/checkpoint line). The nine schedule keys are
        always written, the others only when they are not at their
        default; the actions go under ``faults``."""
        raw = {
            "nodes": self.nodes,
            "members": self.members,
            "faults": [action.to_dict() for action in self.actions],
            "run_ms": self.run_ms,
            "tm_ms": self.tm_ms,
            "thb_ms": self.thb_ms,
            "tjoin_wait_ms": self.tjoin_wait_ms,
            "capacity": self.capacity,
            "seed": self.seed,
        }
        for name, default in _OPTIONAL_DEFAULTS:
            value = getattr(self, name)
            if value != default:
                raw[name] = value
        if self.traffic:
            raw["traffic"] = list(map(list, self.traffic))
        return raw

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        if not isinstance(raw, dict):
            raise ConfigurationError(f"a scenario is an object, not {raw!r}")
        unknown = set(raw) - set(_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown scenario fields: {sorted(unknown)}")
        data = dict(raw)
        data["actions"] = tuple(map(Action.from_dict, data.pop("faults", ())))
        return cls(**data)


def on_defaults(backend: str, **settings: Any) -> Scenario:
    """A :class:`Scenario` (``settings`` as given) that runs ``backend`` on
    its own default configuration: ``CanelyConfig()`` for CANELy,
    ``SwimConfig()`` for SWIM — what the QoS catalog and ``repro compare``
    measure."""
    from repro.swim.config import SwimConfig

    swim = {}
    if backend == "swim":
        swim = {
            "fail_after_ms": SwimConfig.fail_after / MS,
            "suspicion_timeout_ms": SwimConfig.suspicion_timeout / MS,
        }
    return Scenario(
        backend=backend, capacity=CanelyConfig.capacity, **swim, **settings
    )


#: The nine fields every :meth:`Scenario.to_dict` writes come first.
_FIELDS = fields(Scenario)
_KEYS = ("faults",) + tuple(spec.name for spec in _FIELDS if spec.name != "actions")
_OPTIONAL_DEFAULTS = tuple(
    (spec.name, spec.default) for spec in _FIELDS[9:] if spec.name != "traffic"
)
#: The :class:`~repro.core.config.CanelyConfig` overrides besides the
#: four every scenario carries; the ``_ms`` ones are durations.
_CONFIG_OVERRIDES = (
    "ttd_ms",
    "trha_ms",
    "reference_window_ms",
    "reintegration_cooldown_ms",
    "omission_degree",
    "inconsistent_degree",
    "max_crash_failures",
)
#: The :class:`~repro.swim.config.SwimConfig` overrides.
_SWIM_OVERRIDES = ("fail_after_ms", "suspicion_timeout_ms")


def _validate(scenario: Scenario) -> None:
    """The one validator: raise :class:`ConfigurationError` unless
    ``scenario`` is a run the simulator executes as written."""
    s = scenario
    for name in ("nodes", "members", "capacity", "seed", "segments", "channels",
                 "gateway_queue_limit"):
        if type(getattr(s, name)) is not int:
            raise ConfigurationError(
                f"{name} must be an integer: {getattr(s, name)!r}"
            )
    if not 2 <= s.members <= s.nodes <= s.capacity:
        raise ConfigurationError(
            f"bad population: members={s.members} nodes={s.nodes} "
            f"capacity={s.capacity}"
        )
    for name in ("run_ms", "tm_ms", "thb_ms", "tjoin_wait_ms"):
        value = getattr(s, name)
        if type(value) not in _NUMBER or value <= 0:
            raise ConfigurationError(f"{name} must be positive: {value!r}")
    for name in _CONFIG_OVERRIDES + _SWIM_OVERRIDES + ("gateway_latency_ms",):
        value = getattr(s, name)
        kinds = _NUMBER if name.endswith("_ms") else (int,)
        if value is not None and (type(value) not in kinds or value < 0):
            raise ConfigurationError(f"invalid {name}: {value!r}")
    if s.backend != "canely":  # the default is always registered
        from repro.core.backend import backend_names

        # A name, not a node class: a scenario is plain data and is
        # written out (``to_dict``), and its defaults key on the name.
        if type(s.backend) is not str or s.backend not in backend_names():
            raise ConfigurationError(
                f"unknown membership backend {s.backend!r}; "
                f"registered: {backend_names()}"
            )
    swim = (s.fail_after_ms, s.suspicion_timeout_ms)
    if s.backend != "swim" and swim != (None, None):
        raise ConfigurationError(f"only the swim backend takes {_SWIM_OVERRIDES}")
    if s.gateway_queue_limit < 1 or type(s.bus_off_recovery) is not bool:
        raise ConfigurationError(
            f"bad gateway_queue_limit={s.gateway_queue_limit!r} or "
            f"bus_off_recovery={s.bus_off_recovery!r}"
        )
    if not 1 <= s.segments <= s.nodes:
        raise ConfigurationError(f"invalid segment count: {s.segments!r}")
    if s.channels not in (1, 2):
        raise ConfigurationError(f"channels must be 1 or 2: {s.channels!r}")
    rates = (s.consistent_probability, s.inconsistent_probability)
    if type(rates[0]) not in _NUMBER or type(rates[1]) not in _NUMBER or not (
        min(rates) >= 0 and sum(rates) <= 1
    ):
        raise ConfigurationError(f"bad omission rates: {rates!r}")
    if s.channels == 2 and (
        s.backend != "canely" or s.segments != 1 or any(rates) or s.bus_off_recovery
    ):
        raise ConfigurationError(
            "dual-channel scenarios support only the canely backend on a "
            "single segment, without stochastic omissions or bus-off recovery"
        )
    if s.settle_cycles is not None and (
        type(s.settle_cycles) not in _NUMBER or s.settle_cycles <= 0
    ):
        raise ConfigurationError(f"invalid settle_cycles: {s.settle_cycles!r}")
    for entry in s.traffic:
        node, period_ms, offset_ms = (*entry, 0, 0, 0)[:3]
        if len(entry) not in (2, 3) or type(node) is not int or not (
            0 <= node < s.nodes
        ) or type(period_ms) not in _NUMBER or type(offset_ms) not in _NUMBER or (
            period_ms <= 0 or offset_ms < 0
        ):
            raise ConfigurationError(
                f"bad traffic entry (node, period_ms[, offset_ms]): {entry!r}"
            )
    for action in s.actions:
        _validate_action(action, s)


def _validate_action(action: Action, s: Scenario) -> None:
    """The rules one action of ``s`` must keep: a known kind fired at a
    time >= 0, a real subject node, and only the fields its kind reads."""
    if not isinstance(action, Action) or action.action not in ACTIONS:
        raise ConfigurationError(
            f"unknown action {action!r}; expected one of {ACTIONS}"
        )
    kind, node = action.action, action.node
    if type(action.at_ms) not in _NUMBER or action.at_ms < 0:
        raise ConfigurationError(f"{kind} needs at_ms >= 0: {action.at_ms!r}")
    lowest = 0 if kind in TIMED_ACTIONS else -1
    highest = s.nodes - 1 if kind in TIMED_ACTIONS + (ACTION_OMIT,) else -1
    if type(node) is not int or not lowest <= node <= highest:
        raise ConfigurationError(
            f"{kind} names node {node!r} outside {lowest}..{highest}"
        )
    if kind == ACTION_OMIT:
        if action.frame_type not in MessageType.__members__:
            raise ConfigurationError(
                f"unknown frame_type {action.frame_type!r}; expected one of "
                f"{sorted(MessageType.__members__)}"
            )
        if action.omission not in (OMISSION_CONSISTENT, OMISSION_INCONSISTENT):
            raise ConfigurationError(f"unknown omission flavour {action.omission!r}")
        if action.accepting and action.omission != OMISSION_INCONSISTENT:
            raise ConfigurationError(
                "an accepting subset requires an inconsistent omission"
            )
        for receiver in action.accepting:
            if type(receiver) is not int or not 0 <= receiver < s.nodes:
                raise ConfigurationError(
                    f"accepting names node {receiver!r} outside 0..{s.nodes - 1}"
                )
    elif action.frame_type or action.accepting or action.crash_sender:
        raise ConfigurationError(f"only omit takes frame fields: {action}")
    if type(action.nth) is not int or action.nth < 0 or (
        action.nth and kind != ACTION_OMIT
    ):
        raise ConfigurationError(f"nth must be an omit's ordinal >= 0: {action.nth!r}")
    if type(action.bits) is not int or (
        action.bits < 1 if kind in SPELL_ACTIONS else action.bits
    ):
        raise ConfigurationError(
            f"bits must be > 0, and only on {', '.join(SPELL_ACTIONS)}: "
            f"{action.bits!r}"
        )
    if kind in (ACTION_BABBLE, ACTION_STORM) and s.channels != 1:
        raise ConfigurationError(f"{kind} needs a single-channel scenario")
    if type(action.count) is not int or (
        action.count < 1 if kind == ACTION_OMIT else action.count != 1
    ):
        raise ConfigurationError(
            f"count must be an omit's burst length >= 1: {action.count!r}"
        )
    if type(action.probability) not in _NUMBER or (
        not 0 < action.probability <= 1 - s.inconsistent_probability
        if kind == ACTION_STORM
        else action.probability
    ):
        raise ConfigurationError(
            f"probability must be a storm's rate in (0, 1 - "
            f"inconsistent_probability]: {action.probability!r}"
        )
    if type(action.channel) is not int or (
        (s.channels != 2 or action.channel not in (0, 1))
        if kind == ACTION_FAIL_CHANNEL
        else action.channel
    ):
        raise ConfigurationError(
            f"fail_channel needs a dual-channel scenario and channel 0 or 1: "
            f"channels={s.channels}, channel={action.channel!r}"
        )
    for flag in ("crash_sender", "recover"):
        if type(getattr(action, flag)) is not bool:
            raise ConfigurationError(f"{flag} must be a boolean: {action}")
    if action.recover and kind != ACTION_JOIN:
        raise ConfigurationError(f"only join takes recover: {action}")


@dataclass
class Result:
    """What one :func:`run` of a scenario produced.

    ``verdict`` is one of the ``VERDICT_*`` values; ``monitor`` names the
    violated invariant (``final-state`` for the whole-run checks) and
    ``violation_slice`` carries at most :data:`SLICE_LIMIT` offending trace
    records. ``final`` is the builder's final-state readout, present when
    the run finished. The finished ``builder`` and ``network`` give every
    other readout on demand — :attr:`fingerprint`, the builder's ``qos()``
    and ``detection_latencies()``, ``network.sim.metrics`` — so a run pays
    only for the ones its caller reads.
    """

    scenario: Scenario
    verdict: str = VERDICT_ERROR
    monitor: str = ""
    detail: str = ""
    violation_slice: List[Dict[str, Any]] = field(default_factory=list)
    final: Optional[FinalState] = None
    #: The agreed final view, and the survivors it had to equal; empty
    #: when the run did not finish.
    final_members: List[int] = field(default_factory=list)
    expected_members: List[int] = field(default_factory=list)
    builder: Optional[ScenarioBuilder] = None
    network: Any = None
    elapsed_s: float = 0.0
    #: ``(rows, digest)``: the SHA-256 state over the trace's first rows,
    #: when the run started from a bootstrap snapshot that hashed them.
    _prefix: Optional[Tuple[int, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return self.verdict == VERDICT_OK

    @property
    def violating(self) -> bool:
        """True when an invariant was violated (the minimizer's oracle)."""
        return self.verdict == VERDICT_VIOLATION

    @property
    def events(self) -> int:
        """Kernel events the run processed."""
        return self.network.sim.events_processed

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over every trace row's sorted-key JSON text, in order:
        the replay identity — two runs of one scenario on the same code
        produce the same fingerprint."""
        start, digest = self._prefix or (0, None)
        return _trace_digest(self.network.sim.trace, start, digest).hexdigest()

    def report(self) -> Dict[str, Any]:
        """The ``repro run`` rendering: final view, crash detection
        latencies and bus readouts, plus the verdict unless it is ok."""
        net = self.network
        final = self.final or self.builder.final_state()
        summary = summarize(net.sim.trace)
        buses = net.buses if self.scenario.channels == 2 else (net.bus,)
        report = {
            "final_view": final.members,
            "views_agree": final.agree,
            "crash_latencies_ms": one_or_all({
                node: [None if ticks is None else ticks / MS for ticks in spells]
                for node, spells in self.builder.detection_latencies().items()
            }),
            "bus_utilization": round(
                sum(bus.utilization() for bus in buses) / len(buses), 6
            ),
            "physical_frames": summary.physical_frames,
            "faulty_frames": summary.faulty_frames,
            "frames_by_type": summary.frames_by_type,
        }
        if not self.ok:
            report.update(
                verdict=self.verdict, monitor=self.monitor, detail=self.detail
            )
        return report


def run(scenario: Scenario) -> Result:
    """Execute ``scenario`` deterministically and judge it.

    Never raises for what the run does: bootstrap non-convergence, online
    invariant violations and final-state disagreements all map to
    verdicts, and an unexpected exception is the ``error`` verdict with
    its traceback in ``detail``. A configuration no network can be built
    from raises :class:`ConfigurationError` before anything runs.

    Inside :func:`shared_bootstraps` a run whose bootstrap an earlier run
    of the scope already did twice starts from that network's snapshot,
    so its ``elapsed_s`` excludes the bootstrap; the result is the same.
    """
    started = time.perf_counter()
    result, bootstrap = _start(scenario)
    builder, net = result.builder, result.network
    try:
        bootstrap()
        _script(scenario, builder, net)
        final = builder.final_state()
    except ScenarioError as error:
        result.verdict, result.detail = VERDICT_BOOTSTRAP_FAILED, str(error)
    except InvariantViolation as violation:
        result.verdict, result.monitor = VERDICT_VIOLATION, violation.monitor
        result.detail = str(violation)
        result.violation_slice = [
            record_to_dict(record) for record in violation.records[:SLICE_LIMIT]
        ]
    except Exception:
        result.detail = traceback.format_exc()
    else:
        result.final = final
        result.final_members, result.expected_members = final.members, final.expected
        if final.ok:
            result.verdict = VERDICT_OK
        else:
            result.verdict, result.monitor = VERDICT_VIOLATION, "final-state"
            result.detail = final.detail
    result.elapsed_s = time.perf_counter() - started
    return result


def play(scenario: Scenario) -> ScenarioBuilder:
    """Execute ``scenario`` unjudged and return its finished builder.

    The same steps as :func:`run` without the invariant monitors, for
    workloads measured rather than judged — the QoS catalog's recipes
    break the fault model on purpose. A bootstrap that does not converge
    raises :class:`~repro.errors.ScenarioError`.
    """
    net = _network(scenario)
    builder = net.scenario(seed=scenario.seed)
    _bootstrap(scenario, builder, net)
    _script(scenario, builder, net)
    return builder


# -- one bootstrap per prefix -------------------------------------------------

#: The fields that act only after the bootstrap; a prefix key blanks them.
_AFTER_BOOTSTRAP = ("actions", "traffic", "run_ms")
#: The fields a prefix key reads, the seed first: every other field,
#: including one added later.
_PREFIX_FIELDS = attrgetter(
    "seed",
    *(
        spec.name
        for spec in _FIELDS
        if spec.name not in _AFTER_BOOTSTRAP + ("seed",)
    ),
)


class _Bootstraps:
    """The bootstrap prefixes one :func:`shared_bootstraps` scope ran:
    each key seen, and for a key seen twice the pickled network and
    builder right after its bootstrap (:func:`repro.util.snapshot.dumps`).
    A prefix seen once costs no pickling; a pickled one is restored by
    ``pickle.loads``, several times faster than its bootstrap (and than
    ``copy.deepcopy``)."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.snapshots: Dict[tuple, Tuple[bytes, Tuple[int, Any]]] = {}

    def keep(self, key: tuple, builder: ScenarioBuilder, net) -> None:
        """Note ``key`` bootstrapped, snapshotting it the second time with
        the digest of its trace rows (:attr:`Result.fingerprint`)."""
        if key in self.seen:
            from repro.util import snapshot  # only a shared prefix pickles

            trace = net.sim.trace
            self.snapshots[key] = (
                snapshot.dumps((net, builder)),
                (len(trace), _trace_digest(trace)),
            )
        else:
            self.seen.add(key)


#: The store of the enclosing :func:`shared_bootstraps` scope, else None;
#: a context variable, so each thread starts outside any scope.
_bootstraps: ContextVar[Optional[_Bootstraps]] = ContextVar(
    "bootstraps", default=None
)


@contextmanager
def shared_bootstraps() -> Iterator[None]:
    """Bootstrap each distinct prefix once for the :func:`run` calls
    inside: the scope of one population call (a campaign, a sweep, a
    minimization). Runs that agree on every field but the ones acting
    after the bootstrap (:data:`_AFTER_BOOTSTRAP`, and the seed when the
    run draws no ``faults`` stream) share one bootstrapped network, which
    a later run unpickles instead of simulating again. A nested scope
    joins the enclosing one; the store dies with the outermost, so no
    snapshot outlives the code it was taken of."""
    if _bootstraps.get() is not None:
        yield
        return
    scope = _bootstraps.set(_Bootstraps())
    try:
        yield
    finally:
        _bootstraps.reset(scope)


def _stormy(s: Scenario) -> bool:
    """Whether ``s``'s first bus draws from the ``faults`` random stream."""
    return bool(
        s.consistent_probability
        or s.inconsistent_probability
        or ACTION_STORM in map(attrgetter("action"), s.actions)
    )


def _prefix_key(s: Scenario) -> tuple:
    """What ``s``'s bootstrapped network depends on: every field but the
    ones acting after the bootstrap, the seed only when it roots a
    ``faults`` stream (so a key with the seed is one field longer than a
    key without). Every :func:`run` attaches its monitors before the
    bootstrap, and the store serves :func:`run` alone."""
    values = _PREFIX_FIELDS(s)
    return values if _stormy(s) else values[1:]


def _start(s: Scenario) -> Tuple[Result, Any]:
    """``s``'s result-to-be, holding the monitored network and builder it
    runs on, and the step that bootstraps them: a no-op when the scope's
    snapshot of ``s``'s prefix restored them bootstrapped already."""
    store = _bootstraps.get()
    key = None if store is None else _prefix_key(s)
    restored = None if store is None else store.snapshots.get(key)
    if restored is not None:
        import pickle

        pickled, prefix = restored
        net, builder = pickle.loads(pickled)
        builder.seed = s.seed
        result = Result(s, builder=builder, network=net)
        result._prefix = prefix
        return result, _bootstrapped
    net = _network(s)
    net.attach_monitors()
    builder = net.scenario(seed=s.seed)
    result = Result(s, builder=builder, network=net)
    return result, partial(_bootstrap, s, builder, net, store, key)


def _bootstrapped() -> None:
    """The bootstrap of a network restored from a snapshot: done."""


def _trace_digest(trace, start: int = 0, digest=None):
    """SHA-256 over ``trace``'s rows from number ``start`` on, in sorted-key
    JSON text, continuing a copy of ``digest`` (the rows before ``start``)
    when given."""
    digest = hashlib.sha256() if digest is None else digest.copy()
    for rows in trace.encode_rows(sort_keys=True, start=start):
        digest.update("".join(rows).encode())
    return digest


def _network(s: Scenario):
    """The network ``s`` runs on, its first bus faulted at ``s``'s rates
    (and storms) from the ``faults`` stream of its seed."""
    from repro.core.stack import CanelyNetwork, DualChannelNetwork

    overrides, swim = {}, {}
    for name in _CONFIG_OVERRIDES + _SWIM_OVERRIDES:
        value = getattr(s, name)
        if value is not None:
            in_ms = name.endswith("_ms")
            target = swim if name in _SWIM_OVERRIDES else overrides
            target[name[:-3] if in_ms else name] = ms(value) if in_ms else value
    config = CanelyConfig(
        capacity=s.capacity,
        tm=ms(s.tm_ms),
        thb=ms(s.thb_ms),
        tjoin_wait=ms(s.tjoin_wait_ms),
        **overrides,
    )
    if s.channels == 2:
        return DualChannelNetwork(node_count=s.nodes, config=config)
    if s.backend == "swim":
        from repro.swim.config import SwimConfig

        config = SwimConfig.from_canely(config, **swim)
    injector = FaultInjector(
        rng=RngStreams(s.seed).stream("faults") if _stormy(s) else None,
        consistent_probability=s.consistent_probability,
        inconsistent_probability=s.inconsistent_probability,
    )
    net = CanelyNetwork(
        node_count=s.nodes,
        config=config,
        injector=injector,
        backend=s.backend,
        segments=s.segments,
        gateway_latency=ms(s.gateway_latency_ms),
        gateway_queue_limit=s.gateway_queue_limit,
    )
    for bus in net.buses:
        bus.bus_off_recovery = s.bus_off_recovery
    return net


def _bootstrap(
    s: Scenario,
    builder: ScenarioBuilder,
    net,
    store: Optional[_Bootstraps] = None,
    key: tuple = (),
) -> None:
    """Bring ``s``'s initial members up and let them settle; then note
    the prefix ``key`` in ``store``, if given."""
    builder.bootstrap(
        settle_cycles=DEFAULT_SETTLE_CYCLES
        if s.settle_cycles is None
        else s.settle_cycles * ms(s.tm_ms) / net.config.tm,
        nodes=None if s.members == s.nodes else range(s.members),
    )
    if store is not None:
        store.keep(key, builder, net)


def _script(s: Scenario, builder: ScenarioBuilder, net) -> None:
    """After the bootstrap: start the traffic, apply the actions in order,
    run."""
    for node_id, period_ms, *offset_ms in s.traffic:
        PeriodicSource(
            net.sim, net.node(node_id), period=ms(period_ms),
            offset=ms(offset_ms[0]) if offset_ms else 0,
        )
    for action in s.actions:
        kind = action.action
        if kind == ACTION_OMIT:
            omit = partial(
                builder.omit,
                frame=FrameMatch(
                    mtype=action.frame_type,
                    node=action.node if action.node >= 0 else None,
                    nth=action.nth,
                ),
                inconsistent=action.omission == OMISSION_INCONSISTENT,
                accepting=action.accepting,
                count=action.count,
                crash_sender=action.crash_sender,
            )
            if action.at_ms:
                builder.at(ms(action.at_ms), omit)
            else:  # armed at bootstrap end, without an event
                omit()
            continue
        at = ms(action.at_ms)
        if kind == ACTION_INACCESSIBILITY:
            builder.inaccessibility(action.bits, at=at)
        elif kind == ACTION_BABBLE:
            builder.babble(action.bits, at=at)
        elif kind == ACTION_STORM:
            set_rate = net.bus.injector.configure_stochastic
            builder.at(at, partial(set_rate, action.probability))
            builder.at(
                at + net.bus.timing.bits_to_ticks(action.bits),
                partial(set_rate, s.consistent_probability),
            )
        elif kind == ACTION_FAIL_CHANNEL:
            builder.at(at, partial(net.fail_channel, action.channel))
        else:
            if action.recover:
                # Reboot first, if the node is down by then.
                node = net.node(action.node)
                builder.at(at, lambda node=node: node.crashed and node.recover())
            getattr(builder, kind)(action.node, at=at)
    builder.run_for(ms(s.run_ms))


# -- repro run's JSON scripts -------------------------------------------------

#: CanelyConfig fields that are durations (``<name>_ms`` in a script).
_DURATIONS = ("tm", "thb", "ttd", "trha", "tjoin_wait", "reference_window",
              "reintegration_cooldown")
_SCRIPT_ACTIONS = TIMED_ACTIONS + (ACTION_INACCESSIBILITY, ACTION_FAIL_CHANNEL)
#: The keys a script, an ``events`` and a ``traffic`` entry may carry.
_SCRIPT_KEYS = ("nodes", "config", "traffic", "events", "duration_ms",
                "backend", "segments", "channels")
_EVENT_KEYS = ("at_ms", "action", "node", "recover", "bits", "channel")
_TRAFFIC_KEYS = ("node", "period_ms")


def load_script(raw: Any) -> Scenario:
    """The scenario a ``repro run`` JSON script (text or parsed) describes.

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

    ``events`` are the actions but ``omit`` (stably sorted by ``at_ms``);
    ``config`` takes any :class:`~repro.core.config.CanelyConfig` field,
    durations in milliseconds as ``<name>_ms``; ``channels``, ``backend``
    and ``segments`` pick the topology. Every node bootstraps, for four of
    the script's membership cycles. ``Ttd`` and the capacity are derived
    from the population (:meth:`CanelyConfig.for_population`) unless the
    script sets them. Every shape error is a :class:`ConfigurationError`.
    """
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"scenario is not valid JSON: {error}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"a scenario is a JSON object, not {type(raw).__name__}"
        )
    _known(raw, _SCRIPT_KEYS, "scenario")
    nodes = raw.get("nodes")
    if type(nodes) is not int or nodes < 1:
        raise ConfigurationError(f"invalid node count: {nodes!r}")
    config_raw = raw.get("config", {})
    if not isinstance(config_raw, dict):
        raise ConfigurationError(f"'config' must be an object: {config_raw!r}")
    overrides = {}
    for key, value in config_raw.items():
        in_ms = key.endswith("_ms")
        name = key[:-3] if in_ms else key
        if name not in CanelyConfig.__dataclass_fields__ or (
            type(value) not in (_NUMBER if in_ms else (int,))
        ) or (in_ms and name not in _DURATIONS):
            raise ConfigurationError(f"invalid config entry {key!r}: {value!r}")
        overrides[name] = ms(value) if in_ms else value
    config = CanelyConfig.for_population(nodes, **overrides)
    extras = {"ttd_ms": config.ttd / MS}
    for name in set(overrides) - {"tm", "thb", "tjoin_wait", "capacity"}:
        if name in _DURATIONS:
            extras[f"{name}_ms"] = getattr(config, name) / MS
        else:
            extras[name] = getattr(config, name)
    events = []
    for entry in _entries(raw, "events", _EVENT_KEYS):
        kind = entry.get("action")
        if kind not in _SCRIPT_ACTIONS:
            raise ConfigurationError(
                f"unknown action {kind!r}; expected one of {_SCRIPT_ACTIONS}"
            )
        events.append(
            Action(
                action=kind,
                node=entry.get("node") if kind in TIMED_ACTIONS else -1,
                at_ms=entry.get("at_ms"),
                recover=entry.get("recover", False),
                bits=entry.get("bits", 0),
                channel=entry.get("channel", 0),
            )
        )
    scenario = Scenario(
        nodes=nodes,
        members=nodes,
        actions=events,
        run_ms=raw.get("duration_ms", 1000),
        tm_ms=config.tm / MS,
        thb_ms=config.thb / MS,
        tjoin_wait_ms=config.tjoin_wait / MS,
        capacity=config.capacity,
        backend=raw.get("backend", "canely"),
        segments=raw.get("segments", 1),
        channels=raw.get("channels", 1),
        traffic=[
            (entry.get("node"), entry.get("period_ms"))
            for entry in _entries(raw, "traffic", _TRAFFIC_KEYS)
        ],
        settle_cycles=4.0,
        **extras,
    )
    return replace(
        scenario, actions=sorted(scenario.actions, key=lambda a: a.at_ms)
    )


def _entries(
    raw: Dict[str, Any], key: str, known: Tuple[str, ...]
) -> List[Dict[str, Any]]:
    """``raw[key]`` as a list of JSON objects of ``known`` keys (empty when
    absent)."""
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) for entry in entries
    ):
        raise ConfigurationError(f"{key!r} must be a list of objects: {entries!r}")
    for entry in entries:
        _known(entry, known, f"{key!r} entry")
    return entries


def _known(raw: Dict[str, Any], known: Tuple[str, ...], what: str) -> None:
    """Refuse the keys of ``raw`` outside ``known``, naming them."""
    unknown = sorted(map(str, set(raw) - set(known)))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s) {unknown}; expected some of {list(known)}"
        )
