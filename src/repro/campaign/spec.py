"""Campaign descriptions and per-scenario results.

A :class:`CampaignSpec` is a *population* of randomized fault scenarios:
how many, the node/crash-count ranges, the stochastic bus-fault
probability ceilings and the measurement window. Every scenario owns a
private seed derived from the campaign root seed and the scenario index via
:func:`repro.sim.rng.derive_seed`, and ``spec[i]`` draws scenario ``i``
as a plain-data :class:`~repro.workloads.scenario.Scenario`, so a
scenario is reproducible in isolation — same seed, same verdict and
latencies, regardless of execution order or worker count — and a
violating one can be minimized and replayed like any checker schedule.

A :class:`ScenarioResult` is the structured outcome one worker returns:
a verdict, the detection latencies, the injected omission counts (the
model's k and j), a metrics snapshot and — on an invariant violation —
the offending trace slice. Results round-trip through plain dicts so the
engine can checkpoint them as JSONL and resume an interrupted campaign.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.rng import RngStreams, derive_seed
from repro.workloads.scenario import (
    ACTION_CRASH,
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_VIOLATION,
    Action,
    Scenario,
)

#: The scenario exceeded the per-scenario wall-clock budget (after retries).
VERDICT_TIMEOUT = "timeout"
#: The worker process died without reporting a result (after retries).
VERDICT_WORKER_CRASH = "worker_crash"

#: Campaign verdicts, from best to worst: a run's four
#: (:mod:`repro.workloads.scenario`), then the two of the process that ran it.
VERDICTS = (
    VERDICT_OK,
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_VIOLATION,
    VERDICT_ERROR,
    VERDICT_TIMEOUT,
    VERDICT_WORKER_CRASH,
)


@dataclass(frozen=True)
class CampaignSpec:
    """A population of randomized crash-and-omission scenarios:
    ``len(spec)`` is ``scenarios`` and ``spec[i]`` draws scenario ``i``.

    Attributes:
        scenarios: how many scenarios the campaign runs.
        seed: root seed; scenario ``i`` runs on the private seed
            ``derive_seed(seed, f"scenario/{i}")``.
        node_min / node_max: population range, drawn per scenario.
        crash_min / crash_max: crash-count range, drawn per scenario
            (clamped so at least two nodes survive).
        consistent_probability / inconsistent_probability: *ceilings* for
            the per-scenario stochastic fault probabilities; each scenario
            draws its own rates uniformly from ``[0, ceiling]``.
        tm_ms / thb_ms / tjoin_wait_ms / capacity: protocol configuration.
        crash_window_ms: crashes are scheduled uniformly inside this window
            after bootstrap.
        run_ms: how long the scenario runs after the crashes are scheduled.
        backend: membership backend every scenario runs
            (:func:`repro.core.backend.backend_names`).
        segments: bus segments per scenario, bridged by a store-and-forward
            gateway when greater than one.
    """

    scenarios: int
    seed: int = 0
    node_min: int = 6
    node_max: int = 12
    crash_min: int = 1
    crash_max: int = 3
    consistent_probability: float = 0.02
    inconsistent_probability: float = 0.005
    tm_ms: float = 50.0
    thb_ms: float = 10.0
    tjoin_wait_ms: float = 150.0
    capacity: int = 16
    crash_window_ms: float = 100.0
    run_ms: float = 400.0
    backend: str = "canely"
    segments: int = 1

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ConfigurationError(
                f"a campaign needs at least one scenario: {self.scenarios}"
            )
        if not 2 <= self.node_min <= self.node_max <= self.capacity:
            raise ConfigurationError(
                f"bad node range {self.node_min}..{self.node_max} "
                f"(capacity {self.capacity})"
            )
        if not 0 <= self.crash_min <= min(self.crash_max, self.node_min):
            raise ConfigurationError(
                f"bad crash range {self.crash_min}..{self.crash_max}"
            )
        if (
            self.consistent_probability < 0
            or self.inconsistent_probability < 0
            or self.consistent_probability + self.inconsistent_probability > 1
        ):
            raise ConfigurationError("bad fault probability ceilings")
        if self.run_ms <= 0 or self.crash_window_ms < 0:
            raise ConfigurationError("bad scenario durations")
        from repro.core.backend import resolve_backend

        resolve_backend(self.backend)
        if not isinstance(self.segments, int) or not (
            1 <= self.segments <= self.node_min
        ):
            raise ConfigurationError(
                f"segments must be in 1..node_min: {self.segments!r}"
            )

    def __len__(self) -> int:
        return self.scenarios

    def __getitem__(self, index: int) -> Scenario:
        """Scenario ``index``: population, crash count and omission rates
        drawn from the ``topology`` stream of its private seed, the
        talkers (half the nodes, 4-9 ms periods) from its ``traffic``
        stream, and crashes at whole milliseconds of the crash window.
        A stream depends on the seed and its name only, so these draws
        and the run's ``faults`` stream never perturb each other. An
        index outside ``0..scenarios-1``, negatives included, raises
        :class:`IndexError`."""
        if not 0 <= index < self.scenarios:
            raise IndexError(
                f"scenario index {index} outside 0..{self.scenarios - 1}"
            )
        seed = derive_seed(self.seed, f"scenario/{index}")
        streams = RngStreams(seed)
        topology = streams.stream("topology")
        nodes = topology.randint(self.node_min, self.node_max)
        crash_hi = max(self.crash_min, min(self.crash_max, nodes - 2))
        crashes = topology.randint(self.crash_min, crash_hi)
        consistent = topology.uniform(0.0, self.consistent_probability)
        inconsistent = topology.uniform(0.0, self.inconsistent_probability)
        traffic = streams.stream("traffic")
        talkers = []
        for node in traffic.sample(range(nodes), nodes // 2):
            talkers.append((node, float(traffic.randint(4, 9))))
        actions = []
        for victim in topology.sample(range(nodes), crashes):
            at_ms = float(topology.randint(0, int(self.crash_window_ms)))
            actions.append(Action(ACTION_CRASH, node=victim, at_ms=at_ms))
        return Scenario(
            nodes=nodes,
            members=nodes,
            actions=actions,
            run_ms=self.run_ms,
            tm_ms=self.tm_ms,
            thb_ms=self.thb_ms,
            tjoin_wait_ms=self.tjoin_wait_ms,
            capacity=self.capacity,
            seed=seed,
            backend=self.backend,
            segments=self.segments,
            traffic=talkers,
            consistent_probability=consistent,
            inconsistent_probability=inconsistent,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (for reports and checkpoint headers)."""
        return asdict(self)


@dataclass
class ScenarioResult:
    """What one scenario produced (or how it failed to produce anything).

    ``latencies`` are crash-to-notification times in kernel ticks for the
    crashed nodes that were notified; ``missed`` counts those that never
    were. ``injected_omissions`` / ``injected_inconsistent`` are the
    injector's k and j tallies. ``detail`` carries the violation message or
    traceback; ``violation_slice`` the offending trace records (as dicts).
    """

    index: int
    seed: int
    verdict: str
    nodes: int = 0
    crashes: int = 0
    latencies: List[int] = field(default_factory=list)
    missed: int = 0
    injected_omissions: int = 0
    injected_inconsistent: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Flat FD-QoS summary (:meth:`repro.obs.qos.QoSMetrics.summary`) of
    #: the scenario's observation window; empty when the run never got
    #: past bootstrap. Unknown to older checkpoints, which load fine —
    #: :meth:`from_dict` filters by field name in both directions.
    qos: Dict[str, Any] = field(default_factory=dict)
    detail: str = ""
    violation_slice: List[Dict[str, Any]] = field(default_factory=list)
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the scenario completed with every invariant intact."""
        return self.verdict == VERDICT_OK

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-checkpoint form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from a checkpoint line."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in raw.items() if k in known})
