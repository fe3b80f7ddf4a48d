"""The built-in scenario catalog.

Eight named recipes spanning the paper's fault menagerie plus the
baseline, each a seeded, backend-neutral script: the fault injection and
load shaping all happen at the bus/controller level, so the same recipe
runs unchanged against the CANELy stack and any rival backend, and the
QoS engine judges both against the same ground truth.

Every recipe follows the same shape: build a network, bootstrap it,
script the scenario (crashes, storms, churn, load) through the
:class:`~repro.workloads.builder.ScenarioBuilder`, run a fixed horizon,
and return the builder in a :class:`~repro.scenarios.catalog.ScenarioRun`:
the builder recorded the ground truth the trace cannot carry (initial
members, window start, leave/join instants) as it scripted. Fixed horizons — not
``run_until_settled`` — are deliberate: several recipes *end* in a
legitimately unsettled state (a babbled-out membership, an unrefuted
suspicion) and the QoS readout must include that tail.

All randomness flows from ``derive_seed(seed, "scenario/<name>")`` via
:class:`~repro.sim.rng.RngStreams`, so a (name, backend, seed, quick)
tuple fully determines the run — the byte-identical-report contract.
"""

from __future__ import annotations

import random
from typing import List

from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.core.stack import CanelyNetwork
from repro.scenarios.catalog import ScenarioRun, recipe
from repro.sim.clock import ms
from repro.sim.rng import RngStreams, derive_seed
from repro.workloads.adversary import BabblingIdiot
from repro.workloads.traffic import PeriodicSource


def _streams(name: str, seed: int) -> RngStreams:
    return RngStreams(derive_seed(seed, f"scenario/{name}"))


def _population(quick: bool) -> int:
    return 6 if quick else 10


def _victim_frames(victim: int):
    """Frames transmitted *by* ``victim`` itself, backend-neutral.

    Life-signs in both stacks carry the sender in the identifier's node
    field; FDA/RHA frames *about* a node are sent by others (and echoed
    in clusters), so matching those would fault the wrong transmitters.
    """
    types = (MessageType.ELS, MessageType.SWIM)

    def match(frame) -> bool:
        return frame.mid.mtype in types and frame.mid.node == victim

    return match


def _baseline_traffic(net: CanelyNetwork, count: int) -> List[PeriodicSource]:
    return [
        PeriodicSource(net.sim, net.node(node_id), period=ms(10),
                       offset=node_id * ms(1))
        for node_id in range(count)
    ]


@recipe("quiet-baseline",
        "fault-free bus, light traffic, one clean crash")
def quiet_baseline(backend: str, seed: int, quick: bool) -> ScenarioRun:
    rng = _streams("quiet-baseline", seed).stream("script")
    count = _population(quick)
    net = CanelyNetwork(count, backend=backend)
    scenario = net.scenario(seed=seed).bootstrap()
    _baseline_traffic(net, 2)
    victim = rng.randrange(count)
    scenario.crash(victim, at=ms(30)).run_for(ms(210))
    return ScenarioRun(scenario, detail={"victim": victim})


@recipe("babbling-idiot",
        "saturating top-priority babbler window (Fig. 11's admitted gap)")
def babbling_idiot(backend: str, seed: int, quick: bool) -> ScenarioRun:
    count = _population(quick)
    net = CanelyNetwork(count, backend=backend)
    scenario = net.scenario(seed=seed).bootstrap()
    _baseline_traffic(net, 2)
    # The babbler steals an id outside the member population and wedges
    # the bus for longer than the silence bound (Thb + Ttd), so every
    # starved life-sign becomes a wrongful suspicion.
    babbler = BabblingIdiot(net.sim, net.bus, node_id=count, gap=0)
    babble_start, babble_stop = ms(10), ms(50)
    scenario.at(babble_start, babbler.start)
    scenario.at(babble_stop, babbler.stop)
    scenario.run_for(ms(250))
    return ScenarioRun(
        scenario,
        detail={
            "babble_window_ms": [
                babble_start // ms(1), babble_stop // ms(1),
            ],
            "babble_frames": babbler.frames_submitted,
        },
    )


@recipe("bus-off-storm",
        "stochastic error storm driving the victim bus-off")
def bus_off_storm(backend: str, seed: int, quick: bool) -> ScenarioRun:
    streams = _streams("bus-off-storm", seed)
    rng = streams.stream("script")
    count = _population(quick)
    injector = FaultInjector(rng=streams.stream("faults"))
    net = CanelyNetwork(count, backend=backend, injector=injector)
    scenario = net.scenario(seed=seed).bootstrap()
    _baseline_traffic(net, count)
    victim = rng.randrange(count)
    storm_start, storm_stop = ms(20), ms(80)

    def raise_storm() -> None:
        injector.configure_stochastic(consistent_probability=0.2)
        # Mid-storm, the victim's own next life-sign takes the fault
        # that pushes it over the edge: the paper's sender-dies case.
        injector.fault_on_frame(
            _victim_frames(victim),
            FaultKind.CONSISTENT_OMISSION,
            crash_sender=True,
        )

    scenario.at(storm_start, raise_storm)
    scenario.at(
        storm_stop,
        lambda: injector.configure_stochastic(consistent_probability=0.0),
    )
    scenario.run_for(ms(260))
    return ScenarioRun(
        scenario,
        detail={
            "victim": victim,
            "storm_window_ms": [storm_start // ms(1), storm_stop // ms(1)],
            "omissions_injected": injector.omissions_injected,
        },
    )


@recipe("error-passive-flapping",
        "repeated omission bursts on one node's life-signs")
def error_passive_flapping(backend: str, seed: int, quick: bool) -> ScenarioRun:
    streams = _streams("error-passive-flapping", seed)
    rng = streams.stream("script")
    count = _population(quick)
    injector = FaultInjector()
    net = CanelyNetwork(count, backend=backend, injector=injector)
    scenario = net.scenario(seed=seed).bootstrap()
    _baseline_traffic(net, 2)
    victim = rng.randrange(count)
    # Each burst holds the victim's life-signs in error for longer than
    # the silence bound (Thb + Ttd), cycling it through error-passive
    # and bus-off; with bus-off recovery on, the victim comes back
    # between bursts — suspected, removed, alive again: a flapper.
    net.bus.bus_off_recovery = True
    burst = 150 if quick else 200
    bursts = [ms(10), ms(90), ms(170)]
    for at in bursts:
        scenario.at(
            at,
            lambda: injector.fault_on_frame(
                _victim_frames(victim),
                FaultKind.CONSISTENT_OMISSION,
                count=burst,
            ),
        )
    scenario.run_for(ms(320))
    return ScenarioRun(
        scenario,
        detail={
            "victim": victim,
            "burst_length": burst,
            "burst_at_ms": [at // ms(1) for at in bursts],
            "omissions_injected": injector.omissions_injected,
        },
    )


@recipe("inaccessibility-burst",
        "bounded inaccessibility windows around a crash")
def inaccessibility_burst(backend: str, seed: int, quick: bool) -> ScenarioRun:
    rng = _streams("inaccessibility-burst", seed).stream("script")
    count = _population(quick)
    net = CanelyNetwork(count, backend=backend)
    scenario = net.scenario(seed=seed).bootstrap()
    _baseline_traffic(net, 2)
    victim = rng.randrange(count)
    bursts = [ms(10), ms(45), ms(80)]
    bits = 8_000  # 8 ms of wedged wire per burst at 1 Mbit/s
    for at in bursts:
        scenario.inaccessibility(bits, at=at)
    scenario.crash(victim, at=ms(50)).run_for(ms(260))
    return ScenarioRun(
        scenario,
        detail={
            "victim": victim,
            "burst_at_ms": [at // ms(1) for at in bursts],
            "burst_bits": bits,
        },
    )


@recipe("join-leave-churn",
        "late joins and a voluntary leave around a crash")
def join_leave_churn(backend: str, seed: int, quick: bool) -> ScenarioRun:
    count = _population(quick)
    initial = list(range(count - 2))
    late = [count - 2, count - 1]
    net = CanelyNetwork(count, backend=backend)
    scenario = net.scenario(seed=seed).bootstrap(nodes=initial)
    _baseline_traffic(net, 2)
    leaver, victim = 1, 2
    scenario.join(late[0], at=ms(30)).join(late[1], at=ms(90))
    scenario.leave(leaver, at=ms(60))
    scenario.crash(victim, at=ms(120)).run_for(ms(300))
    return ScenarioRun(
        scenario,
        detail={"victim": victim, "leaver": leaver, "joiners": late},
    )


@recipe("bus-load-sweep",
        "staged load ramp to near saturation, crash at the peak")
def bus_load_sweep(backend: str, seed: int, quick: bool) -> ScenarioRun:
    rng = _streams("bus-load-sweep", seed).stream("script")
    count = _population(quick)
    net = CanelyNetwork(count, backend=backend)
    scenario = net.scenario(seed=seed).bootstrap()
    # Three superposed waves: every phase adds one source per node at a
    # shorter period, ramping the bus toward saturation.
    phases = [(0, ms(10)), (ms(60), ms(5)), (ms(120), ms(2))]
    for offset, period in phases:
        for node_id in range(count):
            PeriodicSource(
                net.sim, net.node(node_id), period=period,
                offset=offset + node_id * (ms(1) // 4),
            )
    victim = rng.randrange(count)
    scenario.crash(victim, at=ms(140)).run_for(ms(240))
    return ScenarioRun(
        scenario,
        detail={
            "victim": victim,
            "phase_period_ms": [period // ms(1) for _, period in phases],
        },
    )


@recipe("gateway-partition-stress",
        "bridged segments, congested gateway, remote-segment crash")
def gateway_partition_stress(backend: str, seed: int, quick: bool) -> ScenarioRun:
    count = _population(quick)
    net = CanelyNetwork(
        count,
        backend=backend,
        segments=2,
        gateway_latency=ms(1) // 2,
        gateway_queue_limit=4,
    )
    scenario = net.scenario(seed=seed).bootstrap()
    # Cross-segment load keeps the tiny gateway queue under pressure, so
    # remote detection rides a congested store-and-forward path.
    for node_id in range(count):
        PeriodicSource(net.sim, net.node(node_id), period=ms(5),
                       offset=node_id * (ms(1) // 2))
    victim = count - 1  # last node lives on segment 1
    scenario.crash(victim, at=ms(40)).run_for(ms(260))
    return ScenarioRun(
        scenario,
        detail={
            "victim": victim,
            "victim_segment": net.segment_map[victim],
            "gateway_queue_limit": 4,
        },
    )
