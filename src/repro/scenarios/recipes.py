"""The built-in scenario catalog.

Eight named recipes spanning the paper's fault menagerie plus the
baseline. A recipe is a pure function ``(backend, seed, quick) ->
(Scenario, detail)``: it draws its victim from its own random streams and
returns a plain-data :class:`~repro.workloads.scenario.Scenario` plus the
facts worth reporting about it. The fault injection and load shaping all
happen at the bus/controller level, so the same recipe runs unchanged
against the CANELy stack and any rival backend, each on its own default
configuration, and the QoS engine judges both against the same ground
truth. :data:`CATALOG` maps every name to its recipe.

Fixed horizons — not ``run_until_settled`` — are deliberate: several
recipes *end* in a legitimately unsettled state (a babbled-out
membership, an unrefuted suspicion) and the QoS readout must include that
tail.

All randomness flows from ``derive_seed(seed, "scenario/<name>")`` via
:class:`~repro.sim.rng.RngStreams`, so a (name, backend, seed, quick)
tuple fully determines the run — the byte-identical-report contract.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.sim.rng import RngStreams, derive_seed
from repro.workloads.scenario import Action, Scenario, on_defaults

Detail = Dict[str, Any]
#: What a recipe returns: the scenario to play and the facts to report.
Cell = Tuple[Scenario, Detail]
Recipe = Callable[[str, int, bool], Cell]


def _victim(name: str, seed: int, count: int) -> int:
    """The victim, drawn from the recipe's own ``script`` stream."""
    stream = RngStreams(derive_seed(seed, f"scenario/{name}")).stream("script")
    return stream.randrange(count)


def _population(quick: bool) -> int:
    return 6 if quick else 10


def _victim_omission(backend: str, victim: int, **settings: Any) -> Action:
    """A consistent omission of life-signs transmitted *by* ``victim``
    itself: ELS on CANELy, heartbeats on SWIM.

    Life-signs in both stacks carry the sender in the identifier's node
    field; FDA/RHA frames *about* a node are sent by others (and echoed
    in clusters), so matching those would fault the wrong transmitters.
    """
    frame_type = "SWIM" if backend == "swim" else "ELS"
    return Action("omit", node=victim, frame_type=frame_type, **settings)


def _baseline_traffic(count: int) -> List[Tuple[int, float, float]]:
    """One 10 ms source on each of the first ``count`` nodes, staggered
    1 ms apart."""
    return [(node_id, 10.0, float(node_id)) for node_id in range(count)]


#: The light load most recipes run under: the baseline on nodes 0 and 1.
_LIGHT_TRAFFIC = _baseline_traffic(2)


def quiet_baseline(backend: str, seed: int, quick: bool) -> Cell:
    """Fault-free bus, light traffic, one clean crash."""
    count = _population(quick)
    victim = _victim("quiet-baseline", seed, count)
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=210.0,
        traffic=_LIGHT_TRAFFIC,
        actions=[Action("crash", node=victim, at_ms=30.0)],
    )
    return scenario, {"victim": victim}


def babbling_idiot(backend: str, seed: int, quick: bool) -> Cell:
    """A saturating top-priority babbler window (Fig. 11's admitted gap).

    The babbler steals an id outside the member population and wedges the
    bus for longer than the silence bound (Thb + Ttd), so every starved
    life-sign becomes a wrongful suspicion.
    """
    count = _population(quick)
    start, stop = 10, 50
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=250.0,
        traffic=_LIGHT_TRAFFIC,
        # 1000 bit times per ms at 1 Mbit/s.
        actions=[Action("babble", at_ms=start, bits=(stop - start) * 1000)],
    )
    return scenario, {"babble_window_ms": [start, stop]}


def bus_off_storm(backend: str, seed: int, quick: bool) -> Cell:
    """A stochastic error storm driving the victim bus-off.

    Mid-storm, the victim's own next life-sign takes the fault that pushes
    it over the edge: the paper's sender-dies case. The scenario's seed is
    the recipe's derived one, so the storm draws from the recipe's own
    ``faults`` stream.
    """
    count = _population(quick)
    victim = _victim("bus-off-storm", seed, count)
    start, stop = 20, 80
    scenario = on_defaults(
        backend, nodes=count, members=count, run_ms=260.0,
        seed=derive_seed(seed, "scenario/bus-off-storm"),
        traffic=_baseline_traffic(count),
        actions=[
            Action("storm", at_ms=start, bits=(stop - start) * 1000,
                   probability=0.2),
            _victim_omission(backend, victim, at_ms=start, crash_sender=True),
        ],
    )
    return scenario, {"victim": victim, "storm_window_ms": [start, stop]}


def error_passive_flapping(backend: str, seed: int, quick: bool) -> Cell:
    """Repeated omission bursts on one node's life-signs.

    Each burst holds the victim's life-signs in error for longer than the
    silence bound (Thb + Ttd), cycling it through error-passive and
    bus-off; with bus-off recovery on, the victim comes back between
    bursts — suspected, removed, alive again: a flapper.
    """
    count = _population(quick)
    victim = _victim("error-passive-flapping", seed, count)
    burst = 150 if quick else 200
    bursts = [10, 90, 170]
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=320.0,
        traffic=_LIGHT_TRAFFIC, bus_off_recovery=True,
        actions=[
            _victim_omission(backend, victim, at_ms=at, count=burst)
            for at in bursts
        ],
    )
    return scenario, {
        "victim": victim, "burst_length": burst, "burst_at_ms": bursts,
    }


def inaccessibility_burst(backend: str, seed: int, quick: bool) -> Cell:
    """Bounded inaccessibility windows around a crash: 8 ms of wedged wire
    per burst at 1 Mbit/s."""
    count = _population(quick)
    victim = _victim("inaccessibility-burst", seed, count)
    bursts = [10, 45, 80]
    bits = 8_000
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=260.0,
        traffic=_LIGHT_TRAFFIC,
        actions=[
            *[Action("inaccessibility", at_ms=at, bits=bits) for at in bursts],
            Action("crash", node=victim, at_ms=50.0),
        ],
    )
    return scenario, {"victim": victim, "burst_at_ms": bursts, "burst_bits": bits}


def join_leave_churn(backend: str, seed: int, quick: bool) -> Cell:
    """Late joins and a voluntary leave around a crash."""
    count = _population(quick)
    late = [count - 2, count - 1]
    leaver, victim = 1, 2
    scenario = on_defaults(
        backend, nodes=count, members=count - 2, seed=seed, run_ms=300.0,
        traffic=_LIGHT_TRAFFIC,
        actions=[
            Action("join", node=late[0], at_ms=30.0),
            Action("join", node=late[1], at_ms=90.0),
            Action("leave", node=leaver, at_ms=60.0),
            Action("crash", node=victim, at_ms=120.0),
        ],
    )
    return scenario, {"victim": victim, "leaver": leaver, "joiners": late}


def bus_load_sweep(backend: str, seed: int, quick: bool) -> Cell:
    """A staged load ramp to near saturation, crash at the peak.

    Three superposed waves: every phase adds one source per node at a
    shorter period, ramping the bus toward saturation.
    """
    count = _population(quick)
    victim = _victim("bus-load-sweep", seed, count)
    phases = [(0, 10), (60, 5), (120, 2)]
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=240.0,
        traffic=[
            (node_id, float(period), offset + node_id / 4)
            for offset, period in phases
            for node_id in range(count)
        ],
        actions=[Action("crash", node=victim, at_ms=140.0)],
    )
    return scenario, {
        "victim": victim, "phase_period_ms": [period for _, period in phases],
    }


def gateway_partition_stress(backend: str, seed: int, quick: bool) -> Cell:
    """Bridged segments, a congested gateway, a remote-segment crash.

    Cross-segment load keeps the tiny gateway queue under pressure, so
    remote detection rides a congested store-and-forward path. The victim,
    the last node, lives on segment 1.
    """
    count = _population(quick)
    victim = count - 1
    segments, queue_limit = 2, 4
    scenario = on_defaults(
        backend, nodes=count, members=count, seed=seed, run_ms=260.0,
        segments=segments, gateway_latency_ms=0.5,
        gateway_queue_limit=queue_limit,
        traffic=[(node_id, 5.0, node_id / 2) for node_id in range(count)],
        actions=[Action("crash", node=victim, at_ms=40.0)],
    )
    return scenario, {
        "victim": victim,
        "victim_segment": victim * segments // count,
        "gateway_queue_limit": queue_limit,
    }


#: Every catalog name -> its recipe.
CATALOG: Dict[str, Recipe] = {
    "quiet-baseline": quiet_baseline,
    "babbling-idiot": babbling_idiot,
    "bus-off-storm": bus_off_storm,
    "error-passive-flapping": error_passive_flapping,
    "inaccessibility-burst": inaccessibility_burst,
    "join-leave-churn": join_leave_churn,
    "bus-load-sweep": bus_load_sweep,
    "gateway-partition-stress": gateway_partition_stress,
}


def scenario_names() -> List[str]:
    """The catalog's scenario names, sorted."""
    return sorted(CATALOG)
