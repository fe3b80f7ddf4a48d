"""Unit tests for the Fig. 1 / Fig. 11 comparison tables and the
head-to-head backend probe behind ``repro compare``."""

import json

import pytest

from repro.analysis.comparison import (
    compare_backends,
    fig1_rows,
    fig11_rows,
    probe_backend,
)
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.core import stack
from repro.errors import ConfigurationError
from repro.sim.clock import ms


def test_fig1_structure():
    rows = fig1_rows()
    assert all(len(row) == 3 for row in rows)
    parameters = [row[0] for row in rows]
    assert "Membership service" in parameters
    assert "Babbling idiot avoidance" in parameters


def test_fig1_membership_contrast():
    membership = next(r for r in fig1_rows() if r[0] == "Membership service")
    assert membership[1] == "provided"
    assert membership[2] == "not provided"


def test_fig11_structure():
    rows = fig11_rows()
    assert all(len(row) == 4 for row in rows)


def test_fig11_inaccessibility_cells():
    row = next(r for r in fig11_rows() if r[0] == "Inaccessibility duration")
    assert "2880" in row[2]  # standard CAN
    assert "14" in row[3]  # CANELy keeps the same lower bound


def test_fig11_canely_provides_membership():
    row = next(r for r in fig11_rows() if r[0] == "Membership")
    assert row[2] == "not provided"
    assert "ms" in row[3]


def test_fig11_measured_overrides():
    rows = fig11_rows(
        measured={
            "membership": "12.3 ms measured",
            "clock": "16.5 us measured",
            "inaccessibility": "14 - 2190 bit-times derived",
        }
    )
    cells = {row[0]: row[3] for row in rows}
    assert cells["Membership"] == "12.3 ms measured"
    assert cells["Clock synchronization"] == "16.5 us measured"
    assert "2190" in cells["Inaccessibility duration"]


# -- probe_backend / compare_backends ----------------------------------------------


def test_compare_same_seed_is_byte_identical():
    first, second = (
        json.dumps(compare_backends(nodes=6, seed=4, run_ms=300), sort_keys=True)
        for _ in range(2)
    )
    assert first == second


@pytest.mark.parametrize("backend", ["canely", "swim"])
def test_probe_headlines_are_reads_of_the_qos_result_and_the_verdict(backend):
    probe = probe_backend(backend, nodes=8, seed=1, run_ms=300)
    assert probe.converged and probe.final_view_ok
    assert probe.survivors == probe.notified == 7
    assert probe.mistakes == probe.qos["mistakes"] == 0
    assert probe.flaps == probe.qos["flaps"] == 0
    assert probe.qos["completeness"] == 1.0
    # Seven latencies: nearest-rank p99 is the last survivor's.
    assert probe.detection_last_ms == probe.qos["detection_p99_ms"]
    assert (
        probe.detection_first_ms
        <= probe.qos["detection_p50_ms"]
        <= probe.detection_last_ms
    )
    encoded = probe.to_dict()
    assert encoded["detection_first_ms"] == round(probe.detection_first_ms, 3)


def test_two_segment_probe_reports_gateway_counters():
    probe = probe_backend("canely", nodes=8, segments=2, seed=0, run_ms=300)
    assert probe.segments == 2 and probe.final_view_ok
    assert probe.gateway_forwarded > 0
    assert probe.gateway_dropped == 0
    single = probe_backend("canely", nodes=8, seed=0, run_ms=300)
    assert single.gateway_forwarded == single.gateway_dropped == 0


def test_probe_mistakes_are_the_qos_mistakes(monkeypatch):
    """The flapping recipe's fault pattern — an omission burst on one live
    node's top-priority life-signs — starves the bus until the membership
    collapses onto node 1: ``mistakes`` is the QoS engine's count over all
    correct observers, not the one-observer tally it used to be (4)."""
    real = stack.CanelyNetwork

    def flapping_network(**kwargs):
        injector = FaultInjector()
        net = real(injector=injector, **kwargs)
        net.bus.bus_off_recovery = True
        injector.fault_on_frame(
            lambda frame: net.sim.now > ms(500)
            and frame.mid.mtype is MessageType.ELS
            and frame.mid.node == 2,
            FaultKind.CONSISTENT_OMISSION,
            count=150,
        )
        return net

    monkeypatch.setattr(stack, "CanelyNetwork", flapping_network)
    probe = probe_backend("canely", nodes=6, seed=0, run_ms=400)
    assert probe.victim != 2
    # Five observers each wrongly removed the four live nodes 2..5.
    assert probe.mistakes == probe.qos["mistakes"] == 20
    assert probe.flaps == probe.qos["flaps"] == 0
    assert not probe.final_view_ok  # node 2 is alive and expected


def test_probe_rejects_a_population_without_a_survivor():
    with pytest.raises(ConfigurationError, match="survivor"):
        probe_backend("canely", nodes=1)
