"""Unit tests for campaign specs and scenario results."""

import pytest

from repro.campaign import (
    VERDICT_OK,
    VERDICT_VIOLATION,
    VERDICTS,
    CampaignSpec,
    ScenarioResult,
)
from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.sim.rng import derive_seed


def test_scenario_seeds_derive_from_root_seed():
    spec = CampaignSpec(scenarios=5, seed=42)
    for index in range(5):
        assert spec.scenario_seed(index) == derive_seed(42, f"scenario/{index}")


def test_scenario_seeds_are_distinct_and_stable():
    spec = CampaignSpec(scenarios=50, seed=9)
    seeds = [spec.scenario_seed(i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [CampaignSpec(scenarios=50, seed=9).scenario_seed(i) for i in range(50)]


def test_different_root_seeds_give_different_scenarios():
    assert CampaignSpec(scenarios=1, seed=1).scenario_seed(0) != CampaignSpec(
        scenarios=1, seed=2
    ).scenario_seed(0)


def test_config_reflects_spec_parameters():
    spec = CampaignSpec(scenarios=1, tm_ms=40.0, thb_ms=8.0, tjoin_wait_ms=120.0)
    config = spec.config()
    assert config.tm == ms(40)
    assert config.thb == ms(8)
    assert config.tjoin_wait == ms(120)
    assert config.capacity == 16


def test_spec_roundtrips_through_dict():
    spec = CampaignSpec(scenarios=7, seed=3, node_min=4, node_max=6)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scenarios": 0},
        {"scenarios": 1, "node_min": 8, "node_max": 6},
        {"scenarios": 1, "node_min": 1},
        {"scenarios": 1, "node_max": 20, "capacity": 16},
        {"scenarios": 1, "crash_min": 3, "crash_max": 1},
        {"scenarios": 1, "consistent_probability": 0.8, "inconsistent_probability": 0.5},
        {"scenarios": 1, "inconsistent_probability": -0.1},
        {"scenarios": 1, "run_ms": 0},
        {"scenarios": 1, "backend": "raft"},
        {"scenarios": 1, "segments": 0},
        {"scenarios": 1, "segments": 7},  # > node_min
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        CampaignSpec(**kwargs)


def test_backend_and_segments_roundtrip_through_dict():
    spec = CampaignSpec(scenarios=2, backend="swim", segments=2)
    assert spec.backend == "swim"
    assert spec.segments == 2
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_result_roundtrips_through_dict():
    result = ScenarioResult(
        index=3,
        seed=123,
        verdict=VERDICT_VIOLATION,
        nodes=8,
        crashes=2,
        latencies=[5, 9],
        missed=1,
        injected_omissions=4,
        injected_inconsistent=1,
        metrics={"bus.tx": 12},
        detail="boom",
        violation_slice=[{"category": "msh.view"}],
        attempts=2,
        elapsed_s=0.5,
    )
    assert ScenarioResult.from_dict(result.to_dict()) == result


def test_result_from_dict_ignores_unknown_keys():
    result = ScenarioResult.from_dict(
        {"index": 1, "seed": 2, "verdict": VERDICT_OK, "someday": "maybe"}
    )
    assert result.index == 1
    assert result.ok


def test_verdict_vocabulary():
    assert VERDICT_OK in VERDICTS
    assert len(set(VERDICTS)) == 6
    assert not ScenarioResult(index=0, seed=0, verdict=VERDICT_VIOLATION).ok


def test_result_qos_summary_roundtrips_through_dict():
    result = ScenarioResult(
        index=0,
        seed=7,
        verdict=VERDICT_OK,
        qos={"detection_p50_ms": 13.486, "mistakes": 0, "flaps": 0},
    )
    restored = ScenarioResult.from_dict(result.to_dict())
    assert restored == result
    assert restored.qos["detection_p50_ms"] == 13.486
    # An old checkpoint line without the field loads with an empty qos.
    legacy = ScenarioResult.from_dict(
        {"index": 1, "seed": 2, "verdict": VERDICT_OK}
    )
    assert legacy.qos == {}
