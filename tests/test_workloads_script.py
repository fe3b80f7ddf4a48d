"""Unit tests for declarative scenario scripts."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.workloads.script import ScenarioReport, ScenarioSpec, run_scenario

BASIC = {
    "nodes": 5,
    "config": {"tm_ms": 50, "thb_ms": 10},
    "traffic": [{"node": 0, "period_ms": 5}],
    "events": [{"at_ms": 100, "action": "crash", "node": 3}],
    "duration_ms": 600,
}


def test_from_dict_basic():
    spec = ScenarioSpec.from_dict(BASIC)
    assert spec.nodes == 5
    assert spec.config.tm == 50_000_000
    assert len(spec.events) == 1
    assert spec.events[0].action == "crash"


def test_from_json_roundtrip():
    spec = ScenarioSpec.from_json(json.dumps(BASIC))
    assert spec.nodes == 5


def test_events_sorted_by_time():
    raw = dict(BASIC)
    raw["events"] = [
        {"at_ms": 300, "action": "leave", "node": 1},
        {"at_ms": 100, "action": "crash", "node": 3},
    ]
    spec = ScenarioSpec.from_dict(raw)
    assert [event.action for event in spec.events] == ["crash", "leave"]


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 0})
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "events": [{"action": "explode"}]})
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(
            {"nodes": 3, "events": [{"action": "crash", "node": 9, "at_ms": 1}]}
        )
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "traffic": [{"node": 0}]})
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "duration_ms": -5})


@pytest.mark.parametrize(
    "raw",
    [
        [1, 2],
        {"nodes": 3, "traffic": [3]},
        {"nodes": 3, "events": ["crash"]},
        {"nodes": 3, "events": {"action": "crash"}},
        {"nodes": 3, "config": [1]},
        {"nodes": 3, "config": {"bogus": 1}},
        {"nodes": 3, "config": {"tm_ms": "fast"}},
        {"nodes": 3, "events": [
            {"at_ms": 1, "action": "inaccessibility", "bits": "many"}]},
    ],
)
def test_every_shape_error_is_a_configuration_error(raw):
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(raw)


def test_torn_json_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        ScenarioSpec.from_json('{"nodes": 3,')


def test_run_scenario_crash_report():
    report = run_scenario(ScenarioSpec.from_dict(BASIC))
    assert report.views_agree
    assert report.final_view == [0, 1, 2, 4]
    assert report.crash_latencies_ms[3] is not None
    assert report.crash_latencies_ms[3] < 30
    assert report.physical_frames > 0
    assert "ELS" in report.frames_by_type


def test_run_scenario_join_after_crash():
    raw = dict(BASIC)
    raw["events"] = [
        {"at_ms": 100, "action": "crash", "node": 3},
        {"at_ms": 400, "action": "join", "node": 3, "recover": True},
    ]
    raw["duration_ms"] = 1200
    report = run_scenario(ScenarioSpec.from_dict(raw))
    assert report.views_agree
    assert report.final_view == [0, 1, 2, 3, 4]


def test_run_scenario_leave():
    raw = dict(BASIC)
    raw["events"] = [{"at_ms": 100, "action": "leave", "node": 2}]
    report = run_scenario(ScenarioSpec.from_dict(raw))
    assert report.final_view == [0, 1, 3, 4]


def test_run_scenario_inaccessibility():
    raw = dict(BASIC)
    raw["events"] = [
        {"at_ms": 100, "action": "inaccessibility", "bits": 2880}
    ]
    report = run_scenario(ScenarioSpec.from_dict(raw))
    assert report.views_agree
    assert report.final_view == [0, 1, 2, 3, 4]  # the window is tolerated


def test_report_serializes():
    report = run_scenario(ScenarioSpec.from_dict(BASIC))
    encoded = json.dumps(report.to_dict())
    decoded = json.loads(encoded)
    assert decoded["views_agree"] is True


def test_cli_run(tmp_path, capsys):
    from repro.__main__ import main

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(BASIC))
    assert main(["run", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert '"views_agree": true' in out


def test_dual_channel_scenario_with_channel_failure():
    raw = {
        "nodes": 4,
        "channels": 2,
        "config": {"tm_ms": 50, "thb_ms": 10},
        "events": [
            {"at_ms": 100, "action": "fail_channel", "channel": 0},
            {"at_ms": 200, "action": "crash", "node": 2},
        ],
        "duration_ms": 600,
    }
    report = run_scenario(ScenarioSpec.from_dict(raw))
    assert report.views_agree
    assert report.final_view == [0, 1, 3]
    assert report.crash_latencies_ms[2] is not None


def test_fail_channel_requires_dual():
    raw = dict(BASIC)
    raw["events"] = [{"at_ms": 1, "action": "fail_channel", "channel": 0}]
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(raw)


def test_bad_channel_values_rejected():
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "channels": 3})
    raw = {
        "nodes": 3,
        "channels": 2,
        "events": [{"at_ms": 1, "action": "fail_channel", "channel": 5}],
    }
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(raw)


def test_backend_and_segments_fields_run_end_to_end():
    raw = dict(BASIC)
    raw["backend"] = "swim"
    raw["segments"] = 2
    spec = ScenarioSpec.from_dict(raw)
    assert spec.backend == "swim"
    assert spec.segments == 2
    report = run_scenario(spec)
    assert report.views_agree
    assert report.final_view == [0, 1, 2, 4]


def test_backend_and_segments_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "backend": "raft"})
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "segments": 0})
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 3, "segments": 4})
    # Dual-channel scenarios support only the default topology/backend.
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(
            {"nodes": 3, "channels": 2, "backend": "swim"}
        )
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict({"nodes": 4, "channels": 2, "segments": 2})


def test_monitors_judge_a_swim_scenario():
    raw = dict(BASIC)
    raw["backend"] = "swim"
    report = run_scenario(ScenarioSpec.from_dict(raw), monitors=True)
    assert report.views_agree
