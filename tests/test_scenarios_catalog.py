"""The named scenario catalog and its QoS reports.

The catalog contract: every recipe is plain data, runnable by name
against every registered backend, same-seed runs are byte-identical, and
the pinned quality ordering on the quiet baseline — CANELy detects faster
than the SWIM rival at the defaults — holds exactly.
"""

import json

import pytest

from repro.errors import ConfigurationError, ScenarioError
from repro.scenarios import CATALOG as RECIPES
from repro.scenarios import QoSReport, run_catalog, scenario_names
from repro.workloads import Scenario


def one_cell(name, backend="canely", seed=0, quick=False):
    """The one outcome of a one-cell catalog run."""
    [outcome] = run_catalog([name], backends=[backend], seed=seed,
                            quick=quick).outcomes
    return outcome


CATALOG = [
    "babbling-idiot",
    "bus-load-sweep",
    "bus-off-storm",
    "error-passive-flapping",
    "gateway-partition-stress",
    "inaccessibility-burst",
    "join-leave-churn",
    "quiet-baseline",
]


# -- the catalog is data ----------------------------------------------------


def test_catalog_names_are_sorted_and_complete():
    assert scenario_names() == CATALOG == sorted(RECIPES)


@pytest.mark.parametrize("backend", ["canely", "swim"])
@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("name", CATALOG)
def test_every_recipe_round_trips_through_json(name, quick, backend):
    scenario, detail = RECIPES[name](backend, 3, quick)
    assert scenario.backend == backend
    text = json.dumps(scenario.to_dict(), sort_keys=True)
    assert Scenario.from_dict(json.loads(text)) == scenario
    json.dumps(detail)


def test_an_unknown_name_fails_before_any_cell_runs(monkeypatch):
    def play(scenario):
        raise AssertionError("a cell ran before every name resolved")

    monkeypatch.setattr("repro.scenarios.runner.play", play)
    with pytest.raises(ConfigurationError, match="unknown scenario 'nonsense'"):
        run_catalog(["quiet-baseline", "nonsense"])


# -- running recipes ---------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_every_recipe_runs_quick_on_canely(name):
    outcome = one_cell(name, backend="canely", seed=0, quick=True)
    assert outcome.scenario == name
    assert outcome.backend == "canely"
    readout = outcome.qos.to_dict()
    assert readout["observers"] > 0
    assert readout["window_ms"]["duration"] > 0
    # The readout always serializes, whatever the scenario did.
    json.loads(outcome.qos.to_json())


@pytest.mark.parametrize(
    "backend, complaint",
    [
        ("canely", "not members: [4, 9]"),
        ("swim", "views differ from the most common one"),
    ],
    ids=["canely", "swim"],
)
def test_full_size_gateway_stress_says_which_bootstrap_condition_failed(
    backend, complaint
):
    """The full-size recipe cannot bootstrap yet (ROADMAP 1(a); this test
    goes when that is fixed). Until then the error names what failed: on
    CANELy the lowest-priority node of each segment never joins, on SWIM
    everybody is a member and the two segments hold different views."""
    with pytest.raises(ScenarioError) as excinfo:
        one_cell("gateway-partition-stress", backend=backend, seed=0)
    assert complaint in str(excinfo.value)


def test_unknown_backend_raises():
    with pytest.raises(ConfigurationError):
        one_cell("quiet-baseline", backend="nonsense", quick=True)


def test_run_recipe_same_seed_is_byte_identical():
    first = one_cell("quiet-baseline", seed=7, quick=True)
    second = one_cell("quiet-baseline", seed=7, quick=True)
    assert first.qos.to_json() == second.qos.to_json()
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_run_recipe_seed_changes_the_run():
    first = one_cell("quiet-baseline", seed=0, quick=True)
    second = one_cell("quiet-baseline", seed=1, quick=True)
    # The victim and crash instant are seed-derived; the readouts differ.
    assert first.to_dict() != second.to_dict()


# -- catalog reports ---------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_report():
    return run_catalog(
        scenarios=["quiet-baseline"],
        backends=("canely", "swim"),
        seed=0,
        quick=True,
    )


def test_catalog_report_shape(baseline_report):
    report = baseline_report
    assert isinstance(report, QoSReport)
    assert report.scenarios == ["quiet-baseline"]
    assert report.backends == ["canely", "swim"]
    assert len(report.outcomes) == 2
    assert report.outcome("quiet-baseline", "swim").backend == "swim"


def test_catalog_report_json_is_deterministic(baseline_report):
    again = run_catalog(
        scenarios=["quiet-baseline"],
        backends=("canely", "swim"),
        seed=0,
        quick=True,
    )
    assert baseline_report.to_json() == again.to_json()


def test_catalog_csv_has_the_stable_columns(baseline_report):
    lines = baseline_report.to_csv().splitlines()
    assert lines[0] == ",".join(QoSReport.CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("quiet-baseline,canely,")
    assert lines[2].startswith("quiet-baseline,swim,")


def test_catalog_render_mentions_the_qos_columns(baseline_report):
    table = baseline_report.render()
    assert "det p50 ms" in table
    assert "λ_M /node·s" in table
    assert "quiet-baseline" in table


# -- the pinned cross-backend ordering ---------------------------------------


def test_golden_quiet_baseline_canely_beats_swim(baseline_report):
    """Golden pin: at the paper defaults (Thb=10ms, Ttd=6ms) CANELy's
    silence-bound detection beats SWIM's 10ms probe rounds on the quiet
    baseline, and both detect completely with no mistakes."""
    canely = baseline_report.outcome("quiet-baseline", "canely").qos
    swim = baseline_report.outcome("quiet-baseline", "swim").qos
    canely_summary = canely.summary()
    swim_summary = swim.summary()
    assert canely_summary["detection_p50_ms"] == 13.486
    assert swim_summary["detection_p50_ms"] == 40.32
    assert (
        canely_summary["detection_p50_ms"]
        < swim_summary["detection_p50_ms"]
    )
    for summary in (canely_summary, swim_summary):
        assert summary["completeness"] == 1.0
        assert summary["mistakes"] == 0
    assert canely.query_accuracy > swim.query_accuracy


def test_flapping_scenario_differentiates_the_backends():
    """Error-passive flapping is where the designs part ways: SWIM's
    probe/ack cycle refutes its wrongful removals (flaps), CANELy's
    membership removes permanently and never readmits."""
    canely = one_cell(
        "error-passive-flapping", backend="canely", seed=0, quick=True
    ).qos
    swim = one_cell(
        "error-passive-flapping", backend="swim", seed=0, quick=True
    ).qos
    assert len(canely.mistakes) > 0
    assert all(not mistake.refuted for mistake in canely.mistakes)
    assert canely.flaps == 0
    assert len(swim.mistakes) > 0
    assert all(mistake.refuted for mistake in swim.mistakes)
    assert swim.flaps == len(swim.mistakes)
