"""Smoke tests for the ``python -m repro`` command-line front end."""

import json
import pathlib

import pytest

from repro.__main__ import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "crashed" in out
    assert "agreement: ok" in out


# -- the paper's figures: exactly the tables benchmarks/results/ commits --------


def test_fig1(capsys):
    assert main(["fig1"]) == 0
    assert capsys.readouterr().out == (RESULTS / "fig01_ttp_vs_can.txt").read_text()


def test_fig10_defaults(capsys):
    assert main(["fig10"]) == 0
    out = capsys.readouterr().out
    assert out == (RESULTS / "fig10_bandwidth_analytic.txt").read_text()


def test_fig11(capsys):
    assert main(["fig11"]) == 0
    out = capsys.readouterr().out
    assert out == (RESULTS / "fig11_canely_attributes.txt").read_text()


def test_inaccessibility(capsys):
    """``fig11`` carries the inaccessibility catalogue with both ranges
    (standard CAN 14 - 2880, CANELy 14 - 2190 bit-times)."""
    assert main(["fig11"]) == 0
    out = capsys.readouterr().out
    assert "14 - 2880" in out
    assert "error burst, CANELy" in out


def test_bounds(capsys):
    assert main(["bounds", "--thb", "20", "--tm", "100"]) == 0
    out = capsys.readouterr().out
    assert "consistent view update" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_demo_with_timeline(capsys):
    assert main(["demo", "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline around the crash" in out
    assert "FDA" in out
    assert "summary:" in out


SCENARIO = """{
  "nodes": 4,
  "events": [{"at_ms": 100, "action": "crash", "node": 2}],
  "duration_ms": 400
}"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(SCENARIO)
    return str(path)


def test_trace_summary_table(capsys, scenario_file):
    assert main(["trace", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "Trace:" in out
    assert "bus.tx" in out


def test_trace_category_filter(capsys, scenario_file):
    assert main(
        ["trace", "--scenario", scenario_file, "--category", "fda.nty",
         "--limit", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "matching records" in out
    assert "'category': 'fda.nty'" in out


def test_trace_export_jsonl(capsys, scenario_file, tmp_path):
    import json

    target = tmp_path / "out.jsonl"
    assert main(
        ["trace", "--scenario", scenario_file, "--category", "node.crash",
         "--export", str(target)]
    ) == 0
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert [entry["category"] for entry in lines] == ["node.crash"]
    assert lines[0]["node"] == 2


def test_metrics_report(capsys, scenario_file):
    assert main(["metrics", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "fd.detections" in out
    assert "msh.views_installed" in out
    assert "fd.detection_latency_ticks{node=2}" in out


def test_run_with_monitors(capsys, scenario_file):
    assert main(["run", scenario_file, "--monitors"]) == 0
    out = capsys.readouterr().out
    assert '"views_agree": true' in out


CAMPAIGN_ARGS = [
    "campaign", "--scenarios", "2", "--seed", "3",
    "--node-min", "4", "--node-max", "5",
    "--crash-min", "1", "--crash-max", "1",
]


def test_campaign_summary_table(capsys):
    assert main(CAMPAIGN_ARGS + ["--workers", "0"]) == 0
    out = capsys.readouterr().out
    assert "completed ok" in out
    assert "analytic bound" in out


def test_campaign_verbose_json_and_report(capsys, tmp_path):
    import json

    report_path = tmp_path / "report.json"
    assert main(
        CAMPAIGN_ARGS
        + ["--workers", "0", "--verbose", "--format", "json",
           "--report", str(report_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "scenario   0" in out and "scenario   1" in out
    report = json.loads(report_path.read_text())
    assert report["success"] is True
    assert report["verdicts"]["ok"] == 2
    # The printed document is the written one: one serializer, sorted keys.
    printed = out.split("report written to")[0]
    assert printed[printed.index("{"):].strip() == report_path.read_text().strip()
    assert list(report) == sorted(report)


def test_campaign_checkpoint_resume(capsys, tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    assert main(CAMPAIGN_ARGS + ["--workers", "0", "--checkpoint", checkpoint]) == 0
    capsys.readouterr()
    # Resuming a finished campaign runs nothing new but reports all of it.
    assert main(
        CAMPAIGN_ARGS
        + ["--workers", "0", "--checkpoint", checkpoint, "--resume", "--verbose"]
    ) == 0
    out = capsys.readouterr().out
    assert "scenario   0" not in out  # nothing reran
    assert "completed ok" in out


def _without_elapsed(value):
    """``value`` with every ``elapsed_s`` entry dropped, at any depth."""
    if isinstance(value, dict):
        return {
            key: _without_elapsed(item)
            for key, item in value.items()
            if key != "elapsed_s"
        }
    if isinstance(value, list):
        return [_without_elapsed(item) for item in value]
    return value


def test_campaign_in_process_and_pooled_agree(capsys, tmp_path):
    """``--workers 0`` and ``--workers 2`` write the same report and the
    same checkpoint, once wall-clock times are dropped and the
    checkpoint's completion order is sorted away."""
    outputs = {}
    for workers in ("0", "2"):
        report = tmp_path / f"report-{workers}.json"
        checkpoint = tmp_path / f"campaign-{workers}.jsonl"
        main(
            ["campaign", "--scenarios", "6", "--seed", "1", "--workers", workers,
             "--format", "json", "--report", str(report),
             "--checkpoint", str(checkpoint)]
        )
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        outputs[workers] = (
            _without_elapsed(json.loads(report.read_text())),
            _without_elapsed(sorted(lines, key=lambda line: line["index"])),
        )
    capsys.readouterr()
    assert len(outputs["0"][1]) == 6
    assert outputs["0"] == outputs["2"]


# -- repro check --------------------------------------------------------------------


def test_check_small_sweep_all_ok(capsys):
    assert main(
        ["check", "--depth", "1", "--nodes", "4", "--members", "3",
         "--workers", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "every invariant held on every schedule" in out
    assert "ok=" in out


def test_check_selftest_and_replay(capsys, tmp_path):
    artifact = str(tmp_path / "cex.jsonl")
    assert main(
        ["check", "--selftest", "--mutation", "fda-duplicate-delivery",
         "--artifact", artifact]
    ) == 0
    out = capsys.readouterr().out
    assert "selftest [fda-duplicate-delivery]: PASS" in out
    assert "replay bit-for-bit: ok" in out
    # The artifact records the planted mutation; --replay re-plants it and
    # must reproduce the violating trace bit-for-bit.
    assert main(["check", "--replay", artifact]) == 0
    out = capsys.readouterr().out
    assert "re-planting recorded mutation [fda-duplicate-delivery]" in out
    assert "replay ok" in out
    assert "bit-for-bit" in out


def test_check_replay_mismatch_fails(capsys, tmp_path):
    """Stripping the mutation key from the header leaves an artifact clean
    code cannot reproduce: replay must fail, not shrug."""
    import json

    artifact = tmp_path / "cex.jsonl"
    assert main(
        ["check", "--selftest", "--mutation", "fda-duplicate-delivery",
         "--artifact", str(artifact)]
    ) == 0
    capsys.readouterr()
    lines = artifact.read_text().splitlines()
    header = json.loads(lines[0])
    del header["mutation"]
    lines[0] = json.dumps(header)
    artifact.write_text("\n".join(lines) + "\n")
    assert main(["check", "--replay", str(artifact)]) == 1
    out = capsys.readouterr().out
    assert "replay FAILED" in out
    assert "did not reproduce" in out


def test_trace_combined_category_node_and_window_filters(capsys, scenario_file, tmp_path):
    """Regression: --category, --node and the --start-ms/--end-ms window
    must all apply in a single invocation."""
    import json

    target = tmp_path / "window.jsonl"
    assert main(
        ["trace", "--scenario", scenario_file, "--category", "bus.deliver",
         "--node", "0", "--start-ms", "150", "--end-ms", "250",
         "--export", str(target)]
    ) == 0
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert lines, "the post-bootstrap window carries traffic to node 0"
    for entry in lines:
        assert entry["category"] == "bus.deliver"
        # A delivery is one row per frame: --node selects the rows whose
        # receiver set holds the node.
        assert entry["node"] == -1
        assert 0 in entry["data"]["receivers"]
        assert 150_000_000 <= entry["time"] <= 250_000_000
    # The same filters without the window match strictly more records.
    unwindowed = tmp_path / "all.jsonl"
    assert main(
        ["trace", "--scenario", scenario_file, "--category", "bus.deliver",
         "--node", "0", "--export", str(unwindowed)]
    ) == 0
    assert len(unwindowed.read_text().splitlines()) > len(lines)
    # Node 2 crashes mid-run: fewer deliveries reach it than reach node 0.
    crashed = tmp_path / "crashed.jsonl"
    assert main(
        ["trace", "--scenario", scenario_file, "--category", "bus.deliver",
         "--node", "2", "--export", str(crashed)]
    ) == 0
    to_crashed = crashed.read_text().splitlines()
    assert 0 < len(to_crashed) < len(unwindowed.read_text().splitlines())
    assert all(2 in json.loads(line)["data"]["receivers"] for line in to_crashed)


def test_trace_window_alone_prints_matches(capsys, scenario_file):
    assert main(
        ["trace", "--scenario", scenario_file, "--start-ms", "99",
         "--end-ms", "101", "--limit", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "matching records" in out
    assert "'category': 'node.crash'" in out or "node.crash" in out


# -- repro spans --------------------------------------------------------------------


SPANS_ARGS = ["spans", "--nodes", "4", "--seed", "0", "--crash", "2"]


def test_spans_summary_table(capsys):
    assert main(SPANS_ARGS) == 0
    out = capsys.readouterr().out
    assert "Spans:" in out
    assert "fd.surveillance" in out
    assert "fda.nty" in out
    assert "p99<=" in out


def test_spans_summary_lists_what_it_left_open_by_kind(capsys):
    assert main(SPANS_ARGS) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    # The deadlines and cycle timers still armed when the run stopped —
    # counted per kind, no cause guessed.
    assert "span(s) open when the run stopped" in last
    assert "timers/fd.surveillance" in last and "timers/msh.cycle" in last
    assert "crashed-node" not in last
    total = int(last.split()[0])
    assert total == sum(
        int(part.split()[0]) for part in last.split(": ", 1)[1].split(", ")
    )


def test_spans_critical_path(capsys):
    assert main(SPANS_ARGS + ["--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "detection of node 2" in out
    assert "notification of node 2" in out
    assert "view-update of node 2" in out
    assert "surveillance-wait" in out
    assert "cycle-wait" in out


def test_spans_chrome_export_and_validate(capsys, tmp_path):
    import json

    target = tmp_path / "trace.json"
    assert main(
        SPANS_ARGS + ["--chrome", str(target), "--validate", "--flows"]
    ) == 0
    out = capsys.readouterr().out
    assert "chrome trace written" in out
    assert "0 problems" in out
    payload = json.loads(target.read_text())
    assert payload["traceEvents"]


def test_spans_tree(capsys):
    assert main(SPANS_ARGS + ["--tree"]) == 0
    out = capsys.readouterr().out
    assert "fd.surveillance" in out
    assert "fd.detect" in out
    assert "fda.nty" in out


def test_spans_msc(capsys):
    assert main(SPANS_ARGS + ["--msc"]) == 0
    out = capsys.readouterr().out
    assert "crash" in out
    assert "n0" in out and "n3" in out


def test_spans_rejects_bad_crash_node(capsys):
    assert main(["spans", "--nodes", "4", "--crash", "9"]) == 2
    assert capsys.readouterr().out == "error: --crash 9 outside 0..3\n"


def test_metrics_format_json(capsys, scenario_file):
    assert main(
        ["metrics", "--scenario", scenario_file, "--format", "json"]
    ) == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out)
    assert "fd.detections" in snapshot
    # Deterministic key order: the document is sorted.
    assert list(snapshot) == sorted(snapshot)


def test_metrics_format_csv(capsys, scenario_file):
    assert main(
        ["metrics", "--scenario", scenario_file, "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "metric,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert any(name.startswith("fd.detections") for name in names)
    # Metrics are emitted in sorted order; histogram bucket rows keep
    # their boundary order (so +inf comes last, not first).
    top_level = [name.split(".buckets.")[0] for name in names]
    assert top_level == sorted(top_level)


QOS_ARGS = ["qos", "--scenario", "quiet-baseline", "--quick", "--seed", "0"]


def test_qos_table(capsys):
    assert main(QOS_ARGS) == 0
    out = capsys.readouterr().out
    assert "quiet-baseline" in out
    assert "canely" in out
    assert "det p50 ms" in out


def test_qos_two_backends_with_chart(capsys):
    assert main(QOS_ARGS + ["--backend", "canely", "--backend", "swim",
                            "--chart"]) == 0
    out = capsys.readouterr().out
    assert "swim" in out
    assert "Detection p50" in out


def test_qos_json_and_report_are_identical(capsys, tmp_path):
    target = tmp_path / "qos.json"
    assert main(QOS_ARGS + ["--format", "json",
                            "--report", str(target)]) == 0
    out = capsys.readouterr().out
    document = out.split("report written to")[0].strip()
    assert target.read_text().strip() == document
    report = json.loads(document)
    assert report["scenarios"] == ["quiet-baseline"]
    assert report["backends"] == ["canely"]


def test_qos_csv(capsys):
    assert main(QOS_ARGS + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario,backend,detection_p50_ms")
    assert lines[1].startswith("quiet-baseline,canely,")


def _no_cell_runs(monkeypatch):
    """Fail the test if any catalog cell starts running."""

    def run_recipe(*args, **kwargs):
        raise AssertionError("a cell ran before every name resolved")

    monkeypatch.setattr("repro.scenarios.runner.run_recipe", run_recipe)


def test_qos_unknown_scenario_exits_2(capsys, monkeypatch):
    _no_cell_runs(monkeypatch)
    assert main(["qos", "--scenario", "quiet-baseline", "--scenario",
                 "nonsense", "--quick"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: unknown scenario 'nonsense'")
    assert len(out.splitlines()) == 1


def test_qos_unknown_backend_exits_2(capsys, monkeypatch):
    _no_cell_runs(monkeypatch)
    assert main(["qos", "--backend", "canely", "--backend", "nonsense",
                 "--quick"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: unknown membership backend 'nonsense'")
    assert len(out.splitlines()) == 1


# -- bad input ends in one line and exit 2, never a traceback -----------------------


SWIM_SCENARIO = """{"nodes": 5, "backend": "swim",
 "events": [{"at_ms": 100, "action": "crash", "node": 1}],
 "duration_ms": 400}"""


@pytest.mark.parametrize("command", ["trace", "metrics"])
def test_observed_commands_run_a_swim_scenario_under_its_monitors(
    capsys, tmp_path, command
):
    """A scenario runs under its backend's own monitors, as ``repro
    campaign`` does; a SWIM scenario once died in ConfigurationError."""
    scenario = tmp_path / "swim.json"
    scenario.write_text(SWIM_SCENARIO)
    assert main([command, "--scenario", str(scenario)]) == 0
    assert "msh.change" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, complaint",
    [
        (None, "cannot read scenario"),
        ('{"nodes": 3', "not valid JSON"),
        ("[1, 2]", "a scenario is a JSON object"),
        ('{"nodes": 3, "traffic": [3]}', "'traffic' must be a list of objects"),
        ('{"nodes": 3, "config": {"bogus": 1}}', "invalid config entry 'bogus'"),
    ],
    ids=["missing", "torn", "non-object", "bad-entry", "unknown-config-key"],
)
@pytest.mark.parametrize(
    "command", [["run"], ["trace", "--scenario"]], ids=["run", "trace"]
)
def test_malformed_scenario_exits_2_with_one_line(
    capsys, tmp_path, command, text, complaint
):
    scenario = tmp_path / "scenario.json"
    if text is not None:
        scenario.write_text(text)
    assert main(command + [str(scenario)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and complaint in out
    assert len(out.splitlines()) == 1


def test_scenario_that_never_forms_exits_1_with_one_line(capsys, tmp_path):
    scenario = tmp_path / "rushed.json"
    scenario.write_text(
        '{"nodes": 40, "duration_ms": 50, "config": {"tm_ms": 5, '
        '"thb_ms": 2, "trha_ms": 1, "tjoin_wait_ms": 6}}'
    )
    assert main(["run", str(scenario)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: bootstrap did not converge")
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [["--nodes", "1"], ["--nodes", "4", "--segments", "9"]],
    ids=["no-survivor", "more-segments-than-nodes"],
)
def test_compare_bad_arguments_exit_2_with_one_line(capsys, args):
    assert main(["compare"] + args) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1


def test_compare_unknown_backend_exits_2(capsys, monkeypatch):
    def probe_backend(*args, **kwargs):
        raise AssertionError("a probe ran before every name resolved")

    monkeypatch.setattr("repro.analysis.comparison.probe_backend", probe_backend)
    assert main(["compare", "--backends", "canely", "nonsense"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: unknown membership backend 'nonsense'")
    assert len(out.splitlines()) == 1


def test_compare_format_json_is_the_report(capsys):
    from repro.analysis.comparison import compare_backends

    assert main(["compare", "--nodes", "4", "--format", "json"]) == 0
    report = compare_backends(nodes=4)
    assert capsys.readouterr().out == (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


CHECK_ARGS = ["check", "--depth", "0", "--nodes", "4", "--members", "3"]
COVERAGE_ARGS = CHECK_ARGS + ["--coverage", "--budget", "2", "--workers", "0"]


@pytest.mark.parametrize(
    "args, complaint",
    [
        (CAMPAIGN_ARGS + ["--timeout", "0"], "timeout must be positive"),
        (CAMPAIGN_ARGS + ["--retries", "-1"], "retries must be >= 0"),
        (CAMPAIGN_ARGS + ["--workers", "-1"], "workers must be >= 0"),
        (CAMPAIGN_ARGS + ["--resume"], "resume requires a checkpoint path"),
        (CAMPAIGN_ARGS + ["--checkpoint", "{missing}/c.jsonl"],
         "cannot open checkpoint"),
        (CHECK_ARGS + ["--timeout", "0"], "timeout must be positive"),
        (CHECK_ARGS + ["--workers", "-1"], "workers must be >= 0"),
        (CHECK_ARGS + ["--resume"], "resume requires a checkpoint path"),
        (CHECK_ARGS + ["--checkpoint", "{missing}/c.jsonl"],
         "cannot open checkpoint"),
        (CHECK_ARGS + ["--fingerprints", "{missing}/fp.jsonl"],
         "cannot open fingerprint store"),
        (["check", "--depth", "-1"], "depth must be >= 0"),
        (["check", "--samples", "-1"], "samples must be >= 0"),
        (COVERAGE_ARGS + ["--checkpoint", "{missing}/c.jsonl"],
         "--coverage does not take --checkpoint"),
        (COVERAGE_ARGS + ["--resume"], "--coverage does not take --resume"),
        (COVERAGE_ARGS + ["--samples", "7"], "--coverage does not take --samples"),
    ],
    ids=["campaign-timeout-0", "campaign-retries-negative",
         "campaign-workers-negative", "campaign-resume-without-checkpoint",
         "campaign-checkpoint-in-missing-dir", "check-timeout-0",
         "check-workers-negative", "check-resume-without-checkpoint",
         "check-checkpoint-in-missing-dir", "check-fingerprints-in-missing-dir",
         "check-depth-negative", "check-samples-negative",
         "check-coverage-with-checkpoint", "check-coverage-with-resume",
         "check-coverage-with-samples"],
)
def test_bad_run_options_exit_2_with_one_line(capsys, tmp_path, args, complaint):
    missing = str(tmp_path / "missing")
    assert main([arg.format(missing=missing) for arg in args]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and complaint in out
    assert len(out.splitlines()) == 1
