"""Tests for the parallel, crash-tolerant campaign engine.

The custom scenario functions live at module level so they survive both
fork- and spawn-based multiprocessing; the deliberately hostile ones
(``os._exit``, long sleeps) are only ever run with ``workers >= 1`` so the
test process itself stays alive.
"""

import json
import os
import signal
import time

import pytest

from repro.campaign import (
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_TIMEOUT,
    VERDICT_WORKER_CRASH,
    CampaignReport,
    CampaignSpec,
    ScenarioResult,
    load_checkpoint,
    run_campaign,
    run_scenario,
)
from repro.errors import CampaignError, ConfigurationError
from repro.workloads import scenario as scenario_module

#: A real but tiny campaign: 4-5 node populations, one crash each.
TINY = CampaignSpec(
    scenarios=3,
    seed=3,
    node_min=4,
    node_max=5,
    crash_min=1,
    crash_max=1,
    crash_window_ms=30.0,
    run_ms=250.0,
)


def _fingerprint(results):
    return [
        (r.index, r.seed, r.verdict, r.nodes, r.crashes, r.latencies, r.missed)
        for r in results
    ]


def quick(scenario, index):
    """A fast fake scenario whose result encodes its index."""
    return ScenarioResult(
        index=index,
        seed=scenario.seed,
        verdict=VERDICT_OK,
        latencies=[index + 1],
    )


def sleepy_first(scenario, index):
    if index == 0:
        time.sleep(30)
    return quick(scenario, index)


def slow_first(scenario, index):
    if index == 0:
        time.sleep(1.0)
    return quick(scenario, index)


def always_crash(scenario, index):
    os._exit(3)


def crash_until_flag(scenario, index):
    flag = os.environ["CAMPAIGN_TEST_FLAG"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)
    return quick(scenario, index)


def killed_once(scenario, index):
    """``run_scenario``, but the first attempt at index 1 kills its own
    worker. Every attempt first checks that its worker starts with an
    empty bootstrap store."""
    store = scenario_module._bootstraps.get()
    if store is not None and (store.seen or store.snapshots):
        raise AssertionError("a worker inherited bootstrap snapshots")
    flag = os.environ["CAMPAIGN_TEST_FLAG"]
    if index == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return run_scenario(scenario, index)


def recording(scenario, index):
    with open(os.environ["CAMPAIGN_TEST_LOG"], "a") as handle:
        handle.write(f"{index}\n")
    return quick(scenario, index)


def raising(scenario, index):
    raise ValueError("scripted failure")


# -- determinism ---------------------------------------------------------------


def test_scenario_is_deterministic_per_seed():
    first = run_scenario(TINY[1], 1)
    second = run_scenario(TINY[1], 1)
    assert _fingerprint([first]) == _fingerprint([second])
    assert first.verdict == VERDICT_OK
    assert first.metrics == second.metrics


def test_results_independent_of_worker_count():
    inline = run_campaign(TINY, workers=0)
    parallel = run_campaign(TINY, workers=2)
    assert _fingerprint(inline) == _fingerprint(parallel)
    assert [r.index for r in parallel] == [0, 1, 2]
    assert all(r.verdict == VERDICT_OK for r in parallel)


def test_campaign_report_aggregates():
    results = run_campaign(TINY, workers=0)
    report = CampaignReport(TINY, results)
    assert report.success
    assert report.missed == 0
    assert len(report.latencies) == sum(len(r.latencies) for r in results)
    assert max(report.latencies) <= report.notification_bound
    assert "completed ok" in report.render()
    assert json.loads(report.to_json())["verdicts"][VERDICT_OK] == 3


# -- checkpointing and resume --------------------------------------------------


def test_checkpoint_resume_skips_completed(tmp_path, monkeypatch):
    checkpoint = str(tmp_path / "campaign.jsonl")
    log = tmp_path / "ran.log"
    monkeypatch.setenv("CAMPAIGN_TEST_LOG", str(log))

    head = CampaignSpec(scenarios=2, seed=5)
    run_campaign(head, workers=0, checkpoint=checkpoint, scenario_fn=recording)
    assert log.read_text().splitlines() == ["0", "1"]

    full = CampaignSpec(scenarios=4, seed=5)
    results = run_campaign(
        full,
        workers=0,
        checkpoint=checkpoint,
        resume=True,
        scenario_fn=recording,
    )
    # Only the two missing scenarios ran; all four results came back.
    assert log.read_text().splitlines() == ["0", "1", "2", "3"]
    assert [r.index for r in results] == [0, 1, 2, 3]
    assert len(load_checkpoint(checkpoint, full)) == 4


def test_resume_never_reruns_finished_seeds(tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = CampaignSpec(scenarios=3, seed=8)
    first = run_campaign(spec, workers=0, checkpoint=checkpoint, scenario_fn=quick)
    # If resume reran anything the always-crashing worker would report it.
    resumed = run_campaign(
        spec,
        workers=2,
        retries=0,
        checkpoint=checkpoint,
        resume=True,
        scenario_fn=always_crash,
    )
    assert _fingerprint(resumed) == _fingerprint(first)
    assert all(r.verdict == VERDICT_OK for r in resumed)


def test_checkpoint_tolerates_truncated_and_stale_lines(tmp_path):
    spec = CampaignSpec(scenarios=4, seed=5)
    good = ScenarioResult(index=1, seed=spec[1].seed, verdict=VERDICT_OK)
    stale = ScenarioResult(index=2, seed=999, verdict=VERDICT_OK)
    out_of_range = ScenarioResult(index=9, seed=spec[3].seed, verdict=VERDICT_OK)
    path = tmp_path / "campaign.jsonl"
    path.write_bytes(
        (
            json.dumps(good.to_dict())
            + "\n"
            + json.dumps(stale.to_dict())
            + "\n"
            + json.dumps(out_of_range.to_dict())
            + "\n"
            + "[1, 2]\n"  # JSON, but not an object
            + json.dumps(dict(good.to_dict(), index="0"))  # index of wrong type
            + "\n"
        ).encode()
        + b"\xff\xfe not UTF-8\n"
        + b'{"index": 3, "seed'  # a write cut off mid-line by a kill
    )
    completed = load_checkpoint(str(path), spec)
    assert list(completed) == [1]


def test_load_checkpoint_missing_file_is_empty(tmp_path):
    assert load_checkpoint(str(tmp_path / "nope.jsonl"), TINY) == {}


# -- worker failure handling ---------------------------------------------------


def test_worker_timeout_retried_then_reported():
    spec = CampaignSpec(scenarios=2, seed=1)
    results = run_campaign(
        spec, workers=2, timeout=1.0, retries=1, scenario_fn=sleepy_first
    )
    by_index = {r.index: r for r in results}
    assert by_index[0].verdict == VERDICT_TIMEOUT
    assert by_index[0].attempts == 2
    assert "budget" in by_index[0].detail
    assert by_index[1].verdict == VERDICT_OK


def test_worker_crash_retried_then_reported():
    spec = CampaignSpec(scenarios=1, seed=1)
    results = run_campaign(
        spec, workers=1, retries=2, scenario_fn=always_crash
    )
    assert results[0].verdict == VERDICT_WORKER_CRASH
    assert results[0].attempts == 3
    assert "exited with code 3" in results[0].detail


def test_worker_crash_then_success_on_retry(tmp_path, monkeypatch):
    monkeypatch.setenv("CAMPAIGN_TEST_FLAG", str(tmp_path / "flag"))
    spec = CampaignSpec(scenarios=1, seed=1)
    results = run_campaign(
        spec, workers=1, retries=1, scenario_fn=crash_until_flag
    )
    assert results[0].verdict == VERDICT_OK
    assert results[0].attempts == 2


@pytest.mark.parametrize("retries", [0, 1])
def test_a_killed_worker_is_retried_or_reported_then_resumed(
    tmp_path, monkeypatch, retries
):
    """A worker killed mid-campaign is retried, or reported as a worker
    crash; either way a resume completes the checkpoint, which then reads
    as an in-process run does (a retry aside)."""
    monkeypatch.setenv("CAMPAIGN_TEST_FLAG", str(tmp_path / "flag"))
    checkpoint = str(tmp_path / "campaign.jsonl")
    killed = run_campaign(
        TINY,
        workers=2,
        retries=retries,
        checkpoint=checkpoint,
        scenario_fn=killed_once,
    )
    if retries:
        assert (killed[1].verdict, killed[1].attempts) == (VERDICT_OK, 2)
    else:
        assert killed[1].verdict == VERDICT_WORKER_CRASH
        assert "exited with code -9" in killed[1].detail
    # The resume reruns the crash, which a checkpoint does not trust.
    resumed = run_campaign(TINY, workers=0, checkpoint=checkpoint, resume=True)
    baseline = run_campaign(TINY, workers=0)

    def comparable(results):
        rows = [result.to_dict() for result in results]
        for row in rows:
            del row["elapsed_s"], row["attempts"]
        return rows

    assert comparable(resumed) == comparable(baseline)
    assert [r.attempts for r in resumed] == [1, 1 + retries, 1]
    lines = load_checkpoint(checkpoint, TINY)
    assert comparable(lines[i] for i in sorted(lines)) == comparable(baseline)


def test_scenario_exception_reported_not_retried():
    spec = CampaignSpec(scenarios=2, seed=1)
    results = run_campaign(spec, workers=2, scenario_fn=raising)
    for result in results:
        assert result.verdict == VERDICT_ERROR
        assert result.attempts == 1
        assert "ValueError: scripted failure" in result.detail


def test_progress_called_once_per_scenario():
    seen = []
    run_campaign(
        CampaignSpec(scenarios=3, seed=2),
        workers=0,
        scenario_fn=quick,
        progress=seen.append,
    )
    assert sorted(r.index for r in seen) == [0, 1, 2]


# -- argument validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": -1},
        {"timeout": 0},
        {"retries": -1},
        {"resume": True},  # resume without a checkpoint path
    ],
)
def test_run_campaign_validates_arguments(kwargs):
    with pytest.raises(ConfigurationError):
        run_campaign(TINY, scenario_fn=quick, **kwargs)


# -- result-loss races and checkpoint hygiene ----------------------------------


def post_then_hang(scenario, index):
    """Return a result but leave a non-daemon thread keeping the worker
    process alive well past its put() — the lingering-child shape."""
    import threading

    threading.Thread(target=time.sleep, args=(20,)).start()
    return quick(scenario, index)


def test_result_posted_then_timeout_is_kept():
    """A result posted just before the deadline survives the reaper.

    This is the race the timeout branch used to lose: the worker finishes
    and put()s its result, then the wall-clock check fires before the
    exit is observed. The reaper must drain the queue before (and after)
    terminating, exactly like the crash branch always has.
    """
    from repro.campaign.executors import _context, _Job, _reap_timed_out

    ctx = _context()
    queue = ctx.SimpleQueue()
    queue.put(quick(TINY[0], 0).to_dict())
    process = ctx.Process(target=time.sleep, args=(30,))
    process.start()
    job = _Job(
        index=0,
        process=process,
        queue=queue,
        started=time.monotonic() - 100.0,
        attempt=1,
    )
    collected, gave_up = [], []
    _reap_timed_out(
        job,
        timeout=1.0,
        retries=1,
        collect=lambda j, raw: collected.append(raw),
        give_up=lambda j, verdict, detail: gave_up.append(verdict),
    )
    assert not process.is_alive()
    assert gave_up == []
    assert [raw["index"] for raw in collected] == [0]
    assert collected[0]["verdict"] == VERDICT_OK


def test_timed_out_worker_without_result_still_times_out():
    from repro.campaign.executors import _context, _Job, _reap_timed_out

    ctx = _context()
    queue = ctx.SimpleQueue()
    process = ctx.Process(target=time.sleep, args=(30,))
    process.start()
    job = _Job(
        index=0,
        process=process,
        queue=queue,
        started=time.monotonic() - 100.0,
        attempt=2,
    )
    collected, gave_up = [], []
    _reap_timed_out(
        job,
        timeout=1.0,
        retries=1,
        collect=lambda j, raw: collected.append(raw),
        give_up=lambda j, verdict, detail: gave_up.append(verdict),
    )
    assert not process.is_alive()
    assert collected == []
    assert gave_up == [VERDICT_TIMEOUT]


def test_lingering_worker_does_not_stall_campaign():
    spec = CampaignSpec(scenarios=2, seed=4)
    started = time.monotonic()
    results = run_campaign(
        spec, workers=2, timeout=60.0, scenario_fn=post_then_hang
    )
    elapsed = time.monotonic() - started
    assert all(r.verdict == VERDICT_OK for r in results)
    # The hung children sleep 20s each; the bounded post-collect join must
    # terminate them instead of waiting that out.
    assert elapsed < 15.0


def test_non_resume_rerun_truncates_stale_checkpoint(tmp_path):
    """Rerunning into an existing checkpoint without resume starts clean.

    The old appender left the first run's lines in place, so the file
    held duplicates — and a later ``resume=True`` would trust whichever
    stale line it read last.
    """
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = CampaignSpec(scenarios=3, seed=6)
    run_campaign(spec, workers=0, checkpoint=checkpoint, scenario_fn=quick)

    results = run_campaign(
        spec, workers=0, checkpoint=checkpoint, scenario_fn=quick
    )
    lines = [
        json.loads(line)
        for line in open(checkpoint)
        if line.strip()
    ]
    assert len(lines) == spec.scenarios  # no duplicates from run one
    assert sorted(line["index"] for line in lines) == [0, 1, 2]
    assert _fingerprint(results) == _fingerprint(
        run_campaign(spec, workers=0, scenario_fn=quick)
    )


def test_pool_checkpoint_lists_results_in_index_order(tmp_path):
    """Index 0 finishes last, yet its line comes first: a finished result
    is held until every lower index is written, so one seed writes one
    checkpoint whatever the completion order."""
    checkpoint = tmp_path / "campaign.jsonl"
    finished = []
    run_campaign(
        CampaignSpec(scenarios=4, seed=2),
        workers=2,
        checkpoint=str(checkpoint),
        scenario_fn=slow_first,
        progress=lambda result: finished.append(result.index),
    )
    assert finished[-1] == 0
    lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    assert [line["index"] for line in lines] == [0, 1, 2, 3]


def test_held_results_are_written_when_the_run_breaks_off(tmp_path):
    """A run that ends in an exception still writes the results it held
    back for a lower index, so resume loses no finished scenario."""
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = CampaignSpec(scenarios=4, seed=2)

    def interrupt(result):
        if result.index == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            spec,
            workers=2,
            checkpoint=checkpoint,
            scenario_fn=slow_first,
            progress=interrupt,
        )
    assert sorted(load_checkpoint(checkpoint, spec)) == [1, 2]


def test_incomplete_executor_raises_with_missing_indexes(monkeypatch):
    """An execution path that loses scenarios cannot return a silently
    short result list — the engine names every missing index."""
    from repro.campaign import engine

    def finishes_only_the_first(
        population, pending, *, scenario_fn, finish, **_
    ):
        index = pending.popleft()
        finish(scenario_fn(population[index], index))

    monkeypatch.setattr(engine, "execute", finishes_only_the_first)
    with pytest.raises(CampaignError) as excinfo:
        run_campaign(TINY, workers=0, scenario_fn=quick)
    message = str(excinfo.value)
    assert "campaign incomplete" in message
    assert "1, 2" in message


def test_prior_results_skip_execution_and_are_checkpointed(tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = CampaignSpec(scenarios=3, seed=9)
    known = quick(spec[1], 1)
    seen = []

    def observing(scenario, index):
        seen.append(index)
        return quick(scenario, index)

    results = run_campaign(
        spec,
        workers=0,
        checkpoint=checkpoint,
        scenario_fn=observing,
        prior_results={1: known},
    )
    assert seen == [0, 2]  # index 1 answered from prior_results
    assert [r.index for r in results] == [0, 1, 2]
    assert len(load_checkpoint(checkpoint, spec)) == 3
