"""Tests for the checkpoint and fingerprint stores."""

import json

import pytest

from repro.campaign import (
    VERDICT_OK,
    CampaignSpec,
    CheckpointStore,
    FingerprintStore,
    ScenarioResult,
    load_checkpoint,
    schedule_key,
)
from repro.check import ACTION_CRASH, FORMAT
from repro.workloads.scenario import Action, Scenario
from repro.errors import ConfigurationError

SPEC = CampaignSpec(scenarios=6, seed=3)


def _result(index, seed=None):
    return ScenarioResult(
        index=index,
        seed=SPEC[index].seed if seed is None else seed,
        verdict=VERDICT_OK,
    )


# -- checkpoints ---------------------------------------------------------------


def test_load_checkpoint_ignores_old_shard_files(tmp_path):
    """Per-worker shard files (``campaign.NNNN.jsonl``) are no longer
    merged on resume: their scenarios just run again."""
    base = str(tmp_path / "campaign.jsonl")
    with CheckpointStore(base) as store:
        store.write(_result(0))
    (tmp_path / "campaign.0000.jsonl").write_text(
        json.dumps(_result(1).to_dict()) + "\n"
    )
    assert sorted(load_checkpoint(base, SPEC)) == [0]


def test_resume_tolerates_truncated_final_line(tmp_path):
    """A campaign killed mid-write leaves a cut-off last line; resume must
    keep every complete line and just rerun the victim."""
    base = str(tmp_path / "campaign.jsonl")
    with CheckpointStore(base) as store:
        store.write(_result(0))
        store.write(_result(1))
    text = (tmp_path / "campaign.jsonl").read_text()
    cut = len(text) - len(text.splitlines()[-1]) // 2 - 1
    (tmp_path / "campaign.jsonl").write_text(text[:cut])  # kill mid-line
    completed = load_checkpoint(base, SPEC)
    assert 0 in completed  # the complete first line survives
    assert 1 not in completed  # only the torn line is lost


def test_store_without_resume_truncates(tmp_path):
    base = str(tmp_path / "campaign.jsonl")
    with CheckpointStore(base) as store:
        store.write(_result(0))
    with CheckpointStore(base, resume=False):
        pass  # opening for a fresh run wipes the previous one
    assert (tmp_path / "campaign.jsonl").read_text() == ""


def test_stores_refuse_an_unopenable_path(tmp_path):
    missing = str(tmp_path / "missing" / "store.jsonl")
    with pytest.raises(ConfigurationError, match="cannot open checkpoint"):
        CheckpointStore(missing)
    with pytest.raises(ConfigurationError, match="cannot open fingerprint"):
        FingerprintStore(missing)


def test_store_with_resume_appends(tmp_path):
    base = str(tmp_path / "campaign.jsonl")
    with CheckpointStore(base) as store:
        store.write(_result(0))
    with CheckpointStore(base, resume=True) as store:
        store.write(_result(1))
    assert sorted(load_checkpoint(base, SPEC)) == [0, 1]


def test_store_with_no_path_is_a_no_op(tmp_path):
    with CheckpointStore(None) as store:
        store.write(_result(0))
    assert list(tmp_path.iterdir()) == []


def test_load_checkpoint_last_duplicate_wins(tmp_path):
    base = str(tmp_path / "campaign.jsonl")
    older = _result(0)
    newer = _result(0)
    newer.detail = "retried"
    with open(base, "w") as handle:
        handle.write(json.dumps(older.to_dict()) + "\n")
        handle.write(json.dumps(newer.to_dict()) + "\n")
    completed = load_checkpoint(base, SPEC)
    assert completed[0].detail == "retried"


# -- fingerprint store ---------------------------------------------------------


def _schedule(seed=0, faults=()):
    return Scenario(nodes=4, members=3, actions=tuple(faults), seed=seed)


def test_schedule_key_ignores_seed_label():
    crash = Action(action=ACTION_CRASH, node=2, at_ms=1.0)
    assert schedule_key(_schedule(seed=0, faults=[crash])) == schedule_key(
        _schedule(seed=99, faults=[crash])
    )
    assert schedule_key(_schedule()) != schedule_key(
        _schedule(faults=[crash])
    )


def test_fingerprint_store_roundtrips(tmp_path):
    path = str(tmp_path / "fp.jsonl")
    key = schedule_key(_schedule())
    with FingerprintStore(path) as store:
        assert store.lookup(key) is None
        assert store.record(key, "trace-a", VERDICT_OK, seed=7) is True
        assert key in store
    with FingerprintStore(path) as store:  # persisted across opens
        record = store.lookup(key)
        assert record == {
            "format": FORMAT,
            "schedule": key,
            "trace": "trace-a",
            "verdict": VERDICT_OK,
            "seed": 7,
        }
        assert len(store) == 1


def test_fingerprint_store_novelty_is_per_trace(tmp_path):
    store = FingerprintStore(str(tmp_path / "fp.jsonl"))
    crash = Action(action=ACTION_CRASH, node=2, at_ms=1.0)
    first = store.record(schedule_key(_schedule()), "trace-a", VERDICT_OK)
    same_trace = store.record(
        schedule_key(_schedule(faults=[crash])), "trace-a", VERDICT_OK
    )
    new_trace = store.record(
        schedule_key(_schedule(faults=[crash, Action(action=ACTION_CRASH, node=3, at_ms=2.0)])),
        "trace-b",
        VERDICT_OK,
    )
    assert (first, same_trace, new_trace) == (True, False, True)
    assert store.trace_count == 2
    store.close()


def test_fingerprint_store_in_memory_only():
    store = FingerprintStore(None)
    key = schedule_key(_schedule())
    assert store.record(key, "trace-a", VERDICT_OK)
    assert store.lookup(key)["trace"] == "trace-a"
    store.close()


def test_fingerprint_store_skips_corrupt_lines(tmp_path):
    path = tmp_path / "fp.jsonl"
    key = schedule_key(_schedule())
    path.write_text(
        json.dumps(
            {"format": FORMAT, "schedule": key, "trace": "t",
             "verdict": VERDICT_OK, "seed": 0}
        )
        + "\n"
        + '{"schedule": "torn'  # cut off mid-write
    )
    with FingerprintStore(str(path)) as store:
        assert len(store) == 1
        assert store.lookup(key) is not None


def test_fingerprint_store_ignores_lines_of_another_format(tmp_path, capsys):
    """A store outlives the trace shape its fingerprints were hashed over:
    lines stamped with another format, or with none, must not dedup a
    schedule, vouch for a verdict or count as a known trace."""
    crash = Action(action=ACTION_CRASH, node=2, at_ms=1.0)
    current, previous, unstamped = (
        schedule_key(_schedule()),
        schedule_key(_schedule(faults=[crash])),
        schedule_key(
            _schedule(faults=[Action(action=ACTION_CRASH, node=1, at_ms=2.0)])
        ),
    )
    path = tmp_path / "fp.jsonl"
    lines = [
        {"format": FORMAT, "schedule": current, "trace": "trace-now",
         "verdict": VERDICT_OK, "seed": 0},
        {"format": "repro.check/1", "schedule": previous, "trace": "trace-v1",
         "verdict": VERDICT_OK, "seed": 0},
        {"schedule": unstamped, "trace": "trace-bare",
         "verdict": VERDICT_OK, "seed": 0},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with FingerprintStore(str(path)) as store:
        assert len(store) == 1 and store.stale == 2
        assert store.lookup(current)["trace"] == "trace-now"
        assert store.lookup(previous) is None
        assert store.lookup(unstamped) is None
        assert store.hits == 1
        assert store.trace_count == 1
        assert store.is_new_trace("trace-v1") and store.is_new_trace("trace-bare")
        # The schedule behind a stale line is explored again and re-recorded.
        assert store.record(previous, "trace-v2", VERDICT_OK) is True
    err = capsys.readouterr().err
    assert err.count("ignored 2 line(s)") == 1 and FORMAT in err
    with FingerprintStore(str(path)) as store:
        assert len(store) == 2 and store.stale == 2
        assert store.lookup(previous)["trace"] == "trace-v2"
