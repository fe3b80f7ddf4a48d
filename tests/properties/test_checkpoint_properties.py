"""Property: resume trusts exactly the valid lines of a checkpoint.

A checkpoint is append-only JSONL, and what reaches it is not always a
clean record: a kill cuts a write short (a torn prefix), a rerun appends a
scenario again (a duplicate; the last line wins), and a file may hold
lines that are not results at all (JSON that is not an object, a field of
the wrong type, a seed the spec no longer derives). Hypothesis interleaves
a campaign's valid lines with all of these and checks that
``load_checkpoint`` never raises and returns exactly the valid results,
and that resuming from the file — even one that ends in a torn write —
gives what an uninterrupted in-process run gives.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.campaign import (
    VERDICT_OK,
    CampaignSpec,
    ScenarioResult,
    load_checkpoint,
    run_campaign,
)

SPEC = CampaignSpec(scenarios=5, seed=11)


def scripted(scenario, index):
    """A fast stand-in for ``run_scenario``: every field follows from the
    scenario's seed."""
    seed = scenario.seed
    return ScenarioResult(
        index=index,
        seed=seed,
        verdict=VERDICT_OK,
        nodes=4 + seed % 5,
        crashes=1,
        latencies=[seed % 997, seed % 991],
        metrics={"frames": seed % 1000},
        qos={"p50_ms": (seed % 100) / 10.0},
        detail=f"seed {seed}",
    )


BASELINE = [
    result.to_dict()
    for result in run_campaign(SPEC, workers=0, scenario_fn=scripted)
]

#: A value of the wrong JSON type for each result field.
WRONG_TYPES = {
    "index": "0",
    "seed": None,
    "verdict": 5,
    "nodes": 4.5,
    "crashes": True,
    "latencies": "1, 2",
    "missed": [],
    "injected_omissions": {},
    "injected_inconsistent": "0",
    "metrics": [],
    "qos": 1,
    "detail": [],
    "violation_slice": {},
    "attempts": 1.0,
    "elapsed_s": "0.1",
}

indexes = st.integers(0, SPEC.scenarios - 1)
#: ``(line, index)`` — ``index`` is set for a valid line only.
valid = st.builds(
    lambda index, elapsed: (
        json.dumps(dict(BASELINE[index], elapsed_s=elapsed)),
        index,
    ),
    indexes,
    st.floats(0.0, 10.0),  # a rerun of one scenario takes its own time
)
torn = st.builds(
    lambda entry, cut: (entry[0][: cut % len(entry[0])], None),
    valid,
    st.integers(0),
)
non_object = st.builds(
    lambda value: (json.dumps(value), None),
    st.one_of(
        st.lists(st.integers(), max_size=3),
        st.integers(),
        st.text(max_size=5),
        st.none(),
        st.booleans(),
    ),
)
wrong_type = st.builds(
    lambda index, name: (
        json.dumps(dict(BASELINE[index], **{name: WRONG_TYPES[name]})),
        None,
    ),
    indexes,
    st.sampled_from(sorted(WRONG_TYPES)),
)
stale = st.builds(
    lambda index: (
        json.dumps(dict(BASELINE[index], seed=BASELINE[index]["seed"] + 1)),
        None,
    ),
    indexes,
)
lines = st.lists(
    st.one_of(valid, torn, non_object, wrong_type, stale), max_size=24
)


def _without_elapsed(results):
    return [dict(result.to_dict(), elapsed_s=0.0) for result in results]


@settings(max_examples=150, deadline=None)
@given(lines, st.booleans())
def test_resume_trusts_exactly_the_valid_lines(entries, torn_tail):
    expected = {}
    for line, index in entries:
        if index is not None:
            expected[index] = json.loads(line)
    text = "".join(line + "\n" for line, _ in entries)
    if torn_tail:
        # The campaign was killed mid-write: the file ends inside a line.
        text += json.dumps(BASELINE[0])[:-3]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.jsonl")
        with open(path, "w") as handle:
            handle.write(text)

        loaded = load_checkpoint(path, SPEC)
        assert {i: r.to_dict() for i, r in loaded.items()} == expected

        resumed = run_campaign(
            SPEC, workers=0, checkpoint=path, resume=True, scenario_fn=scripted
        )
        uninterrupted = run_campaign(SPEC, workers=0, scenario_fn=scripted)
        assert _without_elapsed(resumed) == _without_elapsed(uninterrupted)
        # Resuming appended every missing scenario on a line of its own.
        assert sorted(load_checkpoint(path, SPEC)) == list(
            range(SPEC.scenarios)
        )
