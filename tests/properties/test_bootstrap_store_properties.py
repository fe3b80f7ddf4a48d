"""Property: a population that bootstraps each prefix once runs the same.

Inside one population call (``run_campaign``, ``explore``,
``minimize_schedule``) a run whose bootstrap an earlier run of the call
already did twice starts from that network's pickled snapshot
(:func:`repro.workloads.scenario.shared_bootstraps`). The oracle is each
schedule run alone, outside any population: on both backends, on one bus,
two bridged segments and (CANELy only) two channels, the depth-1 schedules
run through the store must give the same verdict, monitor, detail,
fingerprint, events, final and expected members and metrics snapshot, after
two bootstraps and one pickling. Then the store's own rules: a prefix seen
once is never pickled, nothing outlives the call, and two sweeps under two
planted mutations in one process each catch their own bug.
"""

import functools
from dataclasses import replace

import pytest
from test_backend_monitors import SWIM_FRAMES

from repro.campaign import CampaignSpec, ScenarioResult, run_campaign
from repro.check import CheckSweep, explore, minimize_schedule
from repro.check.explorer import ScheduleSpace
from repro.check.selftest import MUTATIONS, selftest_sweep
from repro.util import snapshot
from repro.workloads import scenario as scenario_module
from repro.workloads.builder import ScenarioBuilder
from repro.workloads.scenario import (
    ACTION_STORM,
    VERDICT_VIOLATION,
    Action,
    run,
)

#: (backend, schedule space, topology): every configuration a depth-1
#: population runs on.
CONFIGURATIONS = {
    "canely": ("canely", ScheduleSpace(), {}),
    "canely-2seg": ("canely", ScheduleSpace(), {"segments": 2}),
    "canely-2ch": ("canely", ScheduleSpace(), {"channels": 2}),
    "swim": ("swim", SWIM_FRAMES, {}),
    "swim-2seg": ("swim", SWIM_FRAMES, {"segments": 2}),
}


def _readout(scenario, index):
    """Everything a run reports, as a campaign result."""
    result = run(scenario)
    return ScenarioResult(
        index=index,
        seed=scenario.seed,
        verdict=result.verdict,
        detail=result.detail,
        metrics={
            "builder_seed": result.builder.seed,
            "monitor": result.monitor,
            "fingerprint": result.fingerprint,
            "events": result.events,
            "final_members": result.final_members,
            "expected_members": result.expected_members,
            "metrics": result.network.sim.metrics.snapshot(),
        },
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts of bootstraps simulated and snapshots pickled."""
    counts = {"bootstraps": 0, "dumps": 0}
    bootstrap, dumps = ScenarioBuilder.bootstrap, snapshot.dumps

    @functools.wraps(bootstrap)
    def counting_bootstrap(self, *args, **kwargs):
        counts["bootstraps"] += 1
        return bootstrap(self, *args, **kwargs)

    def counting_dumps(*args, **kwargs):
        counts["dumps"] += 1
        return dumps(*args, **kwargs)

    monkeypatch.setattr(ScenarioBuilder, "bootstrap", counting_bootstrap)
    monkeypatch.setattr(snapshot, "dumps", counting_dumps)
    return counts


def _depth_one(configuration):
    backend, space, topology = CONFIGURATIONS[configuration]
    return tuple(
        replace(schedule, backend=backend, **topology)
        for schedule in CheckSweep(space=space, depth=1)
    )


def _shared_and_alone(population, counted):
    """``population`` through one store, then each scenario alone; the
    counts are the store's."""
    shared = run_campaign(population, workers=0, scenario_fn=_readout)
    counts = dict(counted)
    alone = [_readout(scenario, i) for i, scenario in enumerate(population)]
    return [r.to_dict() for r in shared], [r.to_dict() for r in alone], counts


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_a_shared_bootstrap_changes_no_run(configuration, counted):
    population = _depth_one(configuration)
    shared, alone, counts = _shared_and_alone(population, counted)
    # One prefix: bootstrapped by the first two runs, pickled by the second.
    assert counts == {"bootstraps": 2, "dumps": 1}
    assert shared == alone


def test_interleaved_prefixes_never_mix(counted):
    """Prefixes that differ in one field each: the topology, the backend,
    the ``faults`` stream's seed, whether a storm draws from that stream."""
    calm = _depth_one("canely")[:4]
    storm = Action(ACTION_STORM, at_ms=5.0, bits=400, probability=0.3)
    stormy = [replace(calm[1], actions=(storm,), seed=seed) for seed in (7, 8)]
    drawn = CampaignSpec(scenarios=1, seed=0)[0]
    population = [
        *calm[:2],
        *(_depth_one(name)[0] for name in sorted(CONFIGURATIONS)),
        *stormy,
        replace(drawn, seed=1),
        calm[2],
        *stormy,
        replace(drawn, seed=2),
        stormy[0],
        replace(drawn, seed=1),
        calm[3],
        replace(drawn, seed=1),
    ]
    shared, alone, counts = _shared_and_alone(tuple(population), counted)
    assert shared == alone
    # Nine prefixes. Four are met more than once (the calm CANELy one,
    # storm seeds 7 and 8, draw seed 1): each bootstraps twice and is
    # pickled once.
    assert counts == {"bootstraps": 9 + 4, "dumps": 4}


def test_a_prefix_seen_once_is_never_pickled(counted):
    # Stormy draws from distinct seeds: every prefix differs.
    results = run_campaign(CampaignSpec(scenarios=6, seed=0), workers=0)
    assert counted == {"bootstraps": 6, "dumps": 0}
    assert len(results) == 6


def test_no_store_outlives_its_call():
    sweep = selftest_sweep()
    explore(sweep, workers=0)
    assert scenario_module._bootstraps.get() is None
    run_campaign(sweep, workers=0)
    assert scenario_module._bootstraps.get() is None

    def break_off(result):
        if result.index == 3:
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        run_campaign(sweep, workers=0, progress=break_off)
    assert scenario_module._bootstraps.get() is None


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_two_mutated_sweeps_in_one_process_each_catch_their_own(name):
    # Parametrized, the two sweeps run one after the other in one process.
    mutation = MUTATIONS[name]
    sweep = selftest_sweep()
    with mutation.plant():
        report = explore(sweep, workers=0)
        alone = [run(schedule).verdict for schedule in sweep]
        minimal = minimize_schedule(sweep[report.counterexamples[0].index])
    assert [r.verdict for r in report.results] == alone
    assert VERDICT_VIOLATION in alone
    assert report.counterexamples[0].result.monitor == mutation.expected_monitor
    assert minimal.result.monitor == mutation.expected_monitor
    assert scenario_module._bootstraps.get() is None
