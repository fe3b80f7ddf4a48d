"""Golden whole-run digests: the core must change *nothing* observable.

Three scenarios and the 60 schedules of the depth-1 check sweep are pinned
by digests of everything a run lets an observer see: every trace record in
order (event order and timing), the per-type bus bit accounting (wire
lengths), the event count and every node's membership view. The committed
values were taken from the seed-faithful legacy core (bit-list encoder,
dataclass heap, double-encode bus path) in the commit that deleted it,
where the fast core produced the same ones.

Update a golden file deliberately when a change is intended: delete it and
rerun this module, which regenerates it (``docs/checking.md`` says when).
"""

import hashlib
import json
import pathlib

from repro.campaign import FingerprintStore, schedule_key
from repro.can.errormodel import FaultInjector, FaultKind
from repro.can.identifiers import MessageType
from repro.check import FORMAT, CheckSweep, explore
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.sim.clock import ms
from repro.sim.trace import record_to_dict

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
DIGESTS_PATH = GOLDEN_DIR / "core_digests.json"
SWEEP_PATH = GOLDEN_DIR / "check_depth1_seed0.jsonl"

#: Trace records per block digest: a mismatch is narrowed to this many rows.
BLOCK = 64

CONFIG = CanelyConfig(capacity=16, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


def fingerprint(net):
    """Everything observable about a finished run, in comparable form."""
    views = {}
    for node in net.correct_nodes():
        view = node.view()
        views[node.node_id] = (sorted(view.members), view.round_index)
    return {
        "trace": [record_to_dict(record) for record in net.sim.trace],
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "physical_frames": net.bus.stats.physical_frames,
        "error_frames": net.bus.stats.error_frames,
        "busy_bits": net.bus.stats.busy_bits,
        "bits_by_type": dict(net.bus.stats.bits_by_type),
        "views": views,
    }


def scenario_crash_detection():
    """10 nodes bootstrap; one crashes; detection and view change follow."""
    net = CanelyNetwork(node_count=10, config=CONFIG)
    net.join_all()
    net.run_for(ms(400))
    net.node(7).crash()
    net.run_for(ms(200))
    assert net.views_agree()
    return net


def scenario_join_leave_churn():
    """Staggered joins and a voluntary leave exercise RHA and the cycle."""
    net = CanelyNetwork(node_count=6, config=CONFIG)
    for node_id in range(4):
        net.node(node_id).join()
    net.run_for(ms(400))
    net.node(4).join()
    net.node(5).join()
    net.run_for(ms(300))
    net.node(2).leave()
    net.run_for(ms(300))
    assert net.views_agree()
    return net


def scenario_inconsistent_omissions():
    """FDA traffic hit by inconsistent omissions while a node crashes."""
    injector = FaultInjector()
    injector.fault_on_frame(
        lambda f: f.mid.mtype is MessageType.FDA,
        FaultKind.INCONSISTENT_OMISSION,
        accepting=[2],
    )
    net = CanelyNetwork(node_count=8, config=CONFIG, injector=injector)
    net.join_all()
    net.run_for(ms(400))
    net.node(6).crash()
    net.run_for(ms(300))
    assert net.views_agree()
    return net


SCENARIOS = [
    scenario_crash_detection,
    scenario_join_leave_churn,
    scenario_inconsistent_omissions,
]


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest(run):
    """The committed form of one ``fingerprint()``: its hash, plus enough
    structure to say *where* a later run first differs."""
    trace = run["trace"]
    return {
        "digest": _sha(run),
        "records": len(trace),
        "blocks": [
            _sha(trace[start : start + BLOCK])
            for start in range(0, len(trace), BLOCK)
        ],
    }


def _assert_matches_golden(scenario):
    if not DIGESTS_PATH.exists():
        golden = {s.__name__: digest(fingerprint(s())) for s in SCENARIOS}
        DIGESTS_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n"
        )
    golden = json.loads(DIGESTS_PATH.read_text())[scenario.__name__]
    run = fingerprint(scenario())
    actual = digest(run)
    if actual == golden:
        return
    hint = f"; if intended, delete {DIGESTS_PATH} and rerun to regenerate"
    blocks = golden["blocks"]
    for index, block in enumerate(actual["blocks"]):
        if index >= len(blocks) or block != blocks[index]:
            start = index * BLOCK
            rows = "\n".join(
                json.dumps(row, sort_keys=True)
                for row in run["trace"][start : start + BLOCK]
            )
            raise AssertionError(
                f"{scenario.__name__}: trace first differs in block {index} "
                f"(records {start}-{start + BLOCK - 1} of {actual['records']}; "
                f"golden run has {golden['records']}){hint}. "
                f"This run's block:\n{rows}"
            )
    if actual["records"] != golden["records"]:
        raise AssertionError(
            f"{scenario.__name__}: trace stops after {actual['records']} "
            f"records, golden run has {golden['records']}{hint}"
        )
    totals = {key: value for key, value in run.items() if key != "trace"}
    raise AssertionError(
        f"{scenario.__name__}: every trace record matches but a run total "
        f"moved{hint}. This run's totals: {totals}"
    )


def test_crash_detection_equivalent():
    _assert_matches_golden(scenario_crash_detection)


def test_join_leave_churn_equivalent():
    _assert_matches_golden(scenario_join_leave_churn)


def test_inconsistent_omissions_equivalent():
    _assert_matches_golden(scenario_inconsistent_omissions)


def test_depth1_sweep_matches_committed_fingerprints():
    """``repro check --depth 1 --seed 0`` explores the same 60 traces."""
    sweep = CheckSweep(depth=1, seed=0)
    if not SWEEP_PATH.exists():
        with FingerprintStore(str(SWEEP_PATH)) as store:
            explore(sweep, workers=0, fingerprint_store=store)
    golden = {}
    for line in SWEEP_PATH.read_text().splitlines():
        raw = json.loads(line)
        assert raw["format"] == FORMAT, (
            f"{SWEEP_PATH} was recorded over trace format {raw['format']}, "
            f"this code writes {FORMAT}: delete it and rerun to regenerate"
        )
        golden[raw["schedule"]] = (raw["trace"], raw["verdict"])
    report = explore(sweep, workers=0)
    actual = {}
    moved = []
    for result in report.results:
        schedule = sweep[result.index]
        key = schedule_key(schedule)
        actual[key] = (result.metrics["check"]["fingerprint"], result.verdict)
        if actual[key] != golden.get(key):
            moved.append(f"#{result.index} {schedule.describe()}")
    assert not moved and actual.keys() == golden.keys(), (
        f"{len(moved)} of {len(actual)} depth-1 schedules no longer produce "
        f"their committed trace (store holds {len(golden)}); if intended, "
        f"delete {SWEEP_PATH} and rerun to regenerate:\n" + "\n".join(moved)
    )
