"""The five benchmark workloads. Each is one whole user job on the default
configuration: build -> simulate -> analyse -> report file written.

A job is a closed loop with one client: one process, one thread, the next
job starts when the previous one has written its report. ``seed`` chooses
the victims (single networks) or the root seed (population jobs); the
program under test receives only those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.latency import latency_bounds
from repro.campaign import CampaignReport, CampaignSpec, FingerprintStore, run_campaign
from repro.can.bitstream import encoding_cache_info
from repro.check import CheckSweep, explore
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.obs import (
    export_chrome_trace,
    network_qos,
    standard_monitors,
    validate_chrome_trace,
)
from repro.scenarios import run_catalog, scenario_names
from repro.sim.clock import ms
from repro.swim import SwimConfig
from repro.workloads import PeriodicSource

PHASES = ("build", "bootstrap", "run", "analyse", "report")


@dataclass
class Iteration:
    """What one run of a workload's job produced."""

    #: operation id -> protocol observables; hashed into the digests.
    ops: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: operation id -> why it failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: host seconds spent in each phase of the job.
    phases: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    #: work and waste counts read from public counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-operation median detection latency, simulated ms.
    detect_p50_ms: List[float] = field(default_factory=list)
    #: worst (crash, observer) detection latency, simulated ms.
    detect_max_ms: float = 0.0
    #: per-operation P_A.
    query_accuracy: List[float] = field(default_factory=list)
    #: ``bus.utilization()`` of a single-network job.
    bus_util: float = 0.0
    #: the job's network, kept so that freeing it falls outside the timed
    #: job: a job ends when its report is written.
    keep: object = None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A ``perf_counter`` span around the benchmark's own calls."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - started

    def observe_qos(self, detection: Dict[str, object], accuracy) -> None:
        """Fold one operation's QoS readout into the simulated metrics."""
        if detection["p50_ms"] is not None:
            self.detect_p50_ms.append(detection["p50_ms"])
            self.detect_max_ms = max(self.detect_max_ms, detection["max_ms"])
        if accuracy is not None:
            self.query_accuracy.append(accuracy)


def digest(observables: Dict[str, object]) -> Dict[str, object]:
    """Per-observable digest of one operation: integers and short strings
    stay readable, the rest is SHA-256 of its canonical JSON."""

    def one(value: object) -> object:
        if isinstance(value, int) or (isinstance(value, str) and len(value) <= 32):
            return value
        text = value if isinstance(value, str) else json.dumps(
            value, sort_keys=True, default=str
        )
        return hashlib.sha256(text.encode()).hexdigest()

    return {name: one(value) for name, value in observables.items()}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- single-network jobs --------------------------------------------------------


@dataclass(frozen=True)
class NetworkScript:
    """One scripted network: bootstrap, periodic traffic on the first
    ``talkers`` nodes (implicit life-signs), staggered crashes and leaves of
    seed-chosen silent nodes, a fixed horizon, QoS, report."""

    nodes: int
    config: object
    backend: str = "canely"
    talkers: int = 0
    crash_at: Tuple[int, ...] = ()
    leave_at: Tuple[int, ...] = ()
    horizon: int = 0
    #: spans, monitors and metrics on; Chrome trace + JSONL trace exported.
    observed: bool = False

    def run(self, seed: int, tmp: str) -> Iteration:
        it = Iteration()
        victims = random.Random(seed).sample(
            range(self.talkers, self.nodes), len(self.crash_at) + len(self.leave_at)
        )
        crashed, left = victims[: len(self.crash_at)], victims[len(self.crash_at):]
        cache_before = encoding_cache_info()
        with it.phase("build"):
            net = CanelyNetwork(
                self.nodes,
                config=self.config,
                backend=self.backend,
                spans=self.observed,
            )
            if self.observed:
                standard_monitors(
                    net.sim.trace,
                    detection_bound=latency_bounds(self.config).notification,
                    metrics=net.sim.metrics,
                )
        with it.phase("bootstrap"):
            scenario = net.scenario(seed=seed).bootstrap()
        start = net.sim.now
        with it.phase("run"):
            for node_id in range(self.talkers):
                PeriodicSource(
                    net.sim, net.node(node_id), period=ms(10), offset=node_id * ms(1)
                )
            for node_id, at in zip(crashed, self.crash_at):
                scenario.crash(node_id, at=at)
            for node_id, at in zip(left, self.leave_at):
                scenario.leave(node_id, at=at)
            scenario.run_for(self.horizon)
        with it.phase("analyse"):
            qos = network_qos(
                net,
                start=start,
                crash_times={n: start + at for n, at in zip(crashed, self.crash_at)},
                leave_times={n: start + at for n, at in zip(left, self.leave_at)},
            )
            readout = qos.to_dict()
        with it.phase("report"):
            _write(os.path.join(tmp, "qos.json"), qos.to_json())
            if self.observed:
                chrome = export_chrome_trace(
                    net.sim.spans, os.path.join(tmp, "spans.chrome.json")
                )
                problems = validate_chrome_trace(chrome)
                net.sim.trace.export_jsonl(os.path.join(tmp, "trace.jsonl"))
                _write(
                    os.path.join(tmp, "metrics.json"),
                    json.dumps(net.sim.metrics.snapshot(), sort_keys=True, default=str),
                )
                if problems:
                    it.failures["network"] = f"chrome trace invalid: {problems[0]}"

        expected = set(range(self.nodes)) - set(victims)
        if not net.views_agree():
            it.failures["network"] = "views disagree"
        elif set(net.agreed_view()) != expected:
            it.failures["network"] = (
                f"agreed view {sorted(net.agreed_view())} != {sorted(expected)}"
            )
        elif crashed and qos.completeness != 1.0:
            it.failures["network"] = "a crash was not detected by every correct member"

        times, observers, payloads = net.sim.trace.category_columns("msh.change")
        stats = net.bus.stats
        it.ops["network"] = {
            "views": {
                str(node.node_id): [
                    node.view().members.to_bytes().hex(), node.view().round_index
                ]
                for node in net.correct_nodes()
                if node.is_member
            },
            "changes": [
                [times[i], observers[i], payloads[i]["active"].to_bytes().hex(),
                 payloads[i]["failed"].to_bytes().hex()]
                for i in range(len(times))
            ],
            "physical_frames": stats.physical_frames,
            "busy_bits": stats.busy_bits,
            "qos": qos.to_json(),
        }
        it.observe_qos(readout["detection_ms"], readout["query_accuracy"])
        it.bus_util = net.bus.utilization()
        it.keep = net
        cache_after = encoding_cache_info()
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        node_stats = [node.stats() for node in net.nodes.values()]
        it.counters = {
            "sim.kernel.events": net.sim.events_processed,
            "sim.trace.records": len(net.sim.trace),
            "can.bus.frames": stats.physical_frames,
            "can.bus.busy_bits": stats.busy_bits,
            "can.bus.error_frames": stats.error_frames,
            "can.bus.clustered_requests": stats.clustered_requests,
            "can.encode.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.fd.els_sent": sum(s.get("els_sent", 0) for s in node_stats),
            "core.agreement.rha_executions": sum(
                s.get("rha_executions", 0) for s in node_stats
            ),
            "obs.record.spans": len(net.sim.spans),
        }
        return it


_CANELY = CanelyConfig(capacity=64, tm=ms(50), thb=ms(10), tjoin_wait=ms(150))


# -- population jobs --------------------------------------------------------------

#: The one recipe whose full size fails bootstrap (see README); it runs at
#: its quick size so ``can.gateway`` is exercised.
_GATEWAY = "gateway-partition-stress"
_BACKENDS = ("canely", "swim")
#: Consecutive catalog root seeds per job.
_CATALOG_SEEDS = 2


def run_catalog_qos(seed: int, tmp: str) -> Iteration:
    """``repro qos --catalog``: every recipe x both backends, reports written."""
    it = Iteration()
    full_size = [name for name in scenario_names() if name != _GATEWAY]
    for root in range(seed * _CATALOG_SEEDS, (seed + 1) * _CATALOG_SEEDS):
        with it.phase("run"):
            reports = (
                run_catalog(full_size, backends=_BACKENDS, seed=root),
                run_catalog([_GATEWAY], backends=_BACKENDS, seed=root, quick=True),
            )
        with it.phase("report"):
            for index, report in enumerate(reports):
                _write(os.path.join(tmp, f"qos.{root}.{index}.json"), report.to_json())
                _write(os.path.join(tmp, f"qos.{root}.{index}.csv"), report.to_csv())
        with it.phase("analyse"):
            for report in reports:
                for outcome in report.outcomes:
                    cell = outcome.to_dict()
                    it.ops[f"{root}/{outcome.scenario}/{outcome.backend}"] = {
                        "detail": cell["detail"],
                        "qos": cell["qos"],
                    }
                    it.observe_qos(
                        cell["qos"]["detection_ms"], cell["qos"]["query_accuracy"]
                    )
    return it


def run_check_campaign(seed: int, tmp: str) -> Iteration:
    """``repro check`` then ``repro campaign``: an exhaustive depth-1 sweep
    with monitors and trace fingerprints, then 20 randomized scenarios."""
    it = Iteration()
    with it.phase("run"):
        with FingerprintStore(os.path.join(tmp, "fingerprints.jsonl")) as store:
            exploration = explore(
                CheckSweep(depth=1, seed=seed), workers=0, fingerprint_store=store
            )
        spec = CampaignSpec(scenarios=20, seed=seed)
        results = run_campaign(
            spec, workers=0, checkpoint=os.path.join(tmp, "checkpoint.jsonl")
        )
    with it.phase("analyse"):
        report = CampaignReport(spec, results)
        report.qos_aggregate()
    with it.phase("report"):
        _write(os.path.join(tmp, "campaign.json"), report.to_json())

    events = 0
    for result in exploration.results:
        check = result.metrics.get("check") or {}
        events += check.get("events", 0)
        name = f"check/{result.index}"
        it.ops[name] = {
            "verdict": result.verdict,
            "final_members": check.get("final_members"),
            "expected_members": check.get("expected_members"),
        }
        if not result.ok:
            it.failures[name] = f"verdict {result.verdict}: {result.detail[:120]}"
    for result in results:
        name = f"campaign/{result.index}"
        it.ops[name] = {
            "verdict": result.verdict,
            "nodes": result.nodes,
            "crashes": result.crashes,
            "latencies": result.latencies,
            "missed": result.missed,
            "injected_omissions": result.injected_omissions,
            "injected_inconsistent": result.injected_inconsistent,
            "qos": result.qos,
        }
        if not result.ok:
            it.failures[name] = f"verdict {result.verdict}: {result.detail[:120]}"
        elif result.missed:
            it.failures[name] = f"{result.missed} crashes never notified"
        if result.qos.get("detection_p50_ms") is not None:
            it.detect_p50_ms.append(result.qos["detection_p50_ms"])
        if result.qos.get("query_accuracy") is not None:
            it.query_accuracy.append(result.qos["query_accuracy"])
        if result.latencies:
            it.detect_max_ms = max(it.detect_max_ms, max(result.latencies) / ms(1))
    it.counters = {
        "sim.kernel.events": events,
        "harness.dedup_hits": store.hits,
    }
    return it


# -- the set ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, str], Iteration]
    #: the same job with observability off, where the workload turns it on;
    #: gives ``obs.record.overhead_ratio`` its denominator.
    plain: Optional[Callable[[int, str], Iteration]] = None


def network_scripts(smoke: bool = False) -> Dict[str, NetworkScript]:
    """The single-network workloads' scripts; ``smoke`` cuts the horizons
    short (the scripted events stay where they are)."""
    return {
        "membership-48": NetworkScript(
            nodes=48, config=_CANELY, talkers=8,
            crash_at=(ms(100), ms(250)), leave_at=(ms(400),),
            horizon=ms(600 if smoke else 1500),
        ),
        "swim-128": NetworkScript(
            nodes=128, backend="swim",
            config=SwimConfig(
                capacity=256, probe_period=ms(40), fail_after=ms(120),
                suspicion_timeout=ms(80), join_wait=ms(600),
            ),
            crash_at=(ms(100),), horizon=ms(350 if smoke else 600),
        ),
        "observed-24": NetworkScript(
            nodes=24, config=_CANELY, talkers=8, crash_at=(ms(100),),
            horizon=ms(200 if smoke else 400), observed=True,
        ),
    }


def workloads(smoke: bool = False) -> Dict[str, Workload]:
    """The workload set, by name."""
    scripts = network_scripts(smoke)
    observed = scripts["observed-24"]
    return {
        "membership-48": Workload(scripts["membership-48"].run),
        "swim-128": Workload(scripts["swim-128"].run),
        "catalog-qos": Workload(run_catalog_qos),
        "check-campaign": Workload(run_check_campaign),
        "observed-24": Workload(
            observed.run, plain=replace(observed, observed=False).run
        ),
    }
