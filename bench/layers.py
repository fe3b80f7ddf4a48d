"""The module -> layer map, and the fold of one profiled iteration onto it.

Layers are this repo's modules, grouped the way an optimisation would name
them. Every module under ``src/repro`` must map to a layer: the smoke test
fails on a new module with none, so nothing lands silently in "unmapped".
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "sim.kernel",
    "sim.timers",
    "sim.trace",
    "can.bus",
    "can.encode",
    "can.node",
    "can.faults",
    "can.gateway",
    "core.fd",
    "core.agreement",
    "core.membership",
    "swim",
    "obs.record",
    "obs.analyse",
    "harness",
    "util",
)

#: Packages that are one layer as a whole.
PACKAGE_LAYER = {
    "analysis": "obs.analyse",
    "llc": "core.agreement",
    "swim": "swim",
    "scenarios": "harness",
    "workloads": "harness",
    "campaign": "harness",
    "check": "harness",
    "perf": "harness",
    # Rival network-management/membership services; no workload runs them.
    "services": "core.membership",
    "util": "util",
}

#: Modules of the packages that split over several layers, as
#: ``<package>/<module>``; top-level modules have no package part.
MODULE_LAYER = {
    "__init__": "util",
    "__main__": "util",
    "errors": "util",
    "sim/__init__": "sim.kernel",
    "sim/kernel": "sim.kernel",
    "sim/event": "sim.kernel",
    "sim/process": "sim.kernel",
    "sim/clock": "sim.kernel",
    "sim/rng": "sim.kernel",
    "sim/timers": "sim.timers",
    "sim/wheel": "sim.timers",
    "sim/trace": "sim.trace",
    "sim/timeline": "sim.trace",
    "can/__init__": "can.bus",
    "can/bus": "can.bus",
    "can/phy": "can.bus",
    "can/filters": "can.bus",
    "can/channels": "can.bus",
    "can/redundancy": "can.bus",
    "can/bitstream": "can.encode",
    "can/frame": "can.encode",
    "can/identifiers": "can.encode",
    "can/controller": "can.node",
    "can/driver": "can.node",
    "can/errormodel": "can.faults",
    "can/gateway": "can.gateway",
    "core/__init__": "core.membership",
    "core/failure_detector": "core.fd",
    "core/lifesign": "core.fd",
    "core/fda": "core.agreement",
    "core/rha": "core.agreement",
    "core/membership": "core.membership",
    "core/state": "core.membership",
    "core/views": "core.membership",
    "core/groups": "core.membership",
    "core/stack": "core.membership",
    "core/backend": "core.membership",
    "core/config": "core.membership",
    "obs/__init__": "obs.record",
    "obs/metrics": "obs.record",
    "obs/spans": "obs.record",
    "obs/monitors": "obs.record",
    "obs/qos": "obs.analyse",
    "obs/export": "obs.analyse",
    "obs/critical_path": "obs.analyse",
}


def layer_of(module: str) -> Optional[str]:
    """The layer of ``module``, a path under ``src/repro`` without ``.py``
    (``"sim/kernel"``); ``None`` when the map does not cover it."""
    package = module.split("/", 1)[0]
    if "/" in module and package in PACKAGE_LAYER:
        return PACKAGE_LAYER[package]
    return MODULE_LAYER.get(module)


def modules_under(repro_dir: str) -> List[str]:
    """Every module path under the ``repro`` package, in :func:`layer_of` form."""
    found = []
    for directory, _subdirs, files in os.walk(repro_dir):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                found.append(os.path.relpath(path, repro_dir)[:-3].replace(os.sep, "/"))
    return sorted(found)


def fold_profile(
    entries: Iterable, repro_dir: str
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Fold ``cProfile.Profile.getstats()`` onto the layers.

    Returns ``(self_s, calls, unmapped_s)``. A ``repro`` function's self
    time and call count go to its module's layer. Built-in and stdlib
    functions have no module of ours: their self time is charged, along the
    profiler's caller edges, to the layer of the nearest ``repro`` caller
    (a ``list.append`` inside ``TraceRecorder.record`` is ``sim.trace``
    work). What no ``repro`` function called — the benchmark's own job
    code and what it calls directly — is ``unmapped_s``.
    """
    prefix = repro_dir.rstrip(os.sep) + os.sep
    layer_cache: Dict[object, Optional[str]] = {}

    def layer_for(code) -> Optional[str]:
        if code not in layer_cache:
            filename = getattr(code, "co_filename", "")
            layer_cache[code] = (
                layer_of(filename[len(prefix):-3].replace(os.sep, "/"))
                if filename.startswith(prefix) and filename.endswith(".py")
                else None
            )
        return layer_cache[code]

    entries = list(entries)
    # callee -> [(caller, callee self time on this edge, callee total time)]
    callers = defaultdict(list)
    for entry in entries:
        for edge in entry.calls or ():
            callers[edge.code].append((entry.code, edge.inlinetime, edge.totaltime))

    owner_cache: Dict[object, Dict[str, float]] = {}

    def owners(code) -> Dict[str, float]:
        """layer -> share of foreign ``code``'s calls that come, directly or
        through other foreign code, from that layer; the rest is unmapped."""
        if code in owner_cache:
            return owner_cache[code]
        owner_cache[code] = {}  # cuts caller cycles (recursive encoders)
        weights: Dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, _inline, cumulative in callers.get(code, ()):
            if cumulative <= 0:
                continue
            total += cumulative
            layer = layer_for(caller)
            if layer is not None:
                weights[layer] += cumulative
            else:
                for name, share in owners(caller).items():
                    weights[name] += cumulative * share
        if total:
            owner_cache[code] = {name: w / total for name, w in weights.items()}
        return owner_cache[code]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    unmapped_s = 0.0
    for entry in entries:
        layer = layer_for(entry.code)
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            continue
        charged = 0.0
        for caller, inline, _cumulative in callers.get(entry.code, ()):
            caller_layer = layer_for(caller)
            if caller_layer is not None:
                self_s[caller_layer] += inline
                charged += inline
            else:
                for name, share in owners(caller).items():
                    self_s[name] += inline * share
                    charged += inline * share
        unmapped_s += max(0.0, entry.inlinetime - charged)
    return self_s, calls, unmapped_s
