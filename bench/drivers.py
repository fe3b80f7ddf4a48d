"""Layer drivers: direct calls into public layer APIs on generated inputs,
with no protocol above them. Each reports the median of ``REPEATS`` repeats
of a stated operation count, as host microseconds (or milliseconds) per
operation. Run in a fresh interpreter by ``run.py``; prints one JSON line.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, Tuple

from worker import ROOT, scratch_dir

REPEATS = 7


def _median_per_op(once: Callable[[], Tuple[float, int]], scale: float = 1e6) -> float:
    """Median over ``REPEATS`` of ``once() -> (seconds, operations)``."""
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        seconds, operations = once()
        samples.append(seconds / operations * scale)
    return statistics.median(samples)


def kernel_us_per_event() -> float:
    """``schedule``/``run_until`` in the shape the stack gives the kernel:
    a periodic frame event that rearms 16 watchdogs and schedules a burst
    of 6 same-instant events. 4000 frames = 28 000 events."""
    from repro.sim.kernel import Simulator
    from repro.sim.timers import TimerService

    sources, burst, period, frames = 16, 6, 997, 4000

    def once():
        sim = Simulator()
        service = TimerService(sim)
        noop = lambda: None  # noqa: E731
        alarms = [service.start_alarm(16 * period, noop) for _ in range(sources)]

        def on_frame() -> None:
            for alarm in alarms:
                service.restart_alarm(alarm, 16 * period)
            for offset in range(burst):
                sim.schedule(0, noop, priority=offset & 1)
            sim.schedule(period, on_frame)

        sim.schedule(0, on_frame)
        started = time.perf_counter()
        sim.run_until(period * frames)
        return time.perf_counter() - started, sim.events_processed

    return _median_per_op(once)


def timers_us_per_rearm() -> float:
    """``start_alarm`` x 64, ``restart_alarm`` x 32 000, ``cancel_alarm`` x 64."""
    from repro.sim.kernel import Simulator
    from repro.sim.timers import TimerService

    alarms_n, rounds = 64, 500

    def once():
        sim = Simulator()
        service = TimerService(sim)
        noop = lambda: None  # noqa: E731
        started = time.perf_counter()
        alarms = [service.start_alarm(10_000 + i, noop) for i in range(alarms_n)]
        for round_index in range(rounds):
            for alarm in alarms:
                service.restart_alarm(alarm, 10_000 + round_index)
        for alarm in alarms:
            service.cancel_alarm(alarm)
        return time.perf_counter() - started, alarms_n * (rounds + 2)

    return _median_per_op(once)


def encode_us_per_frame() -> Tuple[float, float]:
    """``exact_frame_bits`` over 2000 distinct frames: cold (cache cleared,
    every call encodes) and cached (every call hits)."""
    from repro.can.bitstream import clear_encoding_cache, exact_frame_bits

    corpus = []
    for index in range(2000):
        remote = index % 3 == 0
        data = b"" if remote else bytes(
            (index * 37 + offset * 11) & 0xFF for offset in range(index % 9)
        )
        corpus.append(((index * 0x9E3779B1) & ((1 << 29) - 1), data, remote))

    def sweep():
        started = time.perf_counter()
        for identifier, data, remote in corpus:
            exact_frame_bits(identifier, data, remote)
        return time.perf_counter() - started, len(corpus)

    def cold():
        clear_encoding_cache()
        return sweep()

    return _median_per_op(cold), _median_per_op(sweep)


def bus_us_per_frame(nodes: int, frames: int) -> float:
    """``frames`` data frames through ``CanStandardLayer.data_req`` on a bus
    with ``nodes`` attached controllers, each with one indication listener
    and no protocol above: arbitration plus delivery fan-out."""
    from repro.can.bus import CanBus
    from repro.can.controller import CanController
    from repro.can.driver import CanStandardLayer
    from repro.can.identifiers import MessageId, MessageType
    from repro.sim.clock import ms
    from repro.sim.kernel import Simulator

    def once():
        sim = Simulator()
        bus = CanBus(sim)
        layers = []
        for node_id in range(nodes):
            controller = CanController(node_id)
            bus.attach(controller)
            layer = CanStandardLayer(controller)
            layer.add_data_ind(lambda mid, data: None)
            layers.append(layer)
        started = time.perf_counter()
        for index in range(frames):
            sender = index % nodes
            layers[sender].data_req(
                MessageId(MessageType.DATA, node=sender, ref=index), b"\x00\x01\x02\x03"
            )
        sim.run_until(sim.now + frames * ms(1))
        elapsed = time.perf_counter() - started
        if bus.stats.physical_frames != frames:
            raise RuntimeError(
                f"bus driver sent {bus.stats.physical_frames} of {frames} frames"
            )
        return elapsed, frames

    return _median_per_op(once)


def trace_us_per_record() -> Tuple[float, float]:
    """``TraceRecorder.record`` x 50 000, then ``export_jsonl`` of them."""
    from repro.sim.trace import TraceRecorder

    records = 50_000

    def fill():
        trace = TraceRecorder()
        started = time.perf_counter()
        for index in range(records):
            trace.record(index * 1000, "bench.rec", node=index % 48, value=index)
        return time.perf_counter() - started, trace

    trace = fill()[1]

    def export_once():
        with scratch_dir() as tmp:
            started = time.perf_counter()
            written = trace.export_jsonl(os.path.join(tmp, "trace.jsonl"))
            return time.perf_counter() - started, written

    return _median_per_op(lambda: (fill()[0], records)), _median_per_op(export_once)


def qos_ms_per_compute() -> float:
    """``network_qos`` over the trace of ``membership-48``'s network after
    two crashes and 600 simulated ms."""
    from repro.obs import network_qos
    from repro.workloads.builder import DEFAULT_SETTLE_CYCLES
    from workloads import network_scripts

    script = network_scripts(smoke=True)["membership-48"]
    with scratch_dir() as tmp:
        net = script.run(0, tmp).keep
    start = script.config.tjoin_wait + round(DEFAULT_SETTLE_CYCLES * script.config.tm)

    def once():
        started = time.perf_counter()
        network_qos(net, start=start)
        return time.perf_counter() - started, 1

    return _median_per_op(once, scale=1e3)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    results: Dict[str, float] = {
        "driver.sim.kernel.us_per_event": kernel_us_per_event(),
        "driver.sim.timers.us_per_rearm": timers_us_per_rearm(),
    }
    cold, cached = encode_us_per_frame()
    results["driver.can.encode.us_per_frame_cold"] = cold
    results["driver.can.encode.us_per_frame_cached"] = cached
    for nodes, frames in ((10, 2000), (50, 600), (200, 200)):
        results[f"driver.can.bus.us_per_frame_n{nodes}"] = bus_us_per_frame(nodes, frames)
    record, export = trace_us_per_record()
    results["driver.sim.trace.us_per_record"] = record
    results["driver.sim.trace.export_us_per_record"] = export
    results["driver.obs.qos.ms_per_compute"] = qos_ms_per_compute()
    results["drivers_s"] = time.perf_counter() - started
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
