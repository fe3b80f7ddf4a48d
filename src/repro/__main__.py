"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``demo``      — run the quickstart scenario and print the timeline.
* ``fig1``      — print the reproduced Fig. 1 comparison table.
* ``fig10``     — print the Fig. 10 bandwidth table (analytical model), or
  its curves as an ASCII chart (``--plot``).
* ``fig11``     — measure and print the Fig. 11 attribute table and the
  inaccessibility scenario catalogue.
* ``bounds``    — print the latency bounds for a configuration.
* ``run``       — execute a JSON scenario script and print its report.
* ``trace``     — run a scenario and query/export its trace (JSONL).
* ``metrics``   — run a scenario and print the metrics registry.
* ``spans``     — run a seeded crash scenario with causal span tracing on
  and summarize the spans, print the exact critical-path latency
  decomposition, render the detection's span tree or a message sequence
  chart, or export Chrome trace-event JSON (``--chrome``/``--validate``).
* ``campaign``  — run a parallel randomized fault-scenario campaign with
  checkpoint/resume (see :mod:`repro.campaign`).
* ``check``     — systematically explore bounded fault schedules, minimize
  and persist any counterexample; ``--fingerprints`` deduplicates against
  a persistent explored-schedule store, ``--coverage`` mutates schedules
  that produced new trace fingerprints, ``--replay`` re-executes an
  artifact bit-for-bit and ``--selftest`` plants a protocol bug and
  asserts the checker finds it (see :mod:`repro.check`).
* ``compare``   — run the same seeded crash scenario under rival membership
  backends (CANELy vs SWIM, optionally over gateway-bridged bus segments)
  and print their QoS side by side: detection latency, view stability,
  bandwidth per node (see :mod:`repro.analysis.comparison`).
* ``qos``       — run the named scenario catalog (babbling idiot, bus-off
  storm, churn, ...) against one or more backends and print the
  failure-detector QoS comparison — detection quantiles, mistake rate
  λ_M, mistake duration T_M, query accuracy P_A (see
  :mod:`repro.scenarios` and :mod:`repro.obs.qos`).

The figure commands print exactly the tables ``benchmarks/results/``
commits (:mod:`repro.analysis.figures`). Every report leaves through
:func:`_emit`, every bad argument through :func:`main`'s ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter

from repro.analysis.latency import latency_bounds
from repro.core.config import CanelyConfig
from repro.core.stack import CanelyNetwork
from repro.errors import CheckError, ConfigurationError, ScenarioError
from repro.sim.clock import format_time, ms
from repro.util.tables import render_table, to_json


def _emit(args, document, **renderers) -> None:
    """Print a command's ``document`` in its ``--format``; with ``--report
    PATH``, also write the document there as JSON.

    ``renderers`` maps every other format the command offers to a
    zero-argument function returning the rendering. A command without a
    ``--format`` option prints JSON.
    """
    fmt = getattr(args, "format", "json")
    print(to_json(document) if fmt == "json" else renderers[fmt]())
    path = getattr(args, "report", None)
    if path:
        with open(path, "w") as handle:
            handle.write(to_json(document) + "\n")
        print(f"report written to {path}")


def _format_option(parser, *formats) -> None:
    """Give ``parser`` a ``--format`` choice among ``formats`` (the first
    is the default)."""
    parser.add_argument(
        "--format",
        choices=list(formats),
        default=formats[0],
        help="output format (json/csv keys are deterministically ordered)",
    )


def _run_options(parser, unit: str) -> None:
    """The execution options ``campaign`` and ``check`` share; ``unit``
    names what one of their runs executes."""
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (0 = in-process; default: CPU count, max 8)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help=f"per-{unit} wall-clock budget, seconds",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="append completed results to this JSONL file",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"skip {unit}s already in the checkpoint file",
    )
    parser.add_argument(
        "--verbose", action="store_true", help=f"print one line per {unit}"
    )


def _demo_network(narrate: bool = False):
    """The quickstart scenario under the standard invariant monitors: 8
    nodes join, node 5 crashes after 400 ms, the run stops 150 ms later.
    Returns ``(network, crash time)``; ``narrate`` prints the crash."""
    net = CanelyNetwork(node_count=8)
    net.attach_monitors()
    net.join_all()
    net.run_for(ms(400))
    crash_time = net.sim.now
    if narrate:
        print(f"[{format_time(crash_time)}] view: {sorted(net.agreed_view())}")
        print(f"[{format_time(crash_time)}] node 5 crashed")
    net.node(5).crash()
    net.run_for(ms(150))
    return net, crash_time


def _cmd_demo(args) -> int:
    net, crash_time = _demo_network(narrate=True)
    print(f"[{format_time(net.sim.now)}] view: {sorted(net.agreed_view())}")
    print("agreement:", "ok" if net.views_agree() else "VIOLATED")
    if args.timeline:
        from repro.sim.timeline import summarize, timeline

        print("\ntimeline around the crash:")
        for line in timeline(
            net.sim.trace, start=crash_time - ms(2), end=crash_time + ms(60)
        ):
            print(f"  {line}")
        summary = summarize(net.sim.trace)
        print(
            f"\nsummary: {summary.physical_frames} frames "
            f"({summary.faulty_frames} faulty), by type "
            f"{summary.frames_by_type}, crashes {summary.crashes}"
        )
    return 0


def _cmd_fig1(_args) -> int:
    from repro.analysis.figures import fig1_table

    print(fig1_table())
    return 0


def _cmd_fig10(args) -> int:
    from repro.analysis.figures import fig10_chart, fig10_table

    print(fig10_chart() if args.plot else fig10_table())
    return 0


def _cmd_fig11(_args) -> int:
    from repro.analysis.figures import (
        fig11_table,
        measure_clock_precision_us,
        measure_membership_latency_ms,
    )

    print(fig11_table(measure_membership_latency_ms(), measure_clock_precision_us()))
    return 0


def _cmd_bounds(args) -> int:
    config = CanelyConfig(thb=ms(args.thb), tm=ms(args.tm), tjoin_wait=ms(3 * args.tm))
    bounds = latency_bounds(config)
    rows = [
        ["silence (Thb + Ttd)", format_time(bounds.silence)],
        ["FDA dissemination", format_time(bounds.dissemination)],
        ["failure notification", format_time(bounds.notification)],
        ["consistent view update", format_time(bounds.view_update)],
    ]
    print(
        render_table(
            ["bound", "worst case"],
            rows,
            title=f"Latency bounds (Thb={args.thb}ms, Tm={args.tm}ms)",
        )
    )
    return 0


def _load_scenario(path):
    """The :class:`ScenarioSpec` in the JSON file at ``path``; an
    unreadable file is a :class:`ConfigurationError` like a malformed one."""
    from repro.workloads.script import ScenarioSpec

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario: {error}") from None
    return ScenarioSpec.from_json(text)


def _cmd_run(args) -> int:
    from repro.workloads.script import run_scenario

    report = run_scenario(_load_scenario(args.scenario), monitors=args.monitors)
    _emit(args, report.to_dict())
    return 0 if report.views_agree else 1


def _observed_network(args):
    """Run ``--scenario FILE`` under its backend's invariant monitors, or
    else the demo scenario, and return the finished network."""
    if not args.scenario:
        return _demo_network()[0]
    from repro.workloads.script import run_scenario_detailed

    spec = _load_scenario(args.scenario)
    _report, net = run_scenario_detailed(spec, monitors=True)
    return net


def _cmd_trace(args) -> int:
    from repro.sim.trace import JsonlSink, deliveries, record_to_dict

    net = _observed_network(args)
    trace = net.sim.trace
    # All filters combine in one select() call: category prefix, node and
    # the [--start-ms, --end-ms] time window. A frame's delivery is one
    # row for all its receivers, so --node also matches the delivery rows
    # whose receiver set holds the node.
    start = None if args.start_ms is None else ms(args.start_ms)
    end = None if args.end_ms is None else ms(args.end_ms)
    node = args.node
    selected = trace.select(
        category=args.category,
        start=start,
        end=end,
        predicate=None
        if node is None
        else lambda record: record.node == node
        or any(delivery[1] == node for delivery in deliveries((record,))),
    )
    if args.export:
        with JsonlSink(args.export) as sink:
            for record in selected:
                sink(record)
        print(f"exported {len(selected)} records to {args.export}")
        return 0
    print(
        render_table(
            ["category", "records"],
            [[name, str(count)] for name, count in trace.categories().items()],
            title=f"Trace: {len(trace)} records, {format_time(trace.last_time)}",
        )
    )
    if (
        args.category is not None
        or args.node is not None
        or start is not None
        or end is not None
    ):
        shown = selected if args.limit is None else selected[: args.limit]
        print(f"\n{len(selected)} matching records:")
        for record in shown:
            print(f"  {record_to_dict(record)}")
        if len(shown) < len(selected):
            print(f"  ... {len(selected) - len(shown)} more (raise --limit)")
    return 0


def _cmd_spans(args) -> int:
    from repro.obs.critical_path import (
        detection_path,
        notification_path,
        view_update_path,
    )
    from repro.obs.export import (
        export_chrome_trace,
        render_msc,
        validate_chrome_trace,
    )
    from repro.obs.metrics import Histogram
    from repro.obs.spans import render_span_tree

    if not 0 <= args.crash < args.nodes:
        raise ConfigurationError(
            f"--crash {args.crash} outside 0..{args.nodes - 1}"
        )
    net = CanelyNetwork(node_count=args.nodes, spans=True)
    (
        net.scenario(seed=args.seed)
        .bootstrap()
        .crash(args.crash, at=ms(args.crash_after))
        .run_until_settled()
    )
    spans = net.sim.spans

    if args.chrome or args.validate:
        text = export_chrome_trace(spans, path=args.chrome, flows=args.flows)
        if args.chrome:
            print(f"chrome trace written to {args.chrome} ({len(text)} bytes)")
        if args.validate:
            problems = validate_chrome_trace(text)
            if problems:
                print(f"{len(problems)} trace-event problem(s):")
                for problem in problems:
                    print(f"  {problem}")
                return 1
            print("chrome trace validates: 0 problems")
        if not (args.msc or args.tree or args.critical_path):
            return 0

    if args.msc:
        crash_spans = spans.select(name="node.crash", node=args.crash)
        anchor = crash_spans[0].start if crash_spans else 0
        for line in render_msc(
            net.sim.trace, start=max(0, anchor - ms(1)), end=anchor + ms(30)
        ):
            print(line)
        return 0

    if args.tree:
        detects = spans.select(
            name="fd.detect",
            predicate=lambda s: s.attrs.get("failed") == args.crash,
        )
        if not detects or detects[0].parent is None:
            print(f"no fd.detect span for node {args.crash}")
            return 1
        for line in render_span_tree(
            spans, detects[0].parent, format_time=format_time
        ):
            print(line)
        return 0

    if args.critical_path:
        for path_fn in (detection_path, notification_path, view_update_path):
            for line in path_fn(spans, args.crash).render(format_time):
                print(line)
            print()
        return 0

    # Default: per-span-kind digest of the run, durations summarized at
    # bucket resolution (Histogram.summary()).
    digests = {}
    for span in spans:
        if span.duration is None:
            continue
        key = (span.category, span.name)
        if key not in digests:
            digests[key] = Histogram()
        digests[key].observe(span.duration)
    rows = []
    for (category, name), count in spans.summary().items():
        digest = digests.get((category, name))
        if digest is None or not digest.count:
            rows.append([category, name, str(count), "open", "-", "-"])
            continue
        stats = digest.summary()
        rows.append(
            [
                category,
                name,
                str(count),
                format_time(round(stats["mean"])),
                format_time(round(stats["max"])),
                format_time(round(stats["p99"])),
            ]
        )
    print(
        render_table(
            ["layer", "span", "count", "mean", "max", "p99<="],
            rows,
            title=(
                f"Spans: {len(spans)} recorded, node {args.crash} crashed "
                f"(seed {args.seed}, {args.nodes} nodes)"
            ),
        )
    )
    still_open = Counter(f"{s.category}/{s.name}" for s in spans.open_spans())
    if still_open:
        kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(still_open.items()))
        print(f"{sum(still_open.values())} span(s) open when the run stopped: {kinds}")
    return 0


def _metrics_csv(snapshot) -> str:
    """``metric,value`` lines from a registry snapshot.

    Scalar metrics emit one row; histograms flatten to dotted sub-keys
    (``name.count``, ``name.mean``, ``name.bucket.<boundary>``). Keys are
    emitted in sorted order, buckets in boundary order — deterministic
    for a deterministic run.
    """
    lines = ["metric,value"]
    for key in sorted(snapshot):
        value = snapshot[key]
        if not isinstance(value, dict):
            lines.append(f"{key},{value}")
            continue
        for sub in sorted(value):
            nested = value[sub]
            if isinstance(nested, dict):
                for boundary, count in nested.items():
                    lines.append(f"{key}.{sub}.{boundary},{count}")
            else:
                lines.append(f"{key}.{sub},{nested}")
    return "\n".join(lines)


def _cmd_metrics(args) -> int:
    registry = _observed_network(args).sim.metrics
    snapshot = registry.snapshot()
    _emit(
        args,
        snapshot,
        table=registry.render,
        csv=lambda: _metrics_csv(snapshot),
    )
    return 0


def _cmd_qos(args) -> int:
    from repro.scenarios import run_catalog

    report = run_catalog(
        scenarios=None if args.catalog else args.scenario,
        backends=args.backend or ["canely"],
        seed=args.seed,
        quick=args.quick,
    )

    def table() -> str:
        if not args.chart:
            return report.render()
        from repro.analysis.figures import qos_chart

        return report.render() + "\n\n" + qos_chart(report)

    _emit(args, report.to_dict(), table=table, csv=report.to_csv)
    if args.figure:
        from repro.analysis.figures import save_qos_figure

        print(f"figure written to {save_qos_figure(report, args.figure)}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignReport,
        CampaignSpec,
        default_workers,
        run_campaign,
    )

    spec = CampaignSpec(
        scenarios=args.scenarios,
        seed=args.seed,
        node_min=args.node_min,
        node_max=args.node_max,
        crash_min=args.crash_min,
        crash_max=args.crash_max,
        backend=args.backend,
        segments=args.segments,
    )

    def progress(result):
        latencies = ", ".join(format_time(v) for v in result.latencies)
        print(
            f"scenario {result.index:>3} seed={result.seed} "
            f"verdict={result.verdict} nodes={result.nodes} "
            f"crashes={result.crashes} latencies=[{latencies}] "
            f"({result.elapsed_s:.2f}s, attempt {result.attempts})"
        )

    results = run_campaign(
        spec,
        workers=args.workers if args.workers is not None else default_workers(),
        timeout=args.timeout,
        retries=args.retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
        progress=progress if args.verbose else None,
    )
    report = CampaignReport(spec, results)
    _emit(args, report.to_dict(), table=report.render)
    return 0 if report.success else 1


def _cmd_check(args) -> int:
    from repro.check import (
        CheckSweep,
        ScheduleSpace,
        explore,
        replay_artifact,
        run_selftest,
    )
    from repro.check.selftest import MUTATIONS

    if args.replay:
        from repro.check import read_artifact

        try:
            _schedule, _expected, header = read_artifact(args.replay)
            # Selftest artifacts record the planted mutation: re-plant it,
            # otherwise the (intentionally) bug-free code cannot reproduce
            # the violating trace.
            mutation = header.get("mutation")
            planted = (
                MUTATIONS[mutation].plant()
                if mutation in MUTATIONS
                else contextlib.nullcontext()
            )
            if mutation in MUTATIONS:
                print(f"re-planting recorded mutation [{mutation}]")
            with planted:
                result, _ = replay_artifact(args.replay)
        except CheckError as error:
            print(f"replay FAILED: {error}")
            return 1
        print(
            f"replay ok: verdict={result.verdict} "
            f"monitor=[{result.monitor}] "
            f"fingerprint={result.fingerprint[:16]}... "
            f"({result.events} events, bit-for-bit)"
        )
        return 0

    if args.selftest:
        mutations = [args.mutation] if args.mutation else sorted(MUTATIONS)
        failed = 0
        for mutation in mutations:
            report = run_selftest(
                mutation, seed=args.seed, artifact_path=args.artifact
            )
            print(report.summary())
            if not report.passed:
                failed += 1
        return 1 if failed else 0

    if args.coverage:
        # Coverage exploration keeps no checkpoint and draws no samples.
        for flag, value in (
            ("--checkpoint", args.checkpoint),
            ("--resume", args.resume),
            ("--samples", args.samples),
        ):
            if value:
                raise CheckError(f"--coverage does not take {flag}")

    from repro.campaign import FingerprintStore, default_workers
    from repro.check import explore_coverage

    space = ScheduleSpace(nodes=args.nodes, members=args.members)

    def progress(result):
        print(
            f"schedule {result.index:>4} seed={result.seed} "
            f"verdict={result.verdict} ({result.elapsed_s:.2f}s)"
        )

    workers = args.workers if args.workers is not None else default_workers()
    store_cm = (
        FingerprintStore(args.fingerprints)
        if args.fingerprints
        else contextlib.nullcontext()
    )
    with store_cm as store:
        if args.coverage:
            if store is None:
                print(
                    "warning: --coverage without --fingerprints forgets "
                    "explored schedules between runs"
                )
            report = explore_coverage(
                space,
                budget=args.budget,
                store=store,
                seed=args.seed,
                batch_size=args.batch,
                init_depth=args.depth,
                workers=workers,
                timeout=args.timeout,
                progress=progress if args.verbose else None,
                artifact_dir=args.artifact_dir,
            )
        else:
            sweep = CheckSweep(
                space=space,
                depth=args.depth,
                samples=args.samples,
                seed=args.seed,
            )
            report = explore(
                sweep,
                workers=workers,
                timeout=args.timeout,
                checkpoint=args.checkpoint,
                resume=args.resume,
                progress=progress if args.verbose else None,
                artifact_dir=args.artifact_dir,
                fingerprint_store=store,
            )
    print(report.summary())
    for counterexample in report.counterexamples:
        print(counterexample.describe())
    if report.ok:
        print("every invariant held on every schedule")
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    from repro.analysis.comparison import compare_backends, comparison_rows

    report = compare_backends(
        tuple(args.backends),
        nodes=args.nodes,
        segments=args.segments,
        seed=args.seed,
        crash_window_ms=args.crash_window,
        run_ms=args.run_ms,
    )
    scenario = report["scenario"]
    title = (
        f"Backend QoS — {scenario['nodes']} nodes, "
        f"{scenario['segments']} segment(s), seed {scenario['seed']}"
    )
    _emit(
        args,
        report,
        table=lambda: render_table(*comparison_rows(report), title=title),
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CANELy node failure detection and membership (DSN 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument(
        "--timeline",
        action="store_true",
        help="print the bus timeline around the crash",
    )
    demo.set_defaults(func=_cmd_demo)
    sub.add_parser("fig1", help="print the Fig. 1 table").set_defaults(
        func=_cmd_fig1
    )
    fig10 = sub.add_parser("fig10", help="print the Fig. 10 table")
    fig10.add_argument(
        "--plot", action="store_true", help="render an ASCII chart instead"
    )
    fig10.set_defaults(func=_cmd_fig10)
    sub.add_parser(
        "fig11", help="measure and print the Fig. 11 table and catalogue"
    ).set_defaults(func=_cmd_fig11)
    bounds = sub.add_parser("bounds", help="print latency bounds")
    bounds.add_argument("--thb", type=int, default=10, help="heartbeat period, ms")
    bounds.add_argument("--tm", type=int, default=50, help="membership cycle, ms")
    bounds.set_defaults(func=_cmd_bounds)
    run = sub.add_parser("run", help="execute a JSON scenario script")
    run.add_argument("scenario", help="path to the scenario JSON file")
    run.add_argument(
        "--monitors",
        action="store_true",
        help="fail fast on online invariant violations during the run",
    )
    run.set_defaults(func=_cmd_run)
    trace = sub.add_parser(
        "trace", help="run a scenario and query/export its trace"
    )
    trace.add_argument(
        "--scenario", help="scenario JSON (default: the demo scenario)"
    )
    trace.add_argument("--category", help='e.g. "bus.tx" or the prefix "msh."')
    trace.add_argument("--node", type=int, help="filter by node identifier")
    trace.add_argument(
        "--limit", type=int, default=20, help="max records to print"
    )
    trace.add_argument(
        "--start-ms",
        type=float,
        default=None,
        help="only records at or after this time (combines with the other "
        "filters)",
    )
    trace.add_argument(
        "--end-ms",
        type=float,
        default=None,
        help="only records at or before this time",
    )
    trace.add_argument("--export", metavar="PATH", help="write JSONL instead")
    trace.set_defaults(func=_cmd_trace)
    spans = sub.add_parser(
        "spans",
        help="run a seeded crash scenario with causal span tracing and "
        "summarize, attribute or export the span trace",
    )
    spans.add_argument(
        "--nodes", type=int, default=5, help="network population"
    )
    spans.add_argument("--seed", type=int, default=0, help="scenario seed")
    spans.add_argument(
        "--crash", type=int, default=2, help="node to crash after bootstrap"
    )
    spans.add_argument(
        "--crash-after",
        type=float,
        default=2.0,
        help="crash delay after bootstrap, ms",
    )
    spans.add_argument(
        "--critical-path",
        action="store_true",
        help="print the exact latency decomposition (detection, "
        "notification, view update)",
    )
    spans.add_argument(
        "--tree",
        action="store_true",
        help="print the causal span tree of the detection",
    )
    spans.add_argument(
        "--chrome",
        metavar="PATH",
        help="export Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    spans.add_argument(
        "--flows",
        action="store_true",
        help="with --chrome: emit causal flow arrows across tracks",
    )
    spans.add_argument(
        "--validate",
        action="store_true",
        help="validate the Chrome trace export; exit 1 on problems",
    )
    spans.add_argument(
        "--msc",
        action="store_true",
        help="print a text message sequence chart around the crash",
    )
    spans.set_defaults(func=_cmd_spans)
    metrics = sub.add_parser(
        "metrics", help="run a scenario and print the metrics registry"
    )
    metrics.add_argument(
        "--scenario", help="scenario JSON (default: the demo scenario)"
    )
    _format_option(metrics, "table", "json", "csv")
    metrics.set_defaults(func=_cmd_metrics)
    qos = sub.add_parser(
        "qos",
        help="run the scenario catalog and print the failure-detector "
        "QoS comparison across backends",
    )
    qos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="catalog scenario to run (repeatable; default: whole catalog)",
    )
    qos.add_argument(
        "--catalog",
        action="store_true",
        help="run the whole catalog (the default when no --scenario given)",
    )
    qos.add_argument(
        "--backend",
        action="append",
        metavar="NAME",
        help="membership backend to measure (repeatable; default: canely)",
    )
    qos.add_argument("--seed", type=int, default=0, help="root seed")
    qos.add_argument(
        "--quick",
        action="store_true",
        help="smaller populations and shorter runs (CI smoke budget)",
    )
    _format_option(qos, "table", "json", "csv")
    qos.add_argument(
        "--chart",
        action="store_true",
        help="with the table: also print the ASCII detection-p50 chart",
    )
    qos.add_argument(
        "--report",
        metavar="PATH",
        help="write the JSON report (byte-identical across same-seed runs)",
    )
    qos.add_argument(
        "--figure",
        metavar="PATH",
        help="write the detection chart as an image (needs matplotlib)",
    )
    qos.set_defaults(func=_cmd_qos)
    campaign = sub.add_parser(
        "campaign",
        help="run a parallel randomized fault-scenario campaign",
    )
    campaign.add_argument(
        "--scenarios", type=int, default=30, help="scenario count"
    )
    campaign.add_argument(
        "--node-min", type=int, default=6, help="smallest population"
    )
    campaign.add_argument(
        "--node-max", type=int, default=12, help="largest population"
    )
    campaign.add_argument(
        "--crash-min", type=int, default=1, help="fewest crashes per scenario"
    )
    campaign.add_argument(
        "--crash-max", type=int, default=3, help="most crashes per scenario"
    )
    campaign.add_argument(
        "--backend",
        default="canely",
        help="membership backend every scenario runs (canely, swim)",
    )
    campaign.add_argument(
        "--segments",
        type=int,
        default=1,
        help="bus segments per scenario, gateway-bridged when > 1",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries after a worker timeout/crash",
    )
    campaign.add_argument(
        "--report", metavar="PATH", help="also write the JSON report here"
    )
    _format_option(campaign, "table", "json")
    _run_options(campaign, "scenario")
    campaign.set_defaults(func=_cmd_campaign)
    check = sub.add_parser(
        "check",
        help="systematically explore bounded fault schedules and check "
        "the membership invariants on every one",
    )
    check.add_argument(
        "--depth",
        type=int,
        default=1,
        help="exhaustive enumeration bound (combinations of alphabet "
        "actions up to this size; default 1)",
    )
    check.add_argument(
        "--samples",
        type=int,
        default=0,
        help="seeded guided-random schedules beyond the exhaustive bound",
    )
    check.add_argument(
        "--nodes", type=int, default=5, help="network population"
    )
    check.add_argument(
        "--members",
        type=int,
        default=4,
        help="initial full members (< nodes leaves late joiners)",
    )
    check.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="write one replayable counterexample artifact per violation",
    )
    check.add_argument(
        "--replay",
        metavar="ARTIFACT",
        help="re-execute a counterexample artifact and verify bit-for-bit "
        "reproduction instead of exploring",
    )
    check.add_argument(
        "--selftest",
        action="store_true",
        help="plant a protocol bug and assert the checker finds, "
        "minimizes and replays it",
    )
    check.add_argument(
        "--mutation",
        metavar="NAME",
        help="run --selftest against one registered mutation "
        "(default: all of them)",
    )
    check.add_argument(
        "--artifact",
        metavar="PATH",
        help="with --selftest: also write the counterexample artifact here",
    )
    check.add_argument(
        "--fingerprints",
        metavar="PATH",
        default=None,
        help="persistent fingerprint store: schedules already explored "
        "(across runs) are answered from the store, not re-executed",
    )
    check.add_argument(
        "--coverage",
        action="store_true",
        help="coverage-guided exploration: mutate schedules whose runs "
        "produced new trace fingerprints instead of a fixed population",
    )
    check.add_argument(
        "--budget",
        type=int,
        default=200,
        help="with --coverage: total schedules to execute",
    )
    check.add_argument(
        "--batch",
        type=int,
        default=16,
        help="with --coverage: schedules per campaign batch",
    )
    _run_options(check, "schedule")
    check.set_defaults(func=_cmd_check)
    compare = sub.add_parser(
        "compare",
        help="run the same seeded crash scenario under rival membership "
        "backends and print their QoS side by side",
    )
    compare.add_argument(
        "--nodes", type=int, default=12, help="network population"
    )
    compare.add_argument(
        "--segments",
        type=int,
        default=1,
        help="bus segments, bridged by a store-and-forward gateway when > 1",
    )
    compare.add_argument("--seed", type=int, default=0, help="scenario seed")
    compare.add_argument(
        "--backends",
        nargs="+",
        default=["canely", "swim"],
        metavar="NAME",
        help="backends to compare (default: canely swim)",
    )
    compare.add_argument(
        "--crash-window",
        type=float,
        default=40.0,
        help="crash offset drawn from [0, this] ms after settling",
    )
    compare.add_argument(
        "--run-ms",
        type=float,
        default=500.0,
        help="how long the scenario runs after the crash, ms",
    )
    _format_option(compare, "table", "json")
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except (ConfigurationError, CheckError) as error:
        # Bad input (arguments, names, scenario file, a checker bound):
        # one line, not a traceback.
        print(f"error: {error}")
        return 2
    except ScenarioError as error:
        # Well-formed input whose network never formed or settled.
        print(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
