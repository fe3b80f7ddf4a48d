"""Observability: metrics, invariant monitors, causal spans and exporters.

``repro.obs`` is the runtime counterpart of the post-hoc trace queries:
:mod:`repro.obs.metrics` exposes counters, gauges and fixed-bucket
histograms that the hot paths update inline (reachable as ``sim.metrics``),
and :mod:`repro.obs.monitors` checks protocol invariants on the live trace
stream, failing fast with the offending trace slice.

:mod:`repro.obs.spans` adds a causal span tracer (``sim.spans``, disabled
by default) that links every protocol action to its cause;
:mod:`repro.obs.critical_path` decomposes one detection or membership
update into named segments that sum exactly to the observed latency; and
:mod:`repro.obs.export` serializes spans to Chrome trace-event JSON and
renders text message sequence charts.

:mod:`repro.obs.qos` computes the classic failure-detector QoS metrics
(detection-time distribution, mistake rate λ_M, mistake duration T_M,
query accuracy P_A, completeness/accuracy under churn) from a finished
trace, deterministically, per membership spell of the crash ledger
:mod:`repro.obs.episodes` — the one record of who went down when and who
noticed when, which the monitors also read.
"""

from repro.obs.critical_path import (
    CriticalPath,
    Segment,
    detection_path,
    notification_path,
    view_update_path,
)
from repro.obs.episodes import Crash, Episodes
from repro.obs.export import (
    CHROME_CATEGORIES,
    export_chrome_trace,
    render_msc,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.qos import (
    CrashDetection,
    Mistake,
    QoSMetrics,
    compute_qos,
    network_qos,
)
from repro.obs.monitors import (
    DetectionLatencyMonitor,
    DuplicateFailureSignMonitor,
    InvariantMonitor,
    InvariantViolation,
    PhantomRemovalMonitor,
    ViewAgreementMonitor,
    standard_monitors,
)
from repro.obs.spans import (
    NULL_TRACER,
    Span,
    SpanTracer,
    render_span_tree,
    span_to_dict,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "CHROME_CATEGORIES",
    "Counter",
    "Crash",
    "CrashDetection",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Mistake",
    "NULL_TRACER",
    "QoSMetrics",
    "Segment",
    "Span",
    "SpanTracer",
    "DetectionLatencyMonitor",
    "DuplicateFailureSignMonitor",
    "Episodes",
    "InvariantMonitor",
    "InvariantViolation",
    "PhantomRemovalMonitor",
    "ViewAgreementMonitor",
    "compute_qos",
    "detection_path",
    "export_chrome_trace",
    "network_qos",
    "notification_path",
    "render_msc",
    "render_span_tree",
    "span_to_dict",
    "standard_monitors",
    "validate_chrome_trace",
    "view_update_path",
]
