"""Observability: tracing, metrics, manifests, bench telemetry, reports.

A zero-dependency instrumentation spine for the experiment pipeline:

* :mod:`repro.obs.trace` — nested wall/CPU spans (``span("name")``),
  off by default with a no-allocation disabled path;
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges and decade histograms whose snapshots merge across ``--jobs``
  worker processes;
* :mod:`repro.obs.manifest` — machine-readable ``run-manifest.json``
  reproducibility receipts (git SHA, config, seeds, catalog digest,
  span tree, metric snapshot, result digests) plus schema validation;
* :mod:`repro.obs.bench` — schema-versioned ``BENCH_<name>.json``
  benchmark records and the ``repro bench --compare`` regression gate;
* :mod:`repro.obs.export` — Chrome/Perfetto Trace Event export of
  manifest span trees (``--trace-out``, ``report --export-trace``);
* :mod:`repro.obs.progress` — the TTY-aware live progress meter the
  engine publishes task completions to;
* :mod:`repro.obs.faults` — deterministic fault injection
  (``--inject-faults``), the retry/timeout/on-error policy objects and
  the SIGALRM task deadline the resilient executor runs under;
* :mod:`repro.obs.report` — rendering a manifest (or a diff of two)
  into the ``repro report`` breakdown;
* :mod:`repro.obs.logs` — stdlib logging wiring for ``--log-level``;
* :mod:`repro.obs.profile` — the sampling wall-clock profiler behind
  ``--profile`` (folded stacks, speedscope + flamegraph export,
  mergeable across ``--jobs`` workers), the one sampler thread;
* :mod:`repro.obs.history` — the append-only perf-history store and
  the ``repro bench trend`` multi-run regression gate;
* :mod:`repro.obs.decisions` — the ``--decisions`` decision-provenance
  log: per-lookup explain records (winner, runner-up, margin, distance
  to the nearest switchover plane) under deterministic bottom-k
  sampling, mergeable fragility aggregates, and the ``repro explain``
  single-probe provenance helpers.
"""

from .bench import (
    BENCH_SCHEMA_VERSION,
    BenchComparison,
    BenchDelta,
    BenchRecorder,
    build_bench_record,
    compare_bench_records,
    load_bench_record,
    render_bench_comparison,
    render_bench_record,
    validate_bench_record,
    write_bench_record,
)
from .decisions import (
    DECISIONS,
    DecisionLog,
    decision_instant_events,
    explain_probe,
    margins_from_totals,
    plane_distances,
    validate_decision_records,
    write_decision_records,
)
from .faults import (
    FAULT_KINDS,
    ON_ERROR_MODES,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    RetryPolicy,
    TaskTimeout,
    apply_fault,
    backoff_delay,
    fault_roll,
    time_limit,
)
from .export import (
    event_names,
    span_names,
    trace_events,
    validate_trace_events,
    write_trace_events,
)
from .history import (
    HISTORY_SCHEMA_VERSION,
    SeriesTrend,
    TrendReport,
    append_history,
    bench_history_entries,
    default_history_path,
    detect_trends,
    load_history,
    manifest_history_entries,
    render_trend_report,
    validate_history_entry,
)
from .logs import LOG_LEVELS, configure_logging, configured_log_level
from .manifest import (
    SCHEMA_VERSION,
    build_manifest,
    catalog_digest,
    empty_task_stats,
    environment_fingerprint,
    git_revision,
    manifest_from_context,
    text_digest,
    validate_manifest,
    write_manifest,
)
from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    PROFILER,
    SamplingProfiler,
    build_speedscope,
    folded_lines,
    folded_path_for,
    validate_speedscope,
    write_folded,
    write_speedscope,
)
from .progress import PROGRESS, ProgressReporter, ProgressTask
from .report import (
    render_comparison,
    render_manifest,
    wrong_choice_by_decade,
)
from .trace import TRACER, Span, Tracer, span

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DECISIONS",
    "FAULT_KINDS",
    "HISTORY_SCHEMA_VERSION",
    "LOG_LEVELS",
    "METRICS",
    "ON_ERROR_MODES",
    "PROFILER",
    "PROGRESS",
    "SCHEMA_VERSION",
    "TRACER",
    "BenchComparison",
    "BenchDelta",
    "BenchRecorder",
    "Counter",
    "DecisionLog",
    "FaultPlan",
    "FaultSpecError",
    "Gauge",
    "Histogram",
    "InjectedFault",
    "MetricsRegistry",
    "ProgressReporter",
    "ProgressTask",
    "RetryPolicy",
    "SamplingProfiler",
    "SeriesTrend",
    "Span",
    "TaskTimeout",
    "Tracer",
    "TrendReport",
    "append_history",
    "apply_fault",
    "backoff_delay",
    "bench_history_entries",
    "build_bench_record",
    "build_manifest",
    "build_speedscope",
    "catalog_digest",
    "compare_bench_records",
    "configure_logging",
    "configured_log_level",
    "decision_instant_events",
    "default_history_path",
    "detect_trends",
    "explain_probe",
    "empty_task_stats",
    "environment_fingerprint",
    "fault_roll",
    "event_names",
    "folded_lines",
    "folded_path_for",
    "git_revision",
    "load_bench_record",
    "load_history",
    "manifest_from_context",
    "manifest_history_entries",
    "margins_from_totals",
    "plane_distances",
    "render_bench_comparison",
    "render_bench_record",
    "render_comparison",
    "render_manifest",
    "render_trend_report",
    "span",
    "span_names",
    "text_digest",
    "time_limit",
    "trace_events",
    "validate_bench_record",
    "validate_decision_records",
    "validate_history_entry",
    "validate_manifest",
    "validate_speedscope",
    "validate_trace_events",
    "write_bench_record",
    "write_decision_records",
    "write_folded",
    "write_manifest",
    "write_speedscope",
    "write_trace_events",
    "wrong_choice_by_decade",
]
