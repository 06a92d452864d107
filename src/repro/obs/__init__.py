"""Observability for the QIR toolchain: tracing, metrics, profiling.

The paper's adoption argument rests on knowing *where* a toolchain spends
its effort -- parsing and printing the IR (Example 3), transforming it
(Example 4), and executing it against a simulator (Example 5).  This
package is the measurement substrate for all three:

* :mod:`~repro.obs.tracer` -- nested wall-clock spans with tags, exported
  as JSONL or the Chrome ``trace_event`` format (load in ``chrome://tracing``
  / Perfetto);
* :mod:`~repro.obs.metrics` -- a registry of counters, gauges and
  fixed-bucket histograms with a stable snapshot-to-dict/JSON API;
* :mod:`~repro.obs.observer` -- the :class:`Observer` facade that the
  parser, pass manager, runtime and resilience layers accept, plus the
  :data:`NULL_OBSERVER` no-op default whose overhead is guarded by
  ``benchmarks/bench_obs.py``;
* :mod:`~repro.obs.profile` -- the human-readable ``--profile`` table;
* :mod:`~repro.obs.cli` -- shared ``--trace`` / ``--metrics`` /
  ``--profile`` argparse plumbing for ``qir-run`` and ``qir-opt``;
* :mod:`~repro.obs.snapshot` -- schema-versioned :class:`BenchSnapshot`
  records (median-of-k timings + environment fingerprint), the durable
  form that makes runs comparable across commits;
* :mod:`~repro.obs.regress` -- snapshot diffing with direction-aware
  relative thresholds, producing the pass/fail :class:`RegressionReport`
  behind ``qir-bench diff``;
* :mod:`~repro.obs.runctx` -- the :class:`RunContext` identity (ULID-style
  ``run_id`` + labels) that ties one run's spans, metrics, worker
  telemetry, and ledger row together;
* :mod:`~repro.obs.ledger` -- the :class:`RunLedger`, an append-only
  SQLite history of every run (read back with ``qir-ledger``);
* :mod:`~repro.obs.traceview` -- the inverse of the tracer: loads a
  recorded trace (JSONL or Chrome document) back into a validated
  :class:`Trace` span tree;
* :mod:`~repro.obs.analytics` -- interprets a :class:`Trace`: self-time
  rollups, critical-path extraction, per-worker utilization/imbalance,
  collapsed-stack flamegraph export, and trace diffing (the engine
  behind ``qir-trace``).

Everything here is dependency-free (stdlib only) so the hot paths it
instruments never pay an import tax.
"""

from repro import _lazy_exports

#: Where each public name is defined (its keys, in order, are ``__all__``);
#: see :func:`repro._lazy_exports`.
_EXPORTS = {
    "LEDGER_ENV": "repro.obs.ledger",
    "LedgerError": "repro.obs.ledger",
    "RunLedger": "repro.obs.ledger",
    "RunRecord": "repro.obs.ledger",
    "ledger_dir_from_env": "repro.obs.ledger",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "escape_label_value": "repro.obs.metrics",
    "metric_key": "repro.obs.metrics",
    "openmetrics_name": "repro.obs.metrics",
    "parse_metric_key": "repro.obs.metrics",
    "RunContext": "repro.obs.runctx",
    "is_run_id": "repro.obs.runctx",
    "new_run_id": "repro.obs.runctx",
    "NULL_OBSERVER": "repro.obs.observer",
    "NullObserver": "repro.obs.observer",
    "Observer": "repro.obs.observer",
    "as_observer": "repro.obs.observer",
    "render_profile": "repro.obs.profile",
    "EXIT_REGRESSION": "repro.obs.regress",
    "RecordDelta": "repro.obs.regress",
    "RegressionReport": "repro.obs.regress",
    "diff_snapshots": "repro.obs.regress",
    "SCHEMA_VERSION": "repro.obs.snapshot",
    "BenchRecord": "repro.obs.snapshot",
    "BenchSnapshot": "repro.obs.snapshot",
    "TimingStats": "repro.obs.snapshot",
    "environment_fingerprint": "repro.obs.snapshot",
    "measure": "repro.obs.snapshot",
    "Span": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
    "Trace": "repro.obs.traceview",
    "TraceError": "repro.obs.traceview",
    "TraceSpan": "repro.obs.traceview",
    "ValidationIssue": "repro.obs.traceview",
    "NameRollup": "repro.obs.analytics",
    "PathStep": "repro.obs.analytics",
    "TraceDiff": "repro.obs.analytics",
    "TraceSummary": "repro.obs.analytics",
    "UtilizationReport": "repro.obs.analytics",
    "WorkerStats": "repro.obs.analytics",
    "collapsed_stacks": "repro.obs.analytics",
    "critical_path": "repro.obs.analytics",
    "diff_traces": "repro.obs.analytics",
    "rollup": "repro.obs.analytics",
    "summarize": "repro.obs.analytics",
    "worker_utilization": "repro.obs.analytics",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
