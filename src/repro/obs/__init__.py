"""repro.obs — zero-dependency observability for the PHY/MAC/sim stack.

Three pillars (see ``docs/observability.md`` for schemas and a worked
debugging example):

* **Metrics** (:mod:`repro.obs.metrics`): process-global registry of
  counters, gauges and reservoir histograms; renders to dict/JSON.
* **Tracing** (:mod:`repro.obs.tracer`): ``with trace.span("joint_tx"):``
  context managers and a ``@traced`` decorator emitting timestamped JSONL
  records with nesting and wall/CPU timings.  Disabled by default with a
  shared no-op span, so instrumentation is ~free until a trace sink is
  configured.
* **Logging** (:mod:`repro.obs.logging`): one stderr handler for the
  ``repro`` logger hierarchy, keeping stdout clean for result tables.

Built on those, the v2 layer adds a **run ledger**
(:mod:`repro.obs.ledger` + :mod:`repro.obs.provenance`: append-only JSONL
history of every run with git sha, config hash, seed and headline metrics),
**live sweep progress** (:mod:`repro.obs.progress`), **metric export**
(:mod:`repro.obs.export`: OpenMetrics text and tidy CSV) and **regression
detection** (:mod:`repro.obs.regress`: headline-metric probes compared
against a committed baseline).

The v3 layer crosses the process boundary: pool workers write per-process
trace *shards* reassembled into one tree (:mod:`repro.obs.shards`), and the
attribution profiler (:mod:`repro.obs.profile`, ``repro obs profile``)
decomposes sweep wall time into compute / dispatch / serialization / idle
per worker from the engine's ``runtime.chunk`` dispatch envelopes.

The v4 layer makes the run *watchable while it executes*: a bounded
ring-buffer time-series store (:mod:`repro.obs.timeseries`); a
declarative alert-rule engine (:mod:`repro.obs.alerts`) that is the one
place the §7.3 phase-error budgets and the worker-utilization floor are
enforced — live under a telemetry server and once at the end of every
run command; and a stdlib HTTP endpoint (:mod:`repro.obs.serve`,
``repro obs serve`` / ``--serve-port``) exposing ``/metrics``
(OpenMetrics), ``/timeseries`` + ``/alerts`` (JSON) and ``/events``
(SSE).  Event-shaped data — chunk envelopes, progress ticks, watchdog
stalls, alert transitions, server lifecycle, crash bundles — is
published by one call, :func:`emit` (:mod:`repro.obs.publish`), which
fans it out once to the flight recorder, the trace, the named
time-series points and the ``/events`` subscribers.
``repro.obs.serve`` is deliberately *not* imported here: runs without a
server never pay for the HTTP layer.

Typical CLI wiring::

    from repro.obs import metrics, trace, setup_logging

    setup_logging(verbosity=1)
    trace.configure("out.jsonl")
    ...  # run experiments
    trace.close()
    metrics.write_json("metrics.json")
"""

from repro.obs import metrics, shards, timeseries
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.blackbox import (
    list_bundles,
    load_bundle,
    set_run_context,
    signal_guard,
    write_crash_bundle,
)
from repro.obs.events import SCHEMA_VERSION, format_sse, iter_events, read_events
from repro.obs.flightrec import FlightRecorder, get_recorder
from repro.obs.ledger import Ledger, RunRecord, default_runs_dir, new_run_id
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import MetricsRegistry, Timer, get_registry
from repro.obs.progress import SweepProgress
from repro.obs.publish import emit
from repro.obs.shards import merge_shards
from repro.obs.summary import TraceSummary, format_table, summarize
from repro.obs.timeseries import TimeSeriesStore, get_store
from repro.obs.tracer import NULL_SPAN, Span, Tracer, trace, traced

__all__ = [
    "SCHEMA_VERSION",
    "AlertEngine",
    "AlertRule",
    "FlightRecorder",
    "Ledger",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunRecord",
    "Span",
    "SweepProgress",
    "TimeSeriesStore",
    "Timer",
    "TraceSummary",
    "Tracer",
    "default_runs_dir",
    "emit",
    "format_sse",
    "format_table",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_store",
    "iter_events",
    "list_bundles",
    "load_bundle",
    "merge_shards",
    "metrics",
    "new_run_id",
    "read_events",
    "set_run_context",
    "setup_logging",
    "shards",
    "signal_guard",
    "summarize",
    "timeseries",
    "trace",
    "traced",
    "write_crash_bundle",
]
