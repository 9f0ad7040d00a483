"""The benchmark's metrics: end to end from an untraced pass, per layer
from a traced one.

Per layer, each layer's self time is the summed self time of the spans
that belong to it (see :data:`LAYER_OF_SPAN` and :data:`LAYER_OF_MODULE`).
Times and counts are reported per run: per batch build→verdict run, or per
served episode.  Spans the tables do not name are reported as
``other.self_s``, and traced wall that no span covers as
``trace.unattributed_s``; neither is spread across the named layers.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Dict, List, Tuple

from perfbench.tracer import CALLBACK_PREFIX
from perfbench.workloads import BATCH_SLO_S, SERVE_SLO_S

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_per_s": "1/s",
    "verdict_correct_ratio": "ratio",
    "sim_ms_per_s": "ms/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "query_slo_ratio": "ratio",
}

# Named entry-point spans -> layer.
LAYER_OF_SPAN = {
    "ScenarioSpec.build": "build",
    "FabricSession.__init__": "attach",
    "FabricSession.finish": "finish",
    "FabricSession.advance": "session",
    "FabricSession.diagnose_now": "session",
    "Simulator.run": "engine",
    "HawkeyeSwitchTelemetry.on_egress_enqueue": "telemetry.hook",
    "HawkeyeSwitchTelemetry.on_pfc_received": "telemetry.hook",
    "HawkeyeSwitchTelemetry.snapshot": "telemetry.snapshot",
    "TelemetryCollector.collect": "collection",
    "TelemetryCollector.flush_pending": "collection",
    "select_reports": "core.select_reports",
    "build_provenance": "core.graph_build",
    "Diagnoser.diagnose": "core.diagnose",
    "AdmissionController.admit": "serve.admit",
}

# Callback spans, by the package or module that owns the callback.
LAYER_OF_MODULE = {
    "repro.sim.engine": "engine",
    "repro.sim.switch": "switch",
    "repro.sim.host": "host",
    "repro.telemetry": "telemetry.hook",
    "repro.collection": "collection",
    "repro.monitor": "monitor",
}

# Layer -> the self-time metric it is reported as.
SELF_TIME_METRIC = {
    "build": "build.s",
    "attach": "attach.s",
    "finish": "finish.self_s",
    "session": "session.self_s",
    "engine": "engine.self_s",
    "switch": "switch.self_s",
    "host": "host.self_s",
    "telemetry.hook": "telemetry.hook_s",
    "telemetry.snapshot": "telemetry.snapshot_s",
    "collection": "collection.collect_s",
    "core.select_reports": "core.select_reports_s",
    "core.graph_build": "core.graph_build_s",
    "core.diagnose": "core.diagnose_s",
    "monitor": "monitor.sample_s",
    "serve.admit": "serve.admit_s",
}

# Per-run means of the deterministic run counters.
COUNT_METRICS = (
    "build.switches",
    "build.hosts",
    "sim.events_run",
    "sim.compactions",
    "switch.data_pkt_hops",
    "switch.pfc_frames",
    "telemetry.snapshots",
    "collection.collections",
    "collection.polling_packets",
    "agent.triggers",
    "monitor.samples",
    "monitor.alerts",
)

UNITS: Dict[str, str] = {
    **{name: "s/run" for name in SELF_TIME_METRIC.values()},
    **{name: "count/run" for name in COUNT_METRICS},
    "other.self_s": "s/run",
    "switch.calls": "count/run",
    "host.calls": "count/run",
    "sim.peak_pending": "count",
    "sim.events_per_hop": "ratio",
    "telemetry.cache_hit_ratio": "ratio",
    "core.replay_cache_hit_ratio": "ratio",
    "core.share": "ratio",
    "serve.slice_p50_s": "s",
    "serve.slice_p95_s": "s",
    "serve.slices": "count/run",
    "serve.query_exec_s": "s",
    "serve.query_wait_s": "s",
    "serve.admission_rejected": "count",
    "serve.stream_lag_p95_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "trace.runs": "count",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
    "trace.unattributed_s": "s/run",
}


def layer_of(name: str) -> str:
    """The layer a span name belongs to, or ``other``."""
    if name.startswith(CALLBACK_PREFIX):
        module = name[len(CALLBACK_PREFIX):]
        for prefix, layer in LAYER_OF_MODULE.items():
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"
    return LAYER_OF_SPAN.get(name, "other")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(pass_: Any, import_s: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of an untraced pass."""
    runs = pass_.runs
    wall = pass_.wall_s
    if pass_.workload == "serve-open-loop":
        latencies = [q.latency_s for q in pass_.queries if q.status == "ok"]
        on_time = sum(
            1 for q in pass_.queries
            if q.status == "ok" and q.latency_s <= SERVE_SLO_S
        )
        asked = len(pass_.queries)
    else:
        latencies = [r.latency_s for r in runs]
        on_time = sum(1 for r in runs if r.correct and r.latency_s <= BATCH_SLO_S)
        asked = len(runs)
    verdicts = len(runs) + len(pass_.errors)
    return {
        "setup_s": median(import_s) + median(pass_.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs_per_s": _ratio(len(runs), wall),
        "verdict_correct_ratio": _ratio(sum(1 for r in runs if r.correct), verdicts),
        "sim_ms_per_s": _ratio(pass_.sim_ns / 1e6, wall),
        "query_p50_ms": 1e3 * percentile(latencies, 0.50),
        "query_p95_ms": 1e3 * percentile(latencies, 0.95),
        "query_slo_ratio": _ratio(on_time, asked),
    }


def per_layer(
    plain: Any, traced: Any, tracer: Any
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics of ``traced``; ``plain`` is the untraced pass of
    the same work (overhead base, and the source of service-side numbers
    that tracing would distort)."""
    runs = max(1, len(traced.runs))
    self_by_layer: Dict[str, float] = {}
    calls_by_layer: Dict[str, int] = {}
    for name, self_s, calls in zip(tracer.names, tracer.self_s, tracer.calls):
        layer = layer_of(name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
        if name.startswith(CALLBACK_PREFIX):
            calls_by_layer[layer] = calls_by_layer.get(layer, 0) + calls

    metrics: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRIC.items():
        metrics[metric] = self_by_layer.get(layer, 0.0) / runs
    other = self_by_layer.get("other", 0.0)
    metrics["other.self_s"] = other / runs
    metrics["switch.calls"] = calls_by_layer.get("switch", 0) / runs
    metrics["host.calls"] = calls_by_layer.get("host", 0) / runs

    totals: Dict[str, int] = {}
    peak = 0
    for run in traced.runs:
        for key, value in run.counters.items():
            totals[key] = totals.get(key, 0) + value
        peak = max(peak, run.counters.get("sim.peak_pending", 0))
    for name in COUNT_METRICS:
        metrics[name] = totals.get(name, 0) / runs
    metrics["sim.peak_pending"] = float(peak)
    metrics["sim.events_per_hop"] = _ratio(
        totals.get("sim.events_run", 0), totals.get("switch.data_pkt_hops", 0)
    )
    metrics["telemetry.cache_hit_ratio"] = _ratio(
        totals.get("telemetry.cache_hits", 0), totals.get("telemetry.cache_lookups", 0)
    )
    metrics["core.replay_cache_hit_ratio"] = _ratio(
        totals.get("core.replay_cache_hits", 0),
        totals.get("core.replay_cache_lookups", 0),
    )
    core = sum(v for k, v in self_by_layer.items() if k.startswith("core."))
    metrics["core.share"] = _ratio(core, traced.wall_s)

    slices = [end - start for start, end in tracer.spans_named("FabricSession.advance")]
    execs = [end - start for start, end in tracer.spans_named("FabricSession.diagnose_now")]
    # One querier connection, answered in order, and every ok query runs
    # diagnose_now once: the k-th span belongs to the k-th ok reply.
    ok = [q.latency_s for q in traced.queries if q.status == "ok"]
    waits = [latency - run for latency, run in zip(ok, execs)]
    serving = traced.workload == "serve-open-loop"
    metrics["serve.slice_p50_s"] = median(slices) if serving else 0.0
    metrics["serve.slice_p95_s"] = percentile(slices, 0.95) if serving else 0.0
    metrics["serve.slices"] = len(slices) / runs if serving else 0.0
    metrics["serve.query_exec_s"] = median(execs)
    metrics["serve.query_wait_s"] = median(waits)
    counters = plain.service_counters
    metrics["serve.admission_rejected"] = float(
        counters.get("serve.queries.rejected.rate_limit", 0)
        + counters.get("serve.queries.rejected.overload", 0)
    )
    lag = plain.service_histograms.get("serve.stream.lag_s", {})
    metrics["serve.stream_lag_p95_ms"] = 1e3 * lag.get("p95", 0.0)
    metrics["loadgen.late_max_ms"] = 1e3 * plain.late_max_s

    named = sum(v for k, v in self_by_layer.items() if k != "other")
    metrics["trace.runs"] = float(len(traced.runs))
    metrics["trace.overhead_ratio"] = _ratio(traced.wall_s, plain.wall_s)
    metrics["trace.attributed_share"] = _ratio(named, traced.wall_s)
    metrics["trace.unattributed_s"] = max(
        0.0, traced.wall_s - named - other
    ) / runs
    return metrics, {name: UNITS[name] for name in metrics}
