"""End-to-end and per-layer metrics computed from op records and spans."""

import math
import resource
import statistics

import tracing

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Per-layer metric -> span names whose per-call median it reports, in ms.
TIMED_CALLS = {
    "analysis.error_report_ms": ("analysis.error_report",),
    "analysis.hinf_error_ms": ("analysis.hinf_error",),
    "analysis.bound_left_ms": ("analysis.hinf_bound_left",),
    "analysis.bound_right_ms": ("analysis.hinf_bound_right",),
    "analysis.bounds_passive_ms": ("analysis.hinf_bounds_passive",),
    "analysis.sweep_ms": ("analysis.frequency_response",),
    "analysis.h2_gramian_ms": ("analysis.h2_error_gramian",),
    "analysis.h2_quadrature_ms": ("analysis.h2_error_quadrature",),
    "selection.optimize_points_ms": ("selection.optimize_points",),
    "selection.cost_hinf_ms": ("selection.cost_hinf",),
    "selection.cost_h2_ms": ("selection.cost_h2",),
    "reduction.reduce_left_ms": ("reduction.reduce_left",),
    "reduction.reduce_right_ms": ("reduction.reduce_right",),
    "reduction.reduce_passive_ms": ("reduction.reduce_passive",),
    "reduction.subspace_basis_ms": ("reduction.subspace_basis",),
    "symplectic.skew_normal_form_ms": ("symplectic.skew_normal_form",),
    "systems.check_realizability_ms": ("systems.check_realizability",),
    "serialization.encode_ms": ("serialization.encode",),
    "serialization.decode_ms": ("serialization.decode",),
    "serialization.csv_ms": ("serialization.csv",),
    "cases.run_example_ms": ("cases.run_example",),
}
EXAMPLES = ("ex1", "ex2", "ex3")
# Layers the benchmark calls inside ops; ``bench`` is its own glue.
OP_LAYERS = ("bench", "systems", "reduction", "analysis", "selection", "serialization")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        index = max(math.ceil(pct / 100.0 * n) - 1, 0)
        if n - 1 - index >= TAIL_MIN_BEYOND:
            return pct, ordered[index]
    return None


def end_to_end(records, setup_s, setup_factor, op_factor):
    """The end-to-end metrics of one untraced op phase, as {name: value}.

    Set-up and op times are multiplied by the host-speed factor measured
    during each (see ``hostspeed``).  ``ops_per_s`` is validated ops per
    second of op time; ``op_p50_s`` is the median latency of the validated
    ops.  The phase runs whole cycles, so every case has the same weight.
    """
    latencies = [op_factor * r["latency_s"] for r in records if r["passed"]]
    op_time = op_factor * sum(r["latency_s"] for r in records)
    return {
        "setup_s": setup_s * setup_factor,
        "ops_per_s": len(latencies) / op_time,
        "op_p50_s": statistics.median(latencies) if latencies else math.inf,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(spans, traced_records, untraced_records, draws):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(*names):
        return [tracing.duration(s) for name in names for s in by_name.get(name, [])]

    out = {}
    for metric, names in TIMED_CALLS.items():
        out[metric] = (1e3 * _median(durations(*names)), "ms")
    for example in EXAMPLES:
        calls = [tracing.duration(s) for s in by_name.get("cases.run_example", []) if s["example"] == example]
        out[f"cases.run_example_{example}_ms"] = (1e3 * _median(calls), "ms")

    sweeps = by_name.get("analysis.frequency_response", [])
    out["analysis.grid_points"] = (_median(s["points"] for s in sweeps), "count")
    out["analysis.sweep_points_per_s"] = (
        _median(s["points"] / tracing.duration(s) for s in sweeps),
        "1/s",
    )
    out["analysis.sweep_gflops_computed"] = (
        _median(s["flops"] / tracing.duration(s) / 1e9 for s in sweeps),
        "GFLOP/s",
    )

    searches = [r for r in traced_records if "evaluations" in r]
    evaluations = sum(r["evaluations"] for r in searches)
    out["selection.evaluations"] = (_median(r["evaluations"] for r in searches), "count")
    out["selection.feasible_ratio"] = (
        sum(r["feasible"] for r in searches) / evaluations if evaluations else 0.0,
        "ratio",
    )
    evals_by_op = {r["op"]: r["evaluations"] for r in searches}
    out["selection.ms_per_evaluation"] = (
        _median(
            1e3 * tracing.duration(s) / evals_by_op[s["op"]]
            for s in by_name.get("selection.optimize_points", [])
            if s["op"] in evals_by_op
        ),
        "ms",
    )

    reduce_calls = [s for s in spans if s["name"].startswith("reduction.reduce_")]
    attempts = draws.draws + len(reduce_calls)
    useful = draws.draws - draws.discarded + sum(1 for s in reduce_calls if not s.get("error"))
    out["reduction.success_ratio"] = (useful / attempts if attempts else 0.0, "ratio")
    out["serialization.bytes"] = (_median(r["bytes"] for r in traced_records if "bytes" in r), "bytes")

    op_spans = tracing.op_tree(spans)
    traced_wall = sum(tracing.duration(s) for s in op_spans if s["name"] == "bench.op")
    untraced_wall = sum(r["latency_s"] for r in untraced_records)
    selfs = tracing.self_times(op_spans)
    for layer in OP_LAYERS:
        out[f"self.{layer}_s"] = (selfs.get(layer, 0.0), "s")
    out["trace.op_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out
