"""Per-layer metrics from the spans of one traced op.

A span's self time is its duration minus the durations of its direct
children. Row counts and byte counts are computed from argument shapes by
the tracer, not measured. Every metric in ``PER_LAYER`` is reported on every
workload; a layer that did no work on a workload reads 0.
"""

from __future__ import annotations

import re

# (metric, unit)
PER_LAYER = [
    ("channel.posterior_cov_stats.calls", "count"),
    ("channel.posterior_cov_stats.rows", "count"),
    ("channel.posterior_cov_stats.self_s", "s"),
    ("channel.posterior_cov_stats.rows_per_s", "1/s"),
    ("channel.mmse.calls", "count"),
    ("channel.mmse.self_s", "s"),
    ("channel.mmse.repeat_ratio", "ratio"),
    ("channel.integral.calls", "count"),
    ("channel.integral.s", "s"),
    ("channel.integral.mmse_calls", "count"),
    ("channel.posterior_mean.calls", "count"),
    ("channel.posterior_mean.rows", "count"),
    ("channel.posterior_mean.self_s", "s"),
    ("channel.posterior_mean.rows_per_s", "1/s"),
    ("channel.posterior_mean.tensor_bytes", "B"),
    ("functionals.error_report.s", "s"),
    ("functionals.disc_error.s", "s"),
    ("functionals.disc_error.self_s", "s"),
    ("functionals.apx_error.s", "s"),
    ("functionals.apx_error.mmse_calls", "count"),
    ("functionals.LossProfile.from_csv.s", "s"),
    ("schedules.las_exact.calls", "count"),
    ("schedules.las_exact.s", "s"),
    ("schedules.las_exact.cells", "count"),
    ("schedules.las_exact.tie_breaks", "count"),
    ("schedules.las_beam.calls", "count"),
    ("schedules.las_beam.s", "s"),
    ("schedules.las_beam.n", "count"),
    ("schedules.las_beam.gap", "relative"),
    ("sampler.sample.calls", "count"),
    ("sampler.sample.s", "s"),
    ("sampler.sample.self_s", "s"),
    ("sampler.reverse_step.calls", "count"),
    ("sampler.reverse_step.self_s", "s"),
    ("targets.log_prob.calls", "count"),
    ("targets.log_prob.rows", "count"),
    ("targets.log_prob.self_s", "s"),
    ("targets.sample.rows", "count"),
    ("targets.sample.self_s", "s"),
    ("targets.target_from_json.s", "s"),
    ("targets.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stage.load_s", "s"),
    ("cli.stage.compute_s", "s"),
    ("cli.stage.optimize_s", "s"),
    ("cli.stage.sample_s", "s"),
    ("cli.stage.write_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]

# metrics that count work; they must repeat exactly for one seed
COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "B") or name.endswith("repeat_ratio")]


def self_times(spans) -> tuple:
    """(durations, self times) of spans given as [name, parent, start, end, info]."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] is not None:
            child[s[1]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][1]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    pat = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for line in stderr.splitlines():
        m = pat.match(line)
        if m and m.group(2) == module:
            return int(m.group(1)) / 1e6
    return 0.0


def op_metrics(doc: dict, manifest: dict | None, import_s: float) -> dict:
    """Per-layer metrics of one traced op (everything but the run-level ones)."""
    spans = doc["spans"]
    dur, self_s = self_times(spans)
    calls, total, own, info = {}, {}, {}, {}
    for s, d, o in zip(spans, dur, self_s):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + o
        info.setdefault(name, []).append(s[4] or {})

    def summed(name, key):
        return sum(i.get(key, 0) for i in info.get(name, []))

    def rate(name):
        sec = own.get(name, 0.0)
        return summed(name, "rows") / sec if sec > 0 else 0.0

    gammas = [i["gamma"] for i in info.get("channel.mmse", [])]
    mmse_under = lambda anc: sum(  # noqa: E731
        1 for i, s in enumerate(spans) if s[0] == "channel.mmse" and _has_ancestor(spans, i, anc)
    )
    stages = (manifest or {}).get("timings_sec", {})
    out = {
        "channel.posterior_cov_stats.calls": calls.get("channel.posterior_cov_stats", 0),
        "channel.posterior_cov_stats.rows": summed("channel.posterior_cov_stats", "rows"),
        "channel.posterior_cov_stats.self_s": own.get("channel.posterior_cov_stats", 0.0),
        "channel.posterior_cov_stats.rows_per_s": rate("channel.posterior_cov_stats"),
        "channel.mmse.calls": len(gammas),
        "channel.mmse.self_s": own.get("channel.mmse", 0.0),
        "channel.mmse.repeat_ratio": 1.0 - len(set(gammas)) / len(gammas) if gammas else 0.0,
        "channel.integral.calls": calls.get("channel.integral", 0),
        "channel.integral.s": total.get("channel.integral", 0.0),
        "channel.integral.mmse_calls": mmse_under("channel.integral"),
        "channel.posterior_mean.calls": calls.get("channel.posterior_mean", 0),
        "channel.posterior_mean.rows": summed("channel.posterior_mean", "rows"),
        "channel.posterior_mean.self_s": own.get("channel.posterior_mean", 0.0),
        "channel.posterior_mean.rows_per_s": rate("channel.posterior_mean"),
        "channel.posterior_mean.tensor_bytes": summed("channel.posterior_mean", "tensor_bytes"),
        "functionals.error_report.s": total.get("functionals.error_report", 0.0),
        "functionals.disc_error.s": total.get("functionals.disc_error", 0.0),
        "functionals.disc_error.self_s": own.get("functionals.disc_error", 0.0),
        "functionals.apx_error.s": total.get("functionals.apx_error", 0.0),
        "functionals.apx_error.mmse_calls": mmse_under("functionals.apx_error"),
        "functionals.LossProfile.from_csv.s": total.get("functionals.LossProfile.from_csv", 0.0),
        "schedules.las_exact.calls": calls.get("schedules.las_exact", 0),
        "schedules.las_exact.s": total.get("schedules.las_exact", 0.0),
        "schedules.las_exact.cells": summed("schedules.las_exact", "cells"),
        "schedules.las_exact.tie_breaks": summed("schedules.las_exact", "tie_breaks"),
        "schedules.las_beam.calls": calls.get("schedules.las_beam", 0),
        "schedules.las_beam.s": total.get("schedules.las_beam", 0.0),
        "schedules.las_beam.n": summed("schedules.las_beam", "n"),
        "sampler.sample.calls": calls.get("sampler.sample", 0),
        "sampler.sample.s": total.get("sampler.sample", 0.0),
        "sampler.sample.self_s": own.get("sampler.sample", 0.0),
        "sampler.reverse_step.calls": calls.get("sampler.reverse_step", 0),
        "sampler.reverse_step.self_s": own.get("sampler.reverse_step", 0.0),
        "targets.log_prob.calls": calls.get("targets.log_prob", 0),
        "targets.log_prob.rows": summed("targets.log_prob", "rows"),
        "targets.log_prob.self_s": own.get("targets.log_prob", 0.0),
        "targets.sample.rows": summed("targets.sample", "rows"),
        "targets.sample.self_s": own.get("targets.sample", 0.0),
        "targets.target_from_json.s": total.get("targets.target_from_json", 0.0),
        "targets.import_s": import_s,
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.artifact_bytes": sum(a["bytes"] for a in (manifest or {}).get("artifacts", [])),
        "trace.spans": len(spans),
    }
    for stage in ("load", "compute", "optimize", "sample", "write"):
        out[f"cli.stage.{stage}_s"] = float(stages.get(stage, 0.0))
    return out
