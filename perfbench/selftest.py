"""Self-test of the tracer's counters.

``check_traced`` runs inside every traced benchmark run and checks the
counters of its traced ops against what the op must do. Run as a script,
it traces small in-process calls with known call counts:

    python3 perfbench/selftest.py

and exits 1 if any counter is wrong.
"""

from __future__ import annotations

import os
import sys

from layers import COUNTS, op_metrics, self_times


def check_self_times(doc: dict) -> list:
    """Self times are nonnegative and add up to the root spans' durations."""
    spans = doc["spans"]
    dur, own = self_times(spans)
    roots = sum(d for s, d in zip(spans, dur) if s[1] is None)
    errs = []
    if any(o < -1e-9 for o in own):
        errs.append("a span has negative self time: a child outlives its parent")
    if abs(sum(own) - roots) > 1e-9 * max(1.0, len(spans)):
        errs.append(f"self times sum to {sum(own)!r}, root spans last {roots!r}")
    return errs


def expected_counts(workload, sizes: dict) -> dict:
    """Counters an op of this workload must show, whatever its speed."""
    name = workload.name
    if name.startswith("simulate"):
        K, n = sizes["K"], sizes["samples"]
        # first order: one denoiser call per step plus the final denoise
        return {
            "channel.posterior_mean.calls": K + 1,
            "channel.posterior_mean.rows": (K + 1) * n,
            "sampler.reverse_step.calls": K,
            "sampler.sample.calls": 1,
            "targets.sample.rows": n,
            "schedules.las_exact.calls": 0,
            "channel.mmse.calls": 0,
        }
    if name == "schedule_exact":
        return {"schedules.las_exact.calls": 1, "schedules.las_beam.calls": 0,
                "channel.mmse.calls": 0, "channel.posterior_mean.calls": 0}
    if name == "schedule_beam":
        return {"schedules.las_beam.calls": 1, "schedules.las_exact.calls": 0,
                "schedules.las_beam.n": sizes["candidates"],
                "channel.mmse.calls": 0, "channel.posterior_mean.calls": 0}
    # report: one integral per grid, no sampler or schedule work
    return {"channel.integral.calls": sizes["grids"], "channel.posterior_mean.calls": 0,
            "sampler.sample.calls": 0, "schedules.las_exact.calls": 0}


def check_traced(workload, sizes: dict, docs: list, metrics: list) -> list:
    """Failures among the traced ops of one run (docs and metrics per op)."""
    errs = []
    want = expected_counts(workload, sizes)
    for i, (doc, got) in enumerate(zip(docs, metrics)):
        errs += [f"traced op {i}: {e}" for e in check_self_times(doc)]
        errs += [f"traced op {i}: {k} = {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]
        if doc["absent"]:
            errs.append(f"traced op {i}: absent targets {doc['absent']}")
    for i, got in enumerate(metrics[1:], start=1):
        diff = [k for k in COUNTS if k in got and got[k] != metrics[0][k]]
        if diff:
            errs.append(f"traced op {i}: counters differ from traced op 0: {diff}")
    return errs


def _cells_by_loop(n: int, K: int) -> int:
    """Predecessor scans of las_exact, counted by walking its loops."""
    end, cells = n - 1, 0
    for k in range(2, K):
        for j in range(k, end - (K - k) + 1):
            cells += j
    return cells + end


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import numpy as np

    import snrsched
    import snrsched.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    errs = []
    if tracer.absent:
        errs.append(f"absent targets: {tracer.absent}")
    # identity matching reached the names bound by "from .x import y"
    for mod, attr in [(snrsched.cli, "sample"), (snrsched.functionals, "posterior_mean"),
                      (snrsched.sampler, "posterior_mean"), (snrsched, "mmse")]:
        if not hasattr(getattr(mod, attr), "__wrapped__"):
            errs.append(f"{mod.__name__}.{attr} was not wrapped")

    target = snrsched.GaussianMixture(weights=[0.6, 0.4], means=[[-1.0], [1.0]], sigmas=[0.3, 0.3])
    K, n = 3, 50
    cfg = snrsched.SamplerConfig(n_samples=n, seed=1, final_denoise=True)
    snrsched.sample(target, snrsched.grid_geometric(1.0, 1e-2, K), cfg)
    cands = snrsched.CandidateSet(np.geomspace(1.0, 100.0, 12), np.linspace(1.0, 0.1, 12))
    sched = snrsched.las_exact(cands, snrsched.LasConfig(K=4))
    got = op_metrics({"spans": tracer.spans, "absent": []}, None, 0.0)
    want = {
        "channel.posterior_mean.calls": K + 1,
        "channel.posterior_mean.rows": (K + 1) * n,
        "channel.posterior_mean.tensor_bytes": (K + 1) * n * 2 * 1 * 8,
        "sampler.reverse_step.calls": K,
        "sampler.sample.calls": 1,
        "targets.sample.rows": n,
        "targets.log_prob.calls": 2,
        "targets.log_prob.rows": 2 * n,
        "schedules.las_exact.calls": 1,
        "schedules.las_exact.cells": _cells_by_loop(12, 4),
        "schedules.las_exact.tie_breaks": sched.tie_breaks,
    }
    errs += [f"{k} = {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]
    errs += check_self_times({"spans": tracer.spans})
    for e in errs:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errs else "ok"))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
