"""snrsched benchmark: CLI ops in fresh processes, checked against references.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: report, schedule_exact, schedule_beam, simulate, simulate_hd (see
perfbench/workloads.py); the seed generates every input. Each op is
``snrsched.cli.main(argv)`` run in a new Python process (perfbench/child.py),
one at a time: a closed loop with one client, so no memo or warm cache
carries from one op to the next. The child first times ``import
snrsched.cli`` (setup_s), then the op, with a fixed calibration mix timed
just before and just after it (perfbench/calibrate.py). BLAS and OpenMP run
one thread.

With ``--trace 0`` the run repeats the op until S seconds have passed (and
at least the workload's minimum count) and reports the end-to-end metrics:

    op_s         median over the run's ops of one op's wall time (cli.main),
                 scaled to the reference machine speed: wall time times
                 REFERENCE_S / (mean of the calibrations around the op)
    setup_s      median time of import snrsched.cli over every process, scaled
                 by the calibration the process runs right after it
    peak_rss_mb  largest peak RSS over the run's op processes
    ok_ratio     ops that succeeded and passed every check / ops attempted

A run holds at most a few ops, so no high percentile has ten samples
beyond it and none is reported. With ``--trace 1`` it repeats untraced,
traced, traced ops, writes the spans to perfbench/out/<workload>/spans.json
and reports the per-layer metrics of perfbench/layers.py, including
trace.overhead_ratio (traced / untraced op time - 1). ``--workload all``
runs every workload once and ends with a summary under the names users
know the ops by (report_s, schedule_exact_s, ..., fail_ratio).

Every op's artifacts are checked against numpy references outside the timed
op; a failed check, a nonzero exit code or an exception fails the op. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Details (environment, every sample, every failure) go to
perfbench/out/<workload>/result.json.
"""

from __future__ import annotations

import os
import sys

THREADS = 1  # BLAS/OpenMP threads for the ops and the references (<= nproc)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from layers import PER_LAYER, import_seconds, op_metrics  # noqa: E402
from selftest import check_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_ratio", "ratio")]
SETUP_SAMPLES = 5  # import timings per run; import-only processes make up the count
OP_TIMEOUT = 150  # seconds; an op that takes longer fails
MAX_MEASURE = 100  # seconds; stop starting ops after this, whatever --seconds says


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_child(workdir: str, tag: str, argv, *, trace: bool = False, op_id: int = 0) -> dict:
    """Run child.py once; returns its report plus the wall time and stderr."""
    spec = {
        "src": SRC,
        "argv": argv,
        "trace": trace,
        "op_id": op_id,
        "result": os.path.join(workdir, f"{tag}.result.json"),
        "spans": os.path.join(workdir, f"{tag}.spans.json"),
    }
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [os.path.join(HERE, "child.py"), spec_path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT} s", "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    try:
        with open(spec["result"]) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {"error": f"child exited {proc.returncode} without a report: {proc.stderr[-2000:]}"}
    report["wall_s"] = wall
    report["stderr"] = proc.stderr
    if trace and os.path.isfile(spec["spans"]):
        with open(spec["spans"]) as fh:
            report["spans_doc"] = json.load(fh)
    return report


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the package sources, in path order: the code under test."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "snrsched")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(versions) -> dict:
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "versions": versions,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_ops(wl, ctx, workdir, seconds, trace: bool) -> list:
    """Run ops until ``seconds`` have passed and the minimum count is met.

    Untraced runs repeat the plain op. Traced runs repeat the pattern
    untraced, traced, traced: two traced ops show whether the counters
    repeat, and the untraced one gives the tracing overhead.
    """
    ops = []
    t0 = time.perf_counter()
    while True:
        i = len(ops)
        traced = trace and i % 3 != 0
        outdir = os.path.join(workdir, f"op{i}")
        report = run_child(workdir, f"op{i}", ctx["argv"] + ["--out", outdir], trace=traced, op_id=i)
        report.update(index=i, traced=traced, outdir=outdir)
        ops.append(report)
        elapsed = time.perf_counter() - t0
        enough = len(ops) >= (3 if trace else wl.min_ops)
        if enough and (elapsed >= seconds or elapsed >= MAX_MEASURE):
            return ops


def check_ops(wl, ctx, ops) -> None:
    """Set op["failures"] and op["facts"] for every op, outside the timed region."""
    for op in ops:
        op["failures"], op["facts"] = [], None
        if op.get("error"):
            op["failures"].append(op["error"])
        elif op.get("rc") != 0:
            op["failures"].append(f"exit code {op.get('rc')}: {op.get('stderr', '')[-500:]}")
        else:
            try:
                errs, facts = wl.check_op(ctx, op["outdir"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errs, facts = [f"artifacts unreadable: {exc!r}"], None
            op["failures"] += errs
            op["facts"] = facts
    for i, msg in wl.check_run(ctx, [op["facts"] for op in ops]).items():
        ops[i]["failures"].append(msg)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def calibrated(op) -> float:
    """The op's time at the reference machine speed (see calibrate.py)."""
    return op["op_s"] * 2.0 * REFERENCE_S / (op["cal_before_s"] + op["cal_after_s"])


def end_to_end(ops, probes) -> dict:
    good = [op for op in ops if not op["failures"]] or ops
    # the import is timed just before the process's first calibration
    setups = [p["setup_s"] * REFERENCE_S / p["cal_before_s"] for p in probes + ops if "cal_before_s" in p]
    failed = sum(1 for op in ops if op["failures"])
    return {
        "op_s": _median([calibrated(op) for op in good if "op_s" in op]),
        "setup_s": _median(setups),
        "peak_rss_mb": max((op.get("maxrss_mib", 0.0) for op in ops), default=0.0),
        "ok_ratio": (len(ops) - failed) / len(ops),
    }


def per_layer(wl, ctx, ops, workdir) -> tuple:
    """(metrics, failures of the tracer self-test) from the traced ops."""
    traced = [op for op in ops if op["traced"] and "spans_doc" in op]
    plain = [op for op in ops if not op["traced"] and "op_s" in op]
    per_op = []
    for op in traced:
        manifest_path = os.path.join(op["outdir"], "manifest.json")
        manifest = None
        if os.path.isfile(manifest_path):
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        per_op.append(op_metrics(op["spans_doc"], manifest, import_seconds(op["stderr"], "snrsched.targets")))
    errs = check_traced(wl, ctx["sizes"], [op["spans_doc"] for op in traced], per_op)
    if len(traced) < 2:
        errs.append("fewer than two traced ops completed")
    metrics = dict(per_op[0]) if per_op else {name: 0.0 for name, _ in PER_LAYER}
    # timings: median over the traced ops; counters are equal across them
    for name, unit in PER_LAYER:
        if unit == "s" and per_op:
            metrics[name] = _median([m[name] for m in per_op])
    gaps = [op["facts"]["gap"] for op in ops if op.get("facts") and "gap" in op["facts"]]
    metrics["schedules.las_beam.gap"] = gaps[0] if wl.name == "schedule_beam" and gaps else 0.0
    metrics["trace.overhead_ratio"] = (
        _median([calibrated(op) for op in traced]) / _median([calibrated(op) for op in plain]) - 1.0
        if traced and plain else 0.0
    )
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "info"],
                   "ops": [op["spans_doc"] for op in traced]}, fh)
    return metrics, errs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: metrics, units, attempt counts and details."""
    wl = WORKLOADS[name]
    workdir = os.path.join(HERE, "out", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    ctx = wl.prepare(seed, workdir)
    # compile the package's bytecode once, as an installed CLI would have it
    warm = run_child(workdir, "warmup", None)
    if warm.get("error"):
        raise RuntimeError(f"cannot import snrsched: {warm['error']}")
    probes = [run_child(workdir, f"probe{i}", None) for i in range(max(0, SETUP_SAMPLES - wl.min_ops))]
    ops = run_ops(wl, ctx, workdir, seconds, trace)
    check_ops(wl, ctx, ops)

    attempted = len(ops)
    failed = sum(1 for op in ops if op["failures"])
    if trace:
        metrics, errs = per_layer(wl, ctx, ops, workdir)
        st = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")], cwd=workdir,
                            env=_child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT)
        if st.returncode != 0:
            errs.append(f"selftest.py failed: {st.stderr[-1000:]}")
        attempted += 1  # the tracer self-test counts as one more attempt
        failed += 1 if errs else 0
        units = dict(PER_LAYER)
    else:
        metrics, errs = end_to_end(ops, probes), []
        units = dict(END_TO_END)

    env = environment(warm.get("versions"))
    env.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), input_sizes=ctx["sizes"])
    details = {
        "environment": env,
        "metrics": metrics,
        "selftest_failures": errs,
        "setup_probes": [{k: p.get(k) for k in ("setup_s", "cal_before_s")} for p in probes],
        "ops": [
            {k: op.get(k) for k in ("index", "traced", "setup_s", "op_s", "cal_before_s", "cal_after_s", "wall_s",
                                    "maxrss_mib",
                                    "rc", "failures", "facts")}
            for op in ops
        ],
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    for op in ops:
        shutil.rmtree(op["outdir"], ignore_errors=True)
    for msg in errs + [f"op {op['index']}: {m}" for op in ops for m in op["failures"]]:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    return {"metrics": metrics, "units": units, "attempted": attempted, "failed": failed, "details": details}


# --workload all: the summary under the names users know each op by
SUMMARY = [
    ("setup_s", "s", None),
    ("report_s", "s", "report"),
    ("schedule_exact_s", "s", "schedule_exact"),
    ("schedule_beam_s", "s", "schedule_beam"),
    ("schedule_beam_gap", "relative", None),
    ("simulate_s", "s", "simulate"),
    ("simulate_hd_s", "s", "simulate_hd"),
    ("peak_rss_mb", "MiB", None),
    ("fail_ratio", "ratio", None),
]


def summarize(runs: dict) -> tuple:
    """(metrics, units) of the SUMMARY table from one untraced run per workload."""
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    gaps = [op["facts"]["gap"] for op in runs["schedule_beam"]["details"]["ops"] if op.get("facts")]
    metrics = {
        "setup_s": _median([r["metrics"]["setup_s"] for r in runs.values()]),
        "schedule_beam_gap": max(gaps) if gaps else float("nan"),
        "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in runs.values()),
        "fail_ratio": failed / attempted,
    }
    for name, _, workload in SUMMARY:
        if workload:
            metrics[name] = runs[workload]["metrics"]["op_s"]
    return metrics, {name: unit for name, unit, _ in SUMMARY}


def _print_result(header: str, metrics: dict, units: dict, attempted: int, failed: int) -> None:
    print(header)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all" and args.trace:
        parser.error("--workload all summarizes untraced runs only")
    if not os.path.isfile(os.path.join(SRC, "snrsched", "cli.py")):
        print(f"error: no snrsched package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    headers = {
        name: f"# {name} ops={len(run['details']['ops'])} env={json.dumps(run['details']['environment'])}"
        for name, run in runs.items()
    }
    if len(runs) == 1:
        run = runs[args.workload]
        _print_result(headers[args.workload], run["metrics"], run["units"], run["attempted"], run["failed"])
        return 0
    for name, run in runs.items():
        print(headers[name])
        for metric, unit in run["units"].items():
            print(f"{name}.{metric} {run['metrics'][metric]:.6g} {unit}")
    metrics, units = summarize(runs)
    _print_result("# summary", metrics, units, sum(r["attempted"] for r in runs.values()),
                  sum(r["failed"] for r in runs.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
