"""Command-line front end.

Subcommands
-----------
schedule    optimize a schedule from a loss-profile CSV
grids       emit baseline SNR grids (time-uniform, geometric, EDM)
report      error functionals for schedules against a tractable target
simulate    run the reverse sampler and score NLL under the true target
verify      run the numerical verification battery
mmse-table  tabulate mmse(gamma) and its derivative as CSV

Every artifact-writing run also writes a ``manifest.json`` with the resolved
configuration, SHA-256 hashes of the emitted files, library versions, and
per-stage wall-clock times. All randomness flows from the ``--seed`` flag
via SeedSequence-derived substreams, so re-running a command reproduces the
artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 infeasible optimization,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, verify
from .channel import MmseCurve
from .functionals import LossProfile, SnrGrid, combined_objective, error_report
from .sampler import SamplerConfig, sample
from .schedules import (
    CandidateSet,
    InfeasibleError,
    LasConfig,
    Schedule,
    grid_edm,
    grid_geometric,
    grid_time_uniform,
    las_beam,
    las_exact,
)
from .targets import FiniteDiscrete, build_toy, shannon_entropy, target_from_json, toy_discrete

__all__ = ["build_toy", "toy_discrete", "main"]


# ---------------------------------------------------------------------------
# artifact plumbing


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class _Run:
    """Collects artifacts and stage timings, then writes the manifest."""

    def __init__(self, outdir, command: str, config: dict):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.artifacts = []
        self.timings = {}
        self._t0 = time.perf_counter()
        self._stage = None
        os.makedirs(outdir, exist_ok=True)

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        if self._stage is not None:
            self.timings[self._stage] = self.timings.get(self._stage, 0.0) + now - self._t0
        self._stage, self._t0 = name, now

    def path(self, name: str):
        p = os.path.join(self.outdir, name)
        self.artifacts.append(p)
        return p

    def finish(self) -> None:
        self.stage(None)
        manifest = {
            "command": self.command,
            "config": self.config,
            "artifacts": [
                {
                    "path": os.path.basename(p),
                    "sha256": _sha256(p),
                    "bytes": os.path.getsize(p),
                }
                for p in self.artifacts
            ],
            "versions": {
                "snrsched": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "timings_sec": {k: round(v, 6) for k, v in self.timings.items() if k},
        }
        _write_json(os.path.join(self.outdir, "manifest.json"), manifest)


def _load_target(spec: str):
    if spec in ("circle8", "grid8"):
        return build_toy(spec)
    with open(spec) as fh:
        return target_from_json(json.load(fh))


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_schedule(args) -> int:
    for flag, value in (("--T", args.T), ("--delta", args.delta)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive, got {value!r}")
    run = _Run(args.out, "schedule", _config_dict(args))
    run.stage("load")
    profile = LossProfile.from_csv(args.loss)
    gmin = 1.0 / args.T if args.T is not None else None
    gmax = 1.0 / args.delta if args.delta is not None else None
    cands = CandidateSet.from_profile(profile, gamma_min=gmin, gamma_max=gmax)
    cfg = LasConfig(K=args.K, lam=args.lam, alpha=args.alpha)
    run.stage("optimize")
    sched = las_exact(cands, cfg) if cfg.alpha == 0 else las_beam(cands, cfg)
    run.stage("write")
    _write_json(run.path("schedule.json"), sched.to_json_dict())
    run.finish()
    h = np.diff(np.log(sched.gammas))
    print(f"objective {_fmt(sched.objective)} ({sched.algorithm} DP, K={sched.K})")
    print("h_k " + " ".join(f"{x:.6g}" for x in h))
    return 0


_BUILDERS = {
    "time_uniform": lambda a: grid_time_uniform(a.T, a.delta, a.K),
    "geometric": lambda a: grid_geometric(a.T, a.delta, a.K),
    "edm": lambda a: grid_edm(a.T, a.delta, a.K, a.rho),
}


def cmd_grids(args) -> int:
    run = _Run(args.out, "grids", _config_dict(args))
    run.stage("build")
    kinds = list(_BUILDERS) if args.kind == "all" else [args.kind]
    grids = {k: _BUILDERS[k](args) for k in kinds}
    run.stage("write")
    rows = [
        (kind, str(k), _fmt(g))
        for kind, grid in grids.items()
        for k, g in enumerate(grid.gammas)
    ]
    _write_csv(run.path("grids.csv"), ["kind", "k", "gamma"], rows)
    _write_json(
        run.path("grids.json"),
        {kind: [float(g) for g in grid.gammas] for kind, grid in grids.items()},
    )
    run.finish()
    for kind, grid in grids.items():
        print(f"{kind}: gamma {_fmt(grid.gammas[0])} .. {_fmt(grid.gammas[-1])}, K={grid.K}")
    return 0


def _named_grids(args) -> list:
    """(name, SnrGrid) pairs from --schedule files and --baseline kinds."""
    named = []
    for path in args.schedule or []:
        with open(path) as fh:
            obj = json.load(fh)
        if "indices" in obj:
            sched = Schedule.from_json_dict(obj)
            named.append((path, sched.grid()))
        else:
            named.append((path, SnrGrid(np.asarray(obj["gammas"], dtype=float))))
    for kind in args.baseline or []:
        named.append((kind, _BUILDERS[kind](args)))
    if not named:
        raise ValueError("no schedules given; use --schedule and/or --baseline")
    return named


def cmd_report(args) -> int:
    run = _Run(args.out, "report", _config_dict(args))
    run.stage("load")
    target = _load_target(args.target)
    curve = MmseCurve(target, seed=args.seed)
    loss = LossProfile.from_csv(args.loss) if args.loss else None
    H = shannon_entropy(target) if isinstance(target, FiniteDiscrete) else args.entropy
    named = _named_grids(args)
    run.stage("compute")
    reports = []
    for name, grid in named:
        rep = error_report(curve, grid, loss, H=H, C_fit=args.c_fit)
        entry = rep.to_json_dict()
        entry["name"] = name
        entry["K"] = grid.K
        entry["gammas"] = [float(g) for g in grid.gammas]
        if loss is not None:
            entry["combined_objective"] = combined_objective(loss, grid)
        reports.append(entry)
    run.stage("write")
    rows = [
        (
            e["name"],
            str(e["K"]),
            _fmt(e["e_disc"]),
            _fmt(e["e_apx"]),
            _fmt(e.get("combined_objective", float("nan"))),
            _fmt(e["kl_path_bound"]),
        )
        for e in reports
    ]
    _write_csv(
        run.path("report.csv"),
        ["name", "K", "e_disc", "e_apx", "combined_objective", "kl_path_bound"],
        rows,
    )
    _write_json(run.path("report.json"), reports)
    run.finish()
    for e in reports:
        print(
            f"{e['name']}: K={e['K']} e_disc={e['e_disc']:.6g} "
            f"e_apx={e['e_apx']:.6g} kl_bound={e['kl_path_bound']:.6g}"
        )
    return 0


def cmd_simulate(args) -> int:
    run = _Run(args.out, "simulate", _config_dict(args))
    run.stage("load")
    target = _load_target(args.target)
    named = _named_grids(args)
    if len(named) != 1:
        raise ValueError("simulate takes exactly one schedule or baseline")
    name, grid = named[0]
    cfg = SamplerConfig(
        n_samples=args.samples,
        seed=args.seed,
        order=args.order,
        init=args.init,
        sigma_err=args.sigma_err,
        final_denoise=args.final_denoise,
    )
    run.stage("sample")
    samples, report = sample(target, grid, cfg)
    run.stage("write")
    header = [f"x{i}" for i in range(samples.shape[1])]
    # _fmt's "%.17g" over a whole row at once gives the same bytes in about
    # half the time; converting row by row keeps no list of every value alive
    line = ",".join(["%.17g"] * samples.shape[1])
    _write_csv(run.path("samples.csv"), header, ([line % tuple(row.tolist())] for row in samples))
    rep = report.to_json_dict()
    rep["schedule"] = name
    _write_json(run.path("sample_report.json"), rep)
    run.finish()
    print(
        f"{name}: K={grid.K} n={args.samples} nll={report.nll_mean:.6g} "
        f"(stderr {report.nll_stderr:.2g})"
    )
    return 0


def cmd_mmse_table(args) -> int:
    run = _Run(args.out, "mmse-table", _config_dict(args))
    run.stage("load")
    target = _load_target(args.target)
    curve = MmseCurve(target, policy=args.policy, n_samples=args.samples, seed=args.seed)
    run.stage("compute")
    gammas = np.geomspace(args.gamma_min, args.gamma_max, args.points)
    knots = curve.tabulate(gammas)
    run.stage("write")
    rows = [tuple(_fmt(v) for v in knot) for knot in knots]
    _write_csv(run.path("mmse.csv"), ["gamma", "mmse", "stderr", "dmmse", "dstderr"], rows)
    run.finish()
    print(f"wrote {len(knots)} knots over gamma [{_fmt(args.gamma_min)}, {_fmt(args.gamma_max)}]")
    return 0


def cmd_verify(args) -> int:
    run = _Run(args.out, "verify", _config_dict(args)) if args.out else None
    target = _load_target(args.target) if args.target else None
    results = verify.run_checks(args.suite, target, args.seed)
    if run is not None:
        _write_json(run.path("verify.json"), results)
        run.finish()
    return 0 if all(r["ok"] for r in results) else 4


# ---------------------------------------------------------------------------
# parser


def _add_endpoint_flags(p):
    p.add_argument("--T", type=float, default=1.0, help="largest noise variance (default 1.0)")
    p.add_argument("--delta", type=float, default=1e-3, help="smallest noise variance (default 1e-3)")
    p.add_argument("--K", type=int, default=8, help="number of steps (default 8)")
    p.add_argument("--rho", type=float, default=7.0, help="EDM exponent (default 7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snrsched", description="SNR schedule optimization and verification tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="optimize a schedule from a loss-profile CSV")
    p.add_argument("--loss", required=True, help="loss profile CSV (gamma,loss,kind)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--T", type=float, default=None, help="trim candidates to gamma >= 1/T")
    p.add_argument("--delta", type=float, default=None, help="trim candidates to gamma <= 1/delta")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("grids", help="emit baseline SNR grids")
    _add_endpoint_flags(p)
    p.add_argument("--kind", choices=[*_BUILDERS, "all"], default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grids)

    p = sub.add_parser("report", help="error functionals for schedules against a target")
    p.add_argument("--target", required=True, help="circle8, grid8, or a target JSON file")
    p.add_argument("--schedule", action="append", help="schedule JSON file (repeatable)")
    p.add_argument("--baseline", action="append", choices=list(_BUILDERS))
    p.add_argument("--loss", default=None)
    p.add_argument("--entropy", type=float, default=None, help="Shannon entropy for the bounds")
    p.add_argument("--c-fit", dest="c_fit", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_endpoint_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="run the reverse sampler")
    p.add_argument("--target", required=True)
    p.add_argument("--schedule", action="append")
    p.add_argument("--baseline", action="append", choices=list(_BUILDERS))
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=["first", "second"], default="first")
    p.add_argument("--init", choices=["exact_forward", "gaussian_prior"], default="exact_forward")
    p.add_argument("--sigma-err", dest="sigma_err", type=float, default=0.0)
    p.add_argument("--final-denoise", dest="final_denoise", action="store_true")
    _add_endpoint_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical verification battery")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--target", default=None, help="optional target for target-specific checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mmse-table", help="tabulate the mmse curve as CSV")
    p.add_argument("--target", required=True)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=1.0)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--policy", choices=["auto", "closed_form", "quadrature", "monte_carlo"], default="auto")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mmse_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
