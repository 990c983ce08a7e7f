"""Command-line front end.

Subcommands
-----------
schedule    optimize a schedule from a loss-profile CSV
grids       emit baseline SNR grids (time-uniform, geometric, EDM)
report      error functionals for schedules against a tractable target
simulate    run the reverse sampler and score NLL under the true target
verify      check a target's oracle and entropy properties
mmse-table  tabulate mmse(gamma) and its derivative as CSV

Every artifact-writing run also writes a ``manifest.json`` with the resolved
configuration, SHA-256 hashes of the emitted files, library versions, and
per-stage wall-clock times. Every artifact but the streamed ``samples.csv`` is
serialized before --out is created, so a failed run leaves no directory and no
CSV field is nan or inf. All randomness flows from ``--seed`` via SeedSequence
substreams, so re-running a command reproduces the artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 infeasible optimization,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import MmseCurve
from .functionals import LossProfile, SnrGrid, combined_objective, error_report
from .sampler import SamplerConfig, sample
from .schedules import (
    InfeasibleError,
    LasConfig,
    grid_edm,
    grid_geometric,
    grid_time_uniform,
    las_beam,
    las_exact,
)
from .targets import FiniteDiscrete, build_toy, shannon_entropy, target_from_json, toy_discrete

__all__ = ["main"]


# ---------------------------------------------------------------------------
# artifact plumbing


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_bytes(name: str, obj) -> bytes:
    """``name``'s text as strict JSON; a value JSON cannot hold raises, naming the artifact."""
    try:
        return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _csv_bytes(name: str, header, rows) -> bytes:
    """The header and rows as csv.writer writes them (a field holding ``,``, ``"``
    or a line break is quoted); a float cell is written with _fmt and must be
    finite, any other cell with str."""

    def cell(col, v):
        if not isinstance(v, float):
            return str(v)
        if not math.isfinite(v):
            raise ValueError(f"{name}: column {col} is not finite: {v!r}")
        return _fmt(v)

    buf = io.StringIO()
    cells = ([cell(col, v) for col, v in zip(header, row)] for row in rows)
    csv.writer(buf, lineterminator="\n").writerows([header, *cells])
    return buf.getvalue().encode()


class _Run:
    """Collects stage timings, then writes the artifacts under ``args.out`` and
    the manifest: the subcommand ``args.command`` and the config echo of
    :func:`_config_dict`."""

    def __init__(self, args):
        self.outdir = args.out
        self.command = args.command
        self.config = _config_dict(args)
        self.timings = {}
        self._t0 = time.perf_counter()
        self._stage = None

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        if self._stage is not None:
            self.timings[self._stage] = self.timings.get(self._stage, 0.0) + now - self._t0
        self._stage, self._t0 = name, now

    def write(self, artifacts) -> None:
        """Create --out and write each ``(name, chunks of bytes)`` artifact, hashing
        its bytes as they are written, then ``manifest.json``. Nothing else in
        this module creates --out or writes a file."""
        self.stage("write")
        os.makedirs(self.outdir, exist_ok=True)
        listed = []
        for name, chunks in artifacts:
            digest = hashlib.sha256()
            with open(os.path.join(self.outdir, name), "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    digest.update(chunk)
                listed.append({"path": name, "sha256": digest.hexdigest(), "bytes": fh.tell()})
        self.stage(None)
        manifest = {
            "command": self.command,
            "config": self.config,
            "artifacts": listed,
            "versions": {
                "snrsched": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "timings_sec": {k: round(v, 6) for k, v in self.timings.items()},
        }
        with open(os.path.join(self.outdir, "manifest.json"), "wb") as fh:
            fh.write(_json_bytes("manifest.json", manifest))


def _load_target(spec: str):
    if spec in ("circle8", "grid8"):
        return build_toy(spec)
    with open(spec) as fh:
        return target_from_json(json.load(fh))


def _config_dict(args) -> dict:
    """The manifest's config echo; it rejects a non-finite float flag, which
    strict JSON cannot hold, before any artifact."""
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    for k, v in cfg.items():
        if isinstance(v, float) and not math.isfinite(v):
            flag = "lambda" if k == "lam" else k.replace("_", "-")
            raise ValueError(f"--{flag} must be finite, got {v!r}")
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_schedule(args) -> int:
    run = _Run(args)
    for flag, value in (("--T", args.T), ("--delta", args.delta)):
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value!r}")
    run.stage("load")
    profile = LossProfile.from_csv(args.loss)
    lo = 1.0 / args.T if args.T is not None else None
    hi = 1.0 / args.delta if args.delta is not None else None
    keep = np.ones(profile.n, dtype=bool)
    if lo is not None:
        keep &= profile.gammas >= lo * (1 - 1e-12)
    if hi is not None:
        keep &= profile.gammas <= hi * (1 + 1e-12)
    if keep.sum() < 2:
        lo_s = "0" if lo is None else f"{lo:.6g}"
        hi_s = "inf" if hi is None else f"{hi:.6g}"
        raise ValueError(
            f"--T/--delta trim the loss profile to gamma in [1/T, 1/delta] = [{lo_s}, {hi_s}], "
            f"which keeps {keep.sum()} of {profile.n} knots; a schedule needs at least two"
        )
    profile = LossProfile(gammas=profile.gammas[keep], losses=profile.losses[keep])
    cfg = LasConfig(K=args.K, lam=args.lam, alpha=args.alpha)
    run.stage("optimize")
    sched = las_exact(profile, cfg) if cfg.alpha == 0 else las_beam(profile, cfg)
    obj = sched.to_json_dict()
    if lo is not None or hi is not None:
        # the endpoints are the nearest in-range knots: record the requested range
        # and each endpoint's drift g / want - 1 from it, None where no end was
        # requested (a subnormal --delta puts 1/delta at inf) or it overflows
        obj["requested_gammas"] = req = [lo, hi if hi is not None and math.isfinite(hi) else None]
        obj["endpoint_drift"] = [
            None if w is None or not math.isfinite(g / w) else g / w - 1.0
            for g, w in zip(sched.gammas[[0, -1]].tolist(), req)
        ]
    run.write([("schedule.json", [_json_bytes("schedule.json", obj)])])
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
    run = _Run(args)
    run.stage("build")
    kinds = list(_BUILDERS) if args.kind == "all" else [args.kind]
    grids = {k: _BUILDERS[k](args) for k in kinds}
    rows = [(kind, k, g) for kind, grid in grids.items() for k, g in enumerate(grid.gammas)]
    obj = {kind: [float(g) for g in grid.gammas] for kind, grid in grids.items()}
    run.write([
        ("grids.csv", [_csv_bytes("grids.csv", ["kind", "k", "gamma"], rows)]),
        ("grids.json", [_json_bytes("grids.json", obj)]),
    ])
    for kind, grid in grids.items():
        print(f"{kind}: gamma {_fmt(grid.gammas[0])} .. {_fmt(grid.gammas[-1])}, K={grid.K}")
    return 0


def _named_grids(args) -> list:
    """(name, SnrGrid) pairs from --schedule files and --baseline kinds.

    A --schedule file is a JSON object whose ``gammas`` is a list of numbers;
    no other key is read."""
    named = []
    for path in args.schedule or []:
        try:
            with open(path) as fh:
                obj = json.load(fh)
            gammas = obj.get("gammas") if isinstance(obj, dict) else None
            if not (isinstance(gammas, list) and all(type(g) in (int, float) for g in gammas)):
                raise ValueError('not a JSON object whose "gammas" is a list of numbers')
            named.append((path, SnrGrid(np.asarray(gammas, dtype=float))))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"--schedule {path}: {exc}") from None
    for kind in args.baseline or []:
        named.append((kind, _BUILDERS[kind](args)))
    if not named:
        raise ValueError("no schedules given; use --schedule and/or --baseline")
    return named


def cmd_report(args) -> int:
    run = _Run(args)
    run.stage("load")
    target = _load_target(args.target)
    curve = MmseCurve(target, seed=args.seed)
    loss = LossProfile.from_csv(args.loss) if args.loss else None
    H = shannon_entropy(target) if isinstance(target, FiniteDiscrete) else args.entropy
    named = _named_grids(args)
    run.stage("compute")
    reports = []
    for name, grid in named:
        entry = error_report(curve, grid, loss, H=H, C_fit=args.c_fit)
        entry["name"] = name
        entry["K"] = grid.K
        entry["gammas"] = [float(g) for g in grid.gammas]
        if loss is not None:
            entry["combined_objective"] = combined_objective(loss, grid)
        reports.append(entry)
    header = ["name", "K", "e_disc", "e_apx", "combined_objective", "kl_path_bound"]
    rows = [[e.get(col, "") for col in header] for e in reports]
    run.write([
        ("report.csv", [_csv_bytes("report.csv", header, rows)]),
        ("report.json", [_json_bytes("report.json", reports)]),
    ])
    for e in reports:
        print(
            f"{e['name']}: K={e['K']} e_disc={e['e_disc']:.6g} "
            f"e_apx={e['e_apx']:.6g} kl_bound={e['kl_path_bound']:.6g}"
        )
    return 0


def _sample_lines(samples: np.ndarray):
    """samples.csv as bytes: its header, then blocks of about 4,096 values as _fmt writes them.

    :func:`csvtext.format_block` computes a block's text with numpy, in a
    fraction of the time "%.17g" takes value by value; formatting block by
    block keeps no text of every value alive.
    """
    from .csvtext import format_block  # here, so no other subcommand compiles it

    yield ",".join(f"x{i}" for i in range(samples.shape[1])).encode() + b"\n"
    step = max(1, 4096 // samples.shape[1])
    for i in range(0, samples.shape[0], step):
        yield format_block(samples[i:i + step])


def cmd_simulate(args) -> int:
    run = _Run(args)
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
    text = _json_bytes("sample_report.json", {**report, "schedule": name})
    run.write([("samples.csv", _sample_lines(samples)), ("sample_report.json", [text])])
    nll = (
        "n/a" if report["nll_mean"] is None
        else f"{report['nll_mean']:.6g} (stderr {report['nll_stderr']:.2g})"
    )
    print(f"{name}: K={grid.K} n={args.samples} nll={nll}")
    return 0


def cmd_mmse_table(args) -> int:
    run = _Run(args)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not 0 < args.gamma_min < args.gamma_max:
        raise ValueError(f"need 0 < --gamma-min < --gamma-max, got {args.gamma_min!r}, {args.gamma_max!r}")
    if not math.isfinite(1.0 / args.gamma_min):
        raise ValueError(f"1/--gamma-min must be finite, got {args.gamma_min!r}")
    run.stage("load")
    target = _load_target(args.target)
    curve = MmseCurve(target, policy=args.policy, n_samples=args.samples, seed=args.seed)
    run.stage("compute")
    gammas = np.geomspace(args.gamma_min, args.gamma_max, args.points)
    knots = curve.tabulate(gammas)
    text = _csv_bytes("mmse.csv", ["gamma", "mmse", "stderr", "dmmse", "dstderr"], knots)
    run.write([("mmse.csv", [text])])
    print(f"wrote {len(knots)} knots over gamma [{_fmt(args.gamma_min)}, {_fmt(args.gamma_max)}]")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # here, so no other subcommand loads the checks

    run = _Run(args) if args.out else None
    if args.target:
        targets = {args.target: _load_target(args.target)}
    else:
        targets = {}
        for name in ("circle8", "grid8"):
            targets[name] = build_toy(name)
            targets[f"{name}_discrete"] = toy_discrete(name)
    results = verify.run_checks(targets, args.seed)
    if run is not None:
        run.write([("verify.json", [_json_bytes("verify.json", results)])])
    return 0 if all(r["ok"] for r in results) else 4


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """argparse type for --seed: an integer >= 0, as numpy's seeding needs."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def _add_endpoint_flags(p):
    p.add_argument("--T", type=float, default=1.0, help="largest noise variance (default 1.0)")
    p.add_argument("--delta", type=float, default=1e-3, help="smallest noise variance (default 1e-3)")
    p.add_argument("--K", type=int, default=8, help="number of steps (default 8)")
    p.add_argument("--rho", type=float, default=7.0, help="EDM exponent (default 7)")


def _schedule_args(p):
    p.add_argument("--loss", required=True, help="loss profile CSV (gamma,loss,kind)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--T", type=float, default=None, help="trim candidates to gamma >= 1/T")
    p.add_argument("--delta", type=float, default=None, help="trim candidates to gamma <= 1/delta")
    p.add_argument("--out", required=True)


def _grids_args(p):
    _add_endpoint_flags(p)
    p.add_argument("--kind", choices=[*_BUILDERS, "all"], default="all")
    p.add_argument("--out", required=True)


def _report_args(p):
    p.add_argument("--target", required=True, help="circle8, grid8, or a target JSON file")
    p.add_argument("--schedule", action="append", help="schedule JSON file (repeatable)")
    p.add_argument("--baseline", action="append", choices=list(_BUILDERS))
    p.add_argument("--loss", default=None)
    p.add_argument("--entropy", type=float, default=None, help="Shannon entropy for the bounds")
    p.add_argument("--c-fit", dest="c_fit", type=float, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    _add_endpoint_flags(p)
    p.add_argument("--out", required=True)


def _simulate_args(p):
    p.add_argument("--target", required=True)
    p.add_argument("--schedule", action="append")
    p.add_argument("--baseline", action="append", choices=list(_BUILDERS))
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--order", choices=["first", "second"], default="first")
    p.add_argument("--init", choices=["exact_forward", "gaussian_prior"], default="exact_forward")
    p.add_argument("--sigma-err", dest="sigma_err", type=float, default=0.0)
    p.add_argument("--final-denoise", dest="final_denoise", action="store_true")
    _add_endpoint_flags(p)
    p.add_argument("--out", required=True)


def _verify_args(p):
    p.add_argument("--target", default=None, help="circle8, grid8, or a target JSON file "
                   "(default: both toys and their discrete companions)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)


def _mmse_table_args(p):
    p.add_argument("--target", required=True)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=1.0)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--policy", choices=["auto", "closed_form", "quadrature", "monte_carlo"], default="auto")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)


# name: (help, argument adder, handler), in --help order
_COMMANDS = {
    "schedule": ("optimize a schedule from a loss-profile CSV", _schedule_args, cmd_schedule),
    "grids": ("emit baseline SNR grids", _grids_args, cmd_grids),
    "report": ("error functionals for schedules against a target", _report_args, cmd_report),
    "simulate": ("run the reverse sampler", _simulate_args, cmd_simulate),
    "verify": ("check a target's oracle and entropy properties", _verify_args, cmd_verify),
    "mmse-table": ("tabulate the mmse curve as CSV", _mmse_table_args, cmd_mmse_table),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The snrsched parser, with every subcommand, or with ``command``'s alone.

    A parser for one command parses that command's argv, prints its --help
    and reports its errors exactly as the full parser does, without building
    the other subcommands' parsers.
    """
    parser = argparse.ArgumentParser(
        prog="snrsched", description="SNR schedule optimization and verification tools"
    )
    # a one-command parser names every command in the usage line that its
    # "unrecognized arguments" error prints; the full parser derives the same
    # line itself, and names the argument "command" in its own errors
    names = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
