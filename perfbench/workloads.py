"""Workloads: seeded input generation, the op each one runs, and its checks.

Every workload runs one kind of CLI op. ``prepare`` writes the op's inputs
from the workload seed (without calling snrsched) and returns a context;
``check_op`` compares one op's artifacts with the independent references in
:mod:`reference` and returns the failures it found; ``check_run`` compares
the ops of one run with each other. All checks run outside the timed op.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import reference as ref

GAMMA_MIN, GAMMA_MAX = 1.0, 1000.0  # the CLI defaults T = 1, delta = 1e-3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _check_manifest(outdir) -> list:
    """Every artifact the manifest lists exists with the recorded hash."""
    errs = []
    manifest = _load_json(os.path.join(outdir, "manifest.json"))
    for art in manifest["artifacts"]:
        path = os.path.join(outdir, art["path"])
        if not os.path.isfile(path) or _sha256(path) != art["sha256"]:
            errs.append(f"manifest hash mismatch for {art['path']}")
    return errs


def _knots(rng, n: int) -> np.ndarray:
    """n strictly increasing SNRs from GAMMA_MIN to GAMMA_MAX, jittered in log."""
    u = np.linspace(math.log(GAMMA_MIN), math.log(GAMMA_MAX), n)
    step = u[1] - u[0]
    u[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * step
    g = np.exp(u)
    g[0], g[-1] = GAMMA_MIN, GAMMA_MAX
    return g


def _write_profile(path, gammas, x0, rng) -> tuple:
    """Write a gamma,loss,kind CSV with about half the rows as eps losses.

    Returns the (gammas, losses, kinds) exactly as a reader parses them.
    """
    kinds = np.where(rng.random(gammas.size) < 0.5, "eps", "x0")
    losses = np.where(kinds == "eps", x0 * gammas, x0)
    lines = ["gamma,loss,kind"] + [f"{g!r},{lo!r},{k}" for g, lo, k in zip(gammas.tolist(), losses.tolist(), kinds)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return [float(g) for g in gammas], [float(lo) for lo in losses], [str(k) for k in kinds]


class Workload:
    name = ""
    why = ""
    min_ops = 3

    def prepare(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def check_op(self, ctx: dict, outdir: str) -> tuple:
        """(failures, facts) for one op; facts feed check_run and the report."""
        raise NotImplementedError

    def check_run(self, ctx: dict, facts: list) -> dict:
        """{op index: failure} for disagreements between the ops of a run."""
        return {}


# ---------------------------------------------------------------------------
# report


class Report(Workload):
    name = "report"
    why = (
        "report op on circle8, two grids sharing endpoints and a loss profile: exercises the "
        "quadrature oracle, MmseCurve.integral and functionals; bypasses posterior_mean, "
        "sampler and schedules"
    )
    min_ops = 1
    K = 8
    knots = 64

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        weights, means, sigmas = ref.circle8()
        # the linear-estimator MMSE sum_j v_j / (1 + v_j gamma) bounds the
        # true MMSE from above, so a profile above it has a positive excess
        # at every knot and apx_error never clamps
        centered = means - weights @ means
        v = weights @ centered**2 + weights @ sigmas**2
        g = _knots(rng, self.knots)
        bound = (v[None, :] / (1.0 + v[None, :] * g[:, None])).sum(axis=1)
        x0 = bound * (1.0 + rng.uniform(0.05, 0.5, g.size))
        path = os.path.join(workdir, "loss.csv")
        profile = _write_profile(path, g, x0, rng)
        argv = ["report", "--target", "circle8", "--baseline", "geometric", "--baseline", "edm",
                "--K", str(self.K), "--loss", path]
        return {"argv": argv, "profile": profile,
                "sizes": {"target": "circle8", "loss_rows": self.knots, "K": self.K, "grids": 2}}

    def _grids(self):
        K = self.K
        geometric = np.geomspace(GAMMA_MIN, GAMMA_MAX, K + 1)
        rho, smax, smin = 7.0, math.sqrt(1.0 / GAMMA_MIN), math.sqrt(1.0 / GAMMA_MAX)
        ramp = np.arange(K + 1) / K
        sig = (smax ** (1 / rho) + ramp * (smin ** (1 / rho) - smax ** (1 / rho))) ** rho
        edm = 1.0 / sig**2
        for g in (geometric, edm):
            g[0], g[-1] = GAMMA_MIN, GAMMA_MAX
        return {"geometric": geometric, "edm": edm}

    def _reference(self, ctx):
        if "ref" in ctx:
            return ctx["ref"]
        w, m, s = ref.circle8()
        cache = {}

        def mmse(g):
            if g not in cache:
                cache[g] = ref.gmm_mmse_2d(w, m, s, g)
            return cache[g]

        integral = ref.integral_log_axis(mmse, GAMMA_MIN, GAMMA_MAX, panels=2, order=16)
        out = {"integral": integral, "grids": {}}
        for name, g in self._grids().items():
            left = np.array([mmse(float(x)) for x in g[:-1]])
            dg = np.diff(g)
            riemann = float(dg @ left)
            loss = ref.x0_risk(*ctx["profile"], g[:-1])
            out["grids"][name] = {
                "gammas": g,
                "e_disc": riemann - integral,
                "e_apx": float(dg @ np.maximum(loss - left, 0.0)),
                # MmseCurve.integral promises rel_tol 1e-6 on the integral,
                # which bounds e_disc's error; the Riemann knots and e_apx
                # only differ by Gauss-Hermite node count (~1e-8 relative)
                "tol_disc": 1e-6 * integral + 1e-7 * riemann,
                "tol_apx": 1e-7 * float(dg @ (loss + left)),
            }
        ctx["ref"] = out
        return out

    def check_op(self, ctx, outdir):
        errs = _check_manifest(outdir)
        expect = self._reference(ctx)["grids"]
        entries = {e["name"]: e for e in _load_json(os.path.join(outdir, "report.json"))}
        facts = {}
        for name, want in expect.items():
            got = entries.get(name)
            if got is None:
                errs.append(f"report has no {name} entry")
                continue
            gam = np.asarray(got["gammas"], dtype=float)
            if gam.shape != want["gammas"].shape or not np.allclose(gam, want["gammas"], rtol=1e-12, atol=0):
                errs.append(f"{name}: grid differs from the reference grid")
            if not _close(got["e_disc"], want["e_disc"], want["tol_disc"]):
                errs.append(f"{name}: e_disc {got['e_disc']!r} vs reference {want['e_disc']!r}")
            if not _close(got["e_apx"], want["e_apx"], want["tol_apx"]):
                errs.append(f"{name}: e_apx {got['e_apx']!r} vs reference {want['e_apx']!r}")
            facts[name] = {"e_disc": got["e_disc"], "e_apx": got["e_apx"],
                           "e_disc_ref": want["e_disc"], "e_apx_ref": want["e_apx"]}
        return errs, facts


# ---------------------------------------------------------------------------
# schedule


class _Schedule(Workload):
    n = 0
    K = 0
    alpha = 0.0
    lam = 1.5  # the CLI default

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        g = _knots(rng, self.n)
        # a decreasing risk curve with per-knot noise, so optima are unique
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.02, 0.2)
        x0 = a / (1.0 + b * g) * rng.uniform(1.0, 1.1, g.size)
        path = os.path.join(workdir, "loss.csv")
        gammas, losses, kinds = _write_profile(path, g, x0, rng)
        risks = [lo / gm if k == "eps" else lo for gm, lo, k in zip(gammas, losses, kinds)]
        argv = ["schedule", "--loss", path, "--K", str(self.K)]
        if self.alpha:
            argv += ["--alpha", repr(self.alpha)]
        return {"argv": argv, "gammas": gammas, "risks": risks,
                "sizes": {"candidates": self.n, "K": self.K, "alpha": self.alpha, "lambda": self.lam}}

    def _optimum(self, ctx) -> float:
        raise NotImplementedError

    def check_op(self, ctx, outdir):
        errs = _check_manifest(outdir)
        sched = _load_json(os.path.join(outdir, "schedule.json"))
        idx = [int(i) for i in sched["indices"]]
        gammas, risks = ctx["gammas"], ctx["risks"]
        n = len(gammas)
        if len(idx) != self.K + 1 or idx[0] != 0 or idx[-1] != n - 1:
            errs.append(f"endpoints not pinned or wrong length: {idx[:2]}..{idx[-2:]}")
            return errs, {}
        if any(b <= a for a, b in zip(idx, idx[1:])):
            errs.append("indices are not strictly increasing")
            return errs, {}
        if [float(x) for x in sched["gammas"]] != [gammas[i] for i in idx]:
            errs.append("schedule gammas are not the candidates at its indices")
        obj = float(sched["objective"])
        plain = ref.objective_plain(gammas, risks, idx, self.lam, self.alpha)
        if not _close(obj, plain, 1e-12 * abs(plain)):
            errs.append(f"objective {obj!r} vs recomputed {plain!r}")
        best = self._optimum(ctx)
        gap = (obj - best) / best
        facts = {"objective": obj, "optimum": best, "gap": gap, "indices": idx}
        return errs + self._judge_gap(gap), facts

    def _judge_gap(self, gap) -> list:
        raise NotImplementedError


class ScheduleExact(_Schedule):
    name = "schedule_exact"
    why = (
        "schedule op, alpha=0, 4096 generated candidates, K=32: exercises the exact DP "
        "(las_exact); bypasses channel, so it is the no-change control for oracle changes"
    )
    n, K = 4096, 32

    def _optimum(self, ctx):
        if "optimum" not in ctx:
            g = np.array(ctx["gammas"])
            ctx["optimum"] = ref.first_order_optimum(ref.eta(g, self.lam), np.array(ctx["risks"]), self.K)
        return ctx["optimum"]

    def _judge_gap(self, gap):
        # the DP is exact: only summation-order rounding may separate them
        return [] if abs(gap) <= 1e-9 else [f"exact DP misses the reference optimum by {gap:.3e}"]


class ScheduleBeam(_Schedule):
    name = "schedule_beam"
    why = (
        "schedule op, alpha=1, 128 generated candidates, K=20, default beam and window: "
        "exercises the second-order DP (las_beam); bypasses channel and las_exact"
    )
    n, K, alpha = 128, 20, 1.0

    def _optimum(self, ctx):
        if "optimum" not in ctx:
            g = np.array(ctx["gammas"])
            ctx["optimum"] = ref.second_order_optimum(
                ref.eta(g, self.lam), np.log(g), np.array(ctx["risks"]), self.K, self.alpha
            )
        return ctx["optimum"]

    def _judge_gap(self, gap):
        # a beam can lose to the exhaustive DP, never beat it
        return [] if gap >= -1e-9 else [f"beam beats the exhaustive optimum by {-gap:.3e}"]


# ---------------------------------------------------------------------------
# simulate


class _Simulate(Workload):
    K = 0
    samples = 0

    def _target(self, ctx):
        raise NotImplementedError

    def _argv(self, target: str, seed: int) -> list:
        return ["simulate", "--target", target, "--baseline", "geometric", "--K", str(self.K),
                "--samples", str(self.samples), "--final-denoise", "--seed", str(seed % 2**31)]

    def check_op(self, ctx, outdir):
        errs = _check_manifest(outdir)
        path = os.path.join(outdir, "samples.csv")
        digest = _sha256(path)
        rep = _load_json(os.path.join(outdir, "sample_report.json"))
        facts = {"sha256": digest, "nll_mean": rep["nll_mean"], "nll_stderr": rep["nll_stderr"]}
        grid = np.geomspace(GAMMA_MIN, GAMMA_MAX, self.K + 1)
        if not np.allclose(rep["gammas"], grid, rtol=1e-12, atol=0):
            errs.append("sampler grid differs from the reference geometric grid")
        if ctx.get("nll_checked") == digest:
            return errs, facts  # same bytes as an op already recomputed
        weights, means, sigmas = self._target(ctx)
        X = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if X.shape != (self.samples, means.shape[1]) or not np.all(np.isfinite(X)):
            errs.append(f"samples.csv has shape {X.shape} or non-finite values")
            return errs, facts
        nll = -ref.gmm_log_density(weights, means, sigmas, X)
        mean, se = float(nll.mean()), float(nll.std(ddof=1) / math.sqrt(nll.size))
        if not _close(rep["nll_mean"], mean, 1e-9 * max(1.0, abs(mean))):
            errs.append(f"nll_mean {rep['nll_mean']!r} vs recomputed {mean!r}")
        if not _close(rep["nll_stderr"], se, 1e-6 * se):
            errs.append(f"nll_stderr {rep['nll_stderr']!r} vs recomputed {se!r}")
        if not errs:
            ctx["nll_checked"] = digest
        return errs, facts

    def check_run(self, ctx, facts):
        # one seed, one set of bytes: the README's reproducibility promise
        first = next((f for f in facts if f), None)
        if first is None:
            return {}
        return {
            i: "samples.csv or its NLL differs from the first op with the same seed"
            for i, f in enumerate(facts)
            if f and (f["sha256"], f["nll_mean"]) != (first["sha256"], first["nll_mean"])
        }


class Simulate(_Simulate):
    name = "simulate"
    why = (
        "simulate op on circle8, 1e5 samples, K=32: exercises posterior_mean at d=2, "
        "log_prob, reverse_step and the CSV writer; bypasses quadrature and schedules"
    )
    K, samples = 32, 100_000

    def prepare(self, seed, workdir):
        return {"argv": self._argv("circle8", seed),
                "sizes": {"target": "circle8", "components": 8, "dim": 2, "samples": self.samples, "K": self.K}}

    def _target(self, ctx):
        return ref.circle8()


class SimulateHD(_Simulate):
    name = "simulate_hd"
    why = (
        "simulate op on a generated 64-component GMM in d=64, 4096 samples, K=16: the "
        "(m, n, d) posterior tensor dominates time and memory; bypasses quadrature and schedules"
    )
    K, samples, components, dim = 16, 4096, 64, 64

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 1.5, self.components)
        w /= w.sum()
        means = rng.normal(0.0, 1.5, (self.components, self.dim))
        sigmas = rng.uniform(0.5, 1.0, self.components)
        spec = {
            "variant": "gmm",
            "dim": self.dim,
            "components": [
                {"w": float(wi), "mean": [float(x) for x in mu], "sigma": float(si)}
                for wi, mu, si in zip(w, means, sigmas)
            ],
        }
        path = os.path.join(workdir, "target.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return {"argv": self._argv(path, seed), "target": (w, means, sigmas),
                "sizes": {"target": "gmm", "components": self.components, "dim": self.dim,
                          "samples": self.samples, "K": self.K}}

    def _target(self, ctx):
        return ctx["target"]


WORKLOADS = {w.name: w for w in (Report(), ScheduleExact(), ScheduleBeam(), Simulate(), SimulateHD())}
