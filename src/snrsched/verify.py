"""The numerical verification battery behind ``snrsched verify``.

Every check is one row ``(suite, label, fn)`` of the module table, registered
by the :func:`_check` decorator on its function, so a row's label sits next
to its code and the rows run in the order they appear here. ``fn(rng, seed)``
returns ``(ok, message)``; rows of the ``"target"`` suite are
``fn(target, rng, seed)`` and may return None when they do not apply to the
target. :func:`run_checks` gives each suite its own ``default_rng(seed)``, so
a check's inputs do not depend on which other suites run, and prints one line
per check. A check that raises counts as a failure and the remaining checks
still run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channel import (
    MmseCurve,
    _components,
    _responsibilities,
    mmse,
    mmse_derivative,
    posterior_cov_stats,
    posterior_fourth_moment,
    posterior_mean,
)
from .functionals import (
    LossProfile,
    SnrGrid,
    apx_error,
    combined_objective,
    disc_error,
    eps_to_x0,
    final_bounds,
    pathwise_kl_mc,
)
from .sampler import SamplerConfig, reverse_step, sample
from .schedules import (
    LasConfig,
    grid_edm,
    grid_geometric,
    grid_time_uniform,
    las_beam,
    las_exact,
    schedule_objective,
)
from .targets import (
    FiniteDiscrete,
    GaussianMixture,
    build_toy,
    fit_subexponential,
    renyi_half_entropy,
    shannon_entropy,
    surprisal,
)

__all__ = ["SUITES", "run_checks"]

_CHECKS: list = []  # (suite, label, fn) rows in run order


def _check(suite: str, label: str):
    """Register the decorated function as the row ``(suite, label, fn)``."""

    def register(fn):
        _CHECKS.append((suite, label, fn))
        return fn

    return register


def _close(a, b, tol, what="value") -> tuple:
    ok = abs(a - b) <= tol
    return ok, f"{what}: {a:.12g} vs {b:.12g} (tol {tol:g})"


def _leq(a, b, what="value", slack=0.0) -> tuple:
    ok = a <= b + slack
    return ok, f"{what}: {a:.12g} <= {b:.12g}" + (f" + {slack:g}" if slack else "")


def _random_discrete(rng, n=None, d=1) -> FiniteDiscrete:
    n = n or int(rng.integers(2, 9))
    p = rng.dirichlet(np.ones(n) * 2.0)
    p = p / p.sum()
    pts = rng.normal(size=(n, d)) * 2.0
    return FiniteDiscrete(points=pts, probs=p)


_TWO_ATOMS = FiniteDiscrete(points=np.array([[-1.0], [1.0]]), probs=np.array([0.5, 0.5]))
_GAUSS = GaussianMixture(weights=[1.0], means=[[0.0]], sigmas=[1.0])


def _brute_force(cands, K, lam, alpha):
    best = None
    for interior in itertools.combinations(range(1, cands.n - 1), K - 1):
        idx = (0, *interior, cands.n - 1)
        obj = schedule_objective(cands, idx, lam, alpha)
        if best is None or obj < best[1]:
            best = (idx, obj)
    return best


def _random_candidates(rng, n) -> LossProfile:
    g = np.sort(rng.uniform(0.1, 50.0, size=n))
    while np.any(np.diff(g) <= 0):
        g = np.sort(rng.uniform(0.1, 50.0, size=n))
    return LossProfile(gammas=g, losses=rng.uniform(0.01, 3.0, size=n))


@_check("entropy", "uniform8 entropies equal log 8")
def _uniform8(rng, seed):
    d = FiniteDiscrete(points=np.arange(8.0)[:, None], probs=np.full(8, 0.125))
    okH, _ = _close(shannon_entropy(d), math.log(8), 1e-12, "H")
    okR, msg = _close(renyi_half_entropy(d), math.log(8), 1e-12, "H_1/2")
    return okH and okR, msg


@_check("entropy", "entropy ordering H <= H_1/2 <= log n")
def _entropy_ordering(rng, seed):
    for _ in range(20):
        d = _random_discrete(rng)
        H, R = shannon_entropy(d), renyi_half_entropy(d)
        if not (H <= R + 1e-10 and R <= math.log(d.n_atoms) + 1e-10):
            return False, f"violated for n={d.n_atoms}: H={H}, R={R}"
    return True, "H <= H_1/2 <= log n on 20 random targets"


@_check("entropy", "sub-exponential fit bounds the Renyi gap")
def _fitted_gap(rng, seed):
    for _ in range(20):
        d = _random_discrete(rng)
        prof = fit_subexponential(d, b=2.0)
        if not prof.mgf_ok or prof.renyi_half > prof.renyi_half_bound + 1e-10:
            return False, f"H_1/2={prof.renyi_half} > H + nu^2/2={prof.renyi_half_bound}"
    return True, "H_1/2 <= H + nu^2/2 with fitted nu^2 on 20 random targets"


@_check("entropy", "mean surprisal equals H")
def _surprisal_mean(rng, seed):
    d = _random_discrete(rng, n=7)
    mean = math.fsum(p * surprisal(d, i) for i, p in enumerate(d.probs))
    return _close(mean, shannon_entropy(d), 1e-12, "E[iota] vs H")


@_check("entropy", "permutation determinism")
def _permutation(rng, seed):
    d = _random_discrete(rng, n=6)
    perm = rng.permutation(6)
    d2 = FiniteDiscrete(points=d.points[perm], probs=d.probs[perm])
    same = shannon_entropy(d) == shannon_entropy(d2) and renyi_half_entropy(
        d
    ) == renyi_half_entropy(d2)
    return same, "entropies bit-identical under atom permutation"


@_check("mmse", "two-atom symmetry point")
def _symmetry(rng, seed):
    X = np.array([[0.0]])
    weights = _responsibilities(_components(_TWO_ATOMS), 1.0, X)[0]
    mean = posterior_mean(_TWO_ATOMS, 1.0, X)[0]
    ok = abs(mean[0]) <= 1e-12 and abs(weights[0] - 0.5) <= 1e-12
    return ok, f"mean {mean[0]:.3g}, weights {weights}"


@_check("mmse", "two-atom tanh posterior mean")
def _tanh_formula(rng, seed):
    mean = posterior_mean(_TWO_ATOMS, 0.5, [[1.0]])[0]
    return _close(mean[0], math.tanh(2.0), 1e-12, "m_t(1) at t=0.5")


@_check("mmse", "single-Gaussian conjugate mean")
def _conjugacy(rng, seed):
    g = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], sigmas=[0.7])
    x = rng.normal(size=2)
    t = 0.3
    mean = posterior_mean(g, t, x)[0]
    want = 0.49 / (0.49 + t) * x
    return _close(float(np.abs(mean - want).max()), 0.0, 1e-12, "conjugate mean")


@_check("mmse", "mmse derivative matches finite differences")
def _cov_identity(rng, seed):
    for g in (0.5, 2.0, 8.0):
        dv = mmse_derivative(_TWO_ATOMS, g, "quadrature")[0]
        h = 1e-4 * g
        fd = mmse(_TWO_ATOMS, g + h, "quadrature")[0] - mmse(_TWO_ATOMS, g - h, "quadrature")[0]
        fd /= 2 * h
        if abs(dv - fd) > 1e-3 * max(abs(fd), 1e-12):
            return False, f"gamma={g}: -E tr(Cov^2)={dv:.6g} vs fd={fd:.6g}"
    return True, "matches finite differences at gamma in {0.5, 2, 8}"


@_check("mmse", "posterior moment inequalities")
def _moment_chain(rng, seed):
    d = _random_discrete(rng, n=5, d=2)
    t, X = 0.7, rng.normal(size=(1, 2))
    weights = _responsibilities(_components(d), t, X)[0]
    mean = posterior_mean(d, t, X)[0]
    (trace,), (frob_sq,) = posterior_cov_stats(d, t, X)
    fourth = float(weights @ (((d.points - mean) ** 2).sum(axis=1) ** 2))
    ok1, _ = _leq(frob_sq, trace**2, "tr(S^2) <= (tr S)^2", 1e-15)
    ok2, msg = _leq(trace**2, fourth, "(tr S)^2 <= E|Z-m|^4", 1e-12)
    return ok1 and ok2, msg


@_check("mmse", "mmse nonincreasing")
def _mmse_monotone(rng, seed):
    vals = [mmse(_TWO_ATOMS, g, "quadrature")[0] for g in (0.25, 1.0, 4.0, 16.0)]
    ok = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    return ok, f"mmse knots {['%.4g' % v for v in vals]}"


@_check("mmse", "mmse below prior variance")
def _data_processing(rng, seed):
    for g in (0.1, 1.0, 10.0):
        if mmse(_TWO_ATOMS, g, "quadrature")[0] > _TWO_ATOMS.cov_trace() + 1e-12:
            return False, f"mmse({g}) exceeds prior variance"
    return True, "mmse <= prior covariance trace"


@_check("mmse", "fourth moment dominates tr(Cov^2)")
def _fourth_moment_chain(rng, seed):
    t = 0.25
    tr_fr = mmse_derivative(_TWO_ATOMS, 1.0 / t, "quadrature")[0]
    v4, se = posterior_fourth_moment(_TWO_ATOMS, t, 50_000, rng.integers(2**32))
    return _leq(abs(tr_fr), v4 + 3 * se, "E tr(Cov^2) <= E|Z'-Z|^4")


@_check("dp", "first-order DP vs brute force")
def _exact_vs_brute(rng, seed):
    for _ in range(100):
        n = int(rng.integers(4, 9))
        K = int(rng.integers(2, min(n - 1, 4) + 1))
        cands = _random_candidates(rng, n)
        sched = las_exact(cands, LasConfig(K=K, lam=1.5))
        idx, obj = _brute_force(cands, K, 1.5, 0.0)
        if tuple(sched.indices) != idx:
            return False, f"indices {sched.indices} vs brute {idx}"
    return True, "100 random instances match brute force"


@_check("dp", "second-order DP vs brute force")
def _beam_vs_brute(rng, seed):
    for alpha in (0.1, 12.0):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            K = int(rng.integers(2, min(n - 1, 4) + 1))
            cands = _random_candidates(rng, n)
            sched = las_beam(cands, LasConfig(K=K, lam=1.5, alpha=alpha))
            idx, obj = _brute_force(cands, K, 1.5, alpha)
            if tuple(sched.indices) != idx:
                return False, f"alpha={alpha}: {sched.indices} vs {idx}"
    return True, "20 random instances match second-order brute force"


@_check("dp", "endpoint pinning")
def _pinning(rng, seed):
    cands = _random_candidates(rng, 9)
    s1 = las_exact(cands, LasConfig(K=3, lam=1.5))
    s2 = las_beam(cands, LasConfig(K=3, lam=1.5, alpha=1.0))
    ok = s1.indices[0] == 0 == s2.indices[0] and s1.indices[-1] == 8 == s2.indices[-1]
    return ok, f"endpoints {s1.indices} / {s2.indices}"


@_check("dp", "constant-risk tie break")
def _tie_break(rng, seed):
    cands = LossProfile(gammas=np.geomspace(1.0, 100.0, 8), losses=np.full(8, 0.5))
    sched = las_exact(cands, LasConfig(K=4, lam=1.5))
    return sched.indices == (0, 1, 2, 3, 7), f"indices {sched.indices}"


@_check("grids", "builder endpoints")
def _endpoints(rng, seed):
    for build in (grid_time_uniform, grid_geometric, grid_edm):
        g = build(1.0, 0.01, 6)
        if abs(g.gammas[0] - 1.0) > 1e-12 or abs(g.gammas[-1] - 100.0) > 1e-9:
            return False, f"{build.__name__} endpoints {g.gammas[[0, -1]]}"
    return True, "gamma_0 = 1/T and gamma_K = 1/delta for all builders"


@_check("grids", "geometric grid has equal log steps")
def _geometric_ratios(rng, seed):
    g = grid_geometric(1.0, 1e-3, 10)
    h = g.log_steps
    return float(np.abs(h - h.mean()).max()) <= 1e-12, "log steps equal within 1e-12"


@_check("grids", "EDM rho=1 linear in sigma")
def _edm_rho1(rng, seed):
    g = grid_edm(1.0, 0.01, 5, rho=1.0)
    sig = np.sqrt(1.0 / g.gammas)[::-1]
    d = np.diff(sig)
    return float(np.abs(d - d.mean()).max()) <= 1e-12, "rho=1 gives linear sigma spacing"


@_check("grids", "geometric optimality (random probes)")
def _geo_minimal(rng, seed):
    geo = grid_geometric(1.0, 0.01, 3)
    target = float(((np.diff(geo.gammas) / geo.gammas[:-1]) ** 2).sum())
    for _ in range(200):
        interior = np.sort(rng.uniform(1.0, 100.0, size=2))
        g = np.concatenate([[1.0], interior, [100.0]])
        if np.any(np.diff(g) <= 0):
            continue
        val = float(((np.diff(g) / g[:-1]) ** 2).sum())
        if val < target - 1e-9:
            return False, f"random grid beat geometric: {val} < {target}"
    return True, "geometric minimizes the squared ratio sum (200 trials)"


@_check("grids", "Lambda equals product of ratios")
def _lambda_product(rng, seed):
    g = grid_edm(2.0, 1e-3, 12)
    return _close(float(np.prod(g.ratios)), g.Lambda, 1e-9 * g.Lambda, "prod r_k vs Lambda")


@_check("errors", "closed-form discretization constant")
def _closed_constant(rng, seed):
    grid = SnrGrid(np.array([1.0, 2.0, 4.0]))
    return _close(disc_error(_GAUSS, grid), 7.0 / 6.0 - math.log(2.5), 1e-9, "E_disc")


@_check("errors", "objective decomposition identity")
def _decomposition(rng, seed):
    curve = MmseCurve(_GAUSS)
    for _ in range(3):
        g = np.sort(rng.uniform(0.5, 20.0, size=4))
        if np.any(np.diff(g) <= 0):
            continue
        grid = SnrGrid(g)
        loss = LossProfile(
            gammas=g, losses=np.array([curve.mmse(x)[0] + rng.uniform(0, 0.5) for x in g])
        )
        lhs = combined_objective(loss, grid) - curve.integral(g[0], g[-1])
        rhs = disc_error(curve, grid) + apx_error(loss, curve, grid)
        if abs(lhs - rhs) > 1e-9:
            return False, f"identity off by {lhs - rhs:.3g}"
    return True, "combined - integral = E_disc + E_apx on random grids"


@_check("errors", "exact-loss profile has zero E_apx")
def _apx_zero(rng, seed):
    grid = SnrGrid(np.array([1.0, 3.0, 9.0]))
    curve = MmseCurve(_GAUSS)
    loss = LossProfile.from_curve(curve, grid.gammas)
    return _close(apx_error(loss, curve, grid), 0.0, 1e-12, "E_apx at exact loss")


@_check("errors", "eps to x0 conversion")
def _conversion(rng, seed):
    ok1, _ = _close(eps_to_x0(2.0, 4.0), 0.5, 1e-15, "eps->x0")
    ok2, msg = _close(eps_to_x0(2.0, 0.8 / 0.2), 0.5, 1e-15, "via alpha-bar 0.8")
    return ok1 and ok2, msg


@_check("errors", "final bounds arithmetic")
def _bounds(rng, seed):
    grid = grid_geometric(1.0, 0.01, 2)
    b = final_bounds(grid, H=1.0, C_fit=1.0, eps_bar=0.0)
    ok1, _ = _close(b["geo_disc_bound"], 81.0, 1e-9, "geometric term")
    ok2, msg = _close(b["disc_bound"], b["geo_disc_bound"], 1e-9, "ratio sum vs closed form")
    return ok1 and ok2, msg


@_check("errors", "pathwise KL MC vs area gap")
def _pathwise(rng, seed):
    grid = SnrGrid(np.geomspace(0.5, 8.0, 3))
    v, se = pathwise_kl_mc(_TWO_ATOMS, grid, n_paths=20_000, substeps=64, seed=seed)
    ref = disc_error(MmseCurve(_TWO_ATOMS, "quadrature"), grid)
    return _close(2 * v, ref, 4 * 2 * se + 1e-3, "2 * pathwise KL vs E_disc")


@_check("sampler", "reverse step moments")
def _step_moments(rng, seed):
    n = 100_000
    noise = rng.standard_normal(n)
    out = reverse_step(np.full(n, 2.0), 1.0, 0.5, np.zeros(n), noise)
    want_mean, want_std = 1.0, 0.5
    se_mean = want_std / math.sqrt(n)
    ok1 = abs(out.mean() - want_mean) <= 4 * se_mean
    ok2 = abs(out.std(ddof=1) - want_std) <= 4 * want_std / math.sqrt(2 * n)
    return ok1 and ok2, f"mean {out.mean():.4g} (want 1), std {out.std(ddof=1):.4g} (want 0.5)"


@_check("sampler", "point-mass contraction")
def _contraction(rng, seed):
    pt = FiniteDiscrete(points=np.array([[0.5, -0.25]]), probs=np.array([1.0]))
    grid = grid_geometric(1.0, 1e-4, 8)
    cfg = SamplerConfig(n_samples=2000, seed=int(rng.integers(2**32)))
    samples, _ = sample(pt, grid, cfg)
    dist = float(np.linalg.norm(samples - pt.points[0], axis=1).mean())
    return _leq(dist, 3 * math.sqrt(2 * 1e-4), "mean distance to atom")


@_check("sampler", "seed determinism")
def _determinism(rng, seed):
    toy = build_toy("circle8")
    grid = grid_geometric(1.0, 1e-3, 5)
    cfg = SamplerConfig(n_samples=500, seed=7)
    s1, _ = sample(toy, grid, cfg)
    s2, _ = sample(toy, grid, cfg)
    return bool(np.array_equal(s1, s2)), "same seed reproduces samples bit for bit"


@_check("sampler", "single-Gaussian terminal law")
def _gaussian_law(rng, seed):
    s0sq = 1.0
    grid = grid_geometric(1.0, 1e-2, 16)
    n = 50_000
    cfg = SamplerConfig(n_samples=n, seed=int(rng.integers(2**32)))
    samples, _ = sample(_GAUSS, grid, cfg)
    t = 1.0 / grid.gammas
    v = s0sq + t[0]
    for k in range(1, grid.K + 1):
        a = s0sq / (s0sq + t[k - 1])
        rho = t[k] / t[k - 1]
        v = (a + rho * (1 - a)) ** 2 * v + t[k] * (t[k - 1] - t[k]) / t[k - 1]
    got = float(samples.var(ddof=1))
    se = v * math.sqrt(2.0 / n)
    return _close(got, v, 3 * se, "terminal variance vs recursion")


@_check("sampler", "second order equals first on constant denoiser")
def _second_order_point_mass(rng, seed):
    pt = FiniteDiscrete(points=np.array([[1.0]]), probs=np.array([1.0]))
    grid = grid_geometric(1.0, 1e-3, 6)
    s1, _ = sample(pt, grid, SamplerConfig(n_samples=256, seed=3))
    s2, _ = sample(pt, grid, SamplerConfig(n_samples=256, seed=3, order="second"))
    return bool(np.array_equal(s1, s2)), "constant denoiser: orders coincide bitwise"


@_check("target", "posterior weights normalize")
def _weights_sum(target, rng, seed):
    X = rng.normal(size=(1, target.dim))
    weights = _responsibilities(_components(target), 0.5, X)[0]
    return _close(float(weights.sum()), 1.0, 1e-10, "posterior weight sum")


@_check("target", "mmse nonincreasing")
def _target_monotone(target, rng, seed):
    curve = MmseCurve(target, n_samples=20_000, seed=seed)
    knots = [curve.mmse(g) for g in (0.25, 1.0, 4.0, 16.0)]
    for (v1, s1), (v2, s2) in zip(knots, knots[1:]):
        if v1 < v2 - 3 * math.hypot(s1, s2) - 1e-12:
            return False, f"mmse increased: {v1:.4g} -> {v2:.4g}"
    return True, "mmse nonincreasing on probe knots"


@_check("target", "discretization error nonnegative")
def _disc_nonneg(target, rng, seed):
    if target.dim > 2:
        return True, "skipped (dim > 2)"
    grid = grid_geometric(1.0, 1e-2, 8)
    v = disc_error(MmseCurve(target), grid)
    return _leq(0.0, v, "0 <= E_disc", 1e-12)


@_check("target", "entropy ordering")
def _target_entropy(target, rng, seed):
    if not isinstance(target, FiniteDiscrete):
        return None
    return _leq(shannon_entropy(target), renyi_half_entropy(target), "H <= H_1/2", 1e-12)


SUITES = tuple(dict.fromkeys(suite for suite, _, _ in _CHECKS if suite != "target"))


def run_checks(suite: str, target, seed: int) -> list:
    """Run one suite, or every suite for ``suite == "all"``, then the checks
    for ``target`` unless it is None.

    Prints ``[PASS]``/``[FAIL]`` per check and a summary line, and returns
    one ``{"suite", "label", "ok", "message"}`` dict per check.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    if target is not None:
        names.append("target")

    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        extra = (target,) if name == "target" else ()
        for row_suite, label, fn in _CHECKS:
            if row_suite != name:
                continue
            try:
                outcome = fn(*extra, rng, seed)
                if outcome is None:
                    continue
                ok, msg = outcome
            except Exception as exc:  # a crash is a failure, not an abort
                ok, msg = False, f"raised {type(exc).__name__}: {exc}"
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({msg})")
            results.append({"suite": name, "label": label, "ok": bool(ok), "message": msg})

    passed = sum(r["ok"] for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return results
