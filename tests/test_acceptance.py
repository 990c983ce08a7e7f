"""End-to-end acceptance gate.

One test per criterion; each line of `pytest -v` output is one criterion.
Tolerances are stated inline next to the assertions they guard.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import (
    GAUSS_GRID_124_DISC,
    brute_first_order,
    brute_second_order,
    random_candidates,
    random_probs,
    ratio_sum,
)
from snrsched import (
    CandidateSet,
    FiniteDiscrete,
    GaussianMixture,
    LasConfig,
    LossProfile,
    MmseCurve,
    SamplerConfig,
    SnrGrid,
    apx_error,
    combined_objective,
    derivative_ratio_constant,
    disc_error,
    eps_to_x0,
    fit_subexponential,
    grid_edm,
    grid_geometric,
    grid_time_uniform,
    las_beam,
    las_exact,
    mmse_derivative,
    pathwise_kl_mc,
    renyi_half_entropy,
    sample,
    shannon_entropy,
)
from snrsched.cli import build_toy, toy_discrete

TWO_ATOM = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])


def single_gauss(sigma0=1.0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


def test_c01_exact_dp_matches_exhaustive_search():
    """200 random instances, n <= 12, K <= 4: index sequences and objectives
    equal the exhaustive-search optimum exactly; total runtime < 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 13))
        K = int(rng.integers(1, min(5, n)))
        gam, risks = random_candidates(rng, n)
        lam = float(rng.uniform(0.3, 2.5))
        sched = las_exact(CandidateSet(gammas=gam, risks=risks), LasConfig(K=K, lam=lam))
        best_idx, best_obj = brute_first_order(gam, risks, K, lam)
        assert tuple(sched.indices) == best_idx
        assert sched.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-15)
    assert time.perf_counter() - t0 < 5.0


def test_c02_beam_dp_matches_exhaustive_enumeration():
    """Default config: 50 random instances (n <= 10, K <= 4,
    alpha in {0.1, 1, 12}) match exhaustive second-order enumeration
    exactly; total runtime < 30 s."""
    rng = np.random.default_rng(202)
    alphas = (0.1, 1.0, 12.0)
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(5, 11))
        K = int(rng.integers(2, min(5, n)))
        gam, risks = random_candidates(rng, n)
        lam = float(rng.uniform(0.3, 2.5))
        alpha = alphas[trial % 3]
        cfg = LasConfig(K=K, lam=lam, alpha=alpha)
        sched = las_beam(CandidateSet(gammas=gam, risks=risks), cfg)
        best_idx, best_obj = brute_second_order(gam, risks, K, lam, alpha)
        assert tuple(sched.indices) == best_idx
        assert sched.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-15)
    assert time.perf_counter() - t0 < 30.0


def test_c03_closed_form_area_gap_and_pathwise_route():
    """Single Gaussian sigma0 = 1, grid [1, 2, 4]: disc_error equals the
    closed form 7/6 - ln(5/2) = 0.250376 to 1e-9, and twice the pathwise
    KL Monte Carlo (2e5 paths, 16 substeps) agrees within 3 sigma.
    Runtime < 60 s."""
    t0 = time.perf_counter()
    grid = SnrGrid([1.0, 2.0, 4.0])
    got = disc_error(single_gauss(), grid)
    assert got == pytest.approx(GAUSS_GRID_124_DISC, abs=1e-9)
    assert got == pytest.approx(0.250376, abs=5e-7)
    v, se = pathwise_kl_mc(single_gauss(), grid, n_paths=200_000, substeps=16, seed=33)
    assert abs(2.0 * v - got) <= 3.0 * 2.0 * se
    assert time.perf_counter() - t0 < 60.0


def test_c04_mmse_derivative_two_routes_agree():
    """10 (dist, gamma) cases over the two-atom and an 8-atom discrete
    target: the posterior-covariance route for -mmse' matches central
    finite differences within max(1e-3 relative, 3 sigma)."""
    eight = toy_discrete("circle8")
    cases = [(TWO_ATOM, g) for g in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    cases += [(eight, g) for g in (0.5, 2.0, 8.0, 32.0)]
    assert len(cases) == 10
    for dist, g in cases:
        curve = MmseCurve(dist, seed=5)
        dval, dse = mmse_derivative(dist, g, seed=5)
        h = 1e-3 * g
        lo, lo_se = curve.mmse(g - h)
        hi, hi_se = curve.mmse(g + h)
        fd = (hi - lo) / (2.0 * h)
        fd_se = math.hypot(lo_se, hi_se) / (2.0 * h)
        tol = max(1e-3 * abs(fd), 3.0 * math.hypot(dse, fd_se))
        assert abs(dval - fd) <= tol


def test_c05_geometric_grid_minimizes_squared_ratio_sum():
    """20 random endpoint pairs, K in {2, 3, 4}: the geometric grid beats
    1e4 random feasible grids and local refinement improves it by at most
    1e-9 on sum((dgamma_k / gamma_{k-1})^2)."""
    rng = np.random.default_rng(2024)
    for _ in range(20):
        lo = float(np.exp(rng.uniform(-1.5, 1.0)))
        hi = lo * float(np.exp(rng.uniform(1.0, 5.0)))
        for K in (2, 3, 4):
            geo_val = ratio_sum(np.geomspace(lo, hi, K + 1))
            interior = rng.uniform(lo, hi, size=(10_000, K - 1))
            interior.sort(axis=1)
            grids = np.column_stack(
                [np.full(10_000, lo), interior, np.full(10_000, hi)]
            )
            r = np.diff(grids, axis=1) / grids[:, :-1]
            assert geo_val <= float(np.min(np.sum(r * r, axis=1))) + 1e-12

            def refine_obj(u):
                return ratio_sum(np.r_[lo, np.exp(np.sort(u)), hi])

            res = minimize(
                refine_obj,
                np.log(np.geomspace(lo, hi, K + 1)[1:-1]),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
            )
            assert geo_val - res.fun <= 1e-9


def test_c06_area_gap_scales_like_one_over_k():
    """Two-atom target, geometric grids on gamma in [0.5, 8]: log E_disc
    vs log K over K in {4, 8, 16, 32, 64} has slope -1 +/- 0.15."""
    curve = MmseCurve(TWO_ATOM, policy="quadrature")
    ks = np.array([4, 8, 16, 32, 64], dtype=float)
    vals = [disc_error(curve, SnrGrid(np.geomspace(0.5, 8.0, int(k) + 1))) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
    assert abs(slope - (-1.0)) <= 0.15


def test_c07_entropy_inequalities_hold():
    """20 random finite discrete distributions: H <= H_half and
    H_half <= H + nu^2 / 2 with the fitted nu^2, tolerance 1e-10."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        probs = random_probs(rng, n)
        d = FiniteDiscrete(points=[[float(i)] for i in range(n)], probs=probs)
        H = shannon_entropy(d)
        H_half = renyi_half_entropy(d)
        prof = fit_subexponential(d, b=2.0)
        assert H <= H_half + 1e-10
        assert H_half <= H + prof.nu_sq / 2.0 + 1e-10


def test_c08_snr_weighted_derivative_ratio_bounded():
    """Two-atom target: gamma^2 |mmse'| / H^2 stays bounded over
    gamma in [0.25, 64]; the value at gamma = 64 is at most 1.2x the
    sweep maximum (no divergence at high SNR)."""
    knots = np.geomspace(0.25, 64.0, 33)
    H = shannon_entropy(TWO_ATOM)
    c_fit = derivative_ratio_constant(TWO_ATOM, knots, "quadrature")
    assert math.isfinite(c_fit) and c_fit > 0.0
    at_64 = 64.0**2 * abs(mmse_derivative(TWO_ATOM, 64.0, "quadrature")[0]) / H**2
    assert at_64 <= 1.2 * c_fit


def test_c09_toy_nll_ordering_las_tu_edm():
    """Toy protocol with the documented default weights (exact values are
    not reproducible): grid8 target, 20000 first-order samples, NFE 5 and
    7 -> NLL(LAS) < NLL(time-uniform) < NLL(EDM rho=7), every gap above
    3 combined standard errors. Runtime < 10 min."""
    t0 = time.perf_counter()
    toy = build_toy("grid8")
    T, delta = 1.0, 1e-4
    knots = np.geomspace(1.0 / T, 1.0 / delta, 64)
    curve = MmseCurve(toy)
    risks = np.array([curve.mmse(g)[0] for g in knots])
    cands = CandidateSet(gammas=knots, risks=risks)
    for K in (5, 7):
        las_grid = las_exact(cands, LasConfig(K=K, lam=0.7)).grid()
        runs = {
            "las": (las_grid, 100),
            "tu": (grid_time_uniform(T, delta, K), 200),
            "edm": (grid_edm(T, delta, K, rho=7.0), 300),
        }
        nll = {}
        for name, (grid, seed) in runs.items():
            _, rep = sample(toy, grid, SamplerConfig(n_samples=20_000, seed=seed))
            nll[name] = (rep.nll_mean, rep.nll_stderr)
        for a, b in (("las", "tu"), ("tu", "edm")):
            gap = nll[b][0] - nll[a][0]
            bar = 3.0 * math.hypot(nll[a][1], nll[b][1])
            assert gap > bar, f"K={K}: {a} vs {b}: gap {gap:.4f} <= 3se {bar:.4f}"
    assert time.perf_counter() - t0 < 600.0


def test_c10_objective_decomposition_identity():
    """10 random (grid, loss) pairs on single-Gaussian targets:
    combined_objective - integral(mmse) = disc_error + apx_error,
    tolerance 1e-9."""
    rng = np.random.default_rng(1010)
    for _ in range(10):
        sigma0 = float(rng.uniform(0.3, 2.0))
        d = int(rng.integers(1, 4))
        curve = MmseCurve(single_gauss(sigma0, d))
        m = int(rng.integers(3, 8))
        knots = np.sort(np.exp(rng.uniform(-1.5, 5.0, size=m)))
        while np.any(np.diff(knots) <= 1e-9):
            knots = np.sort(np.exp(rng.uniform(-1.5, 5.0, size=m)))
        grid = SnrGrid(knots)
        excess = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 0.5, size=m))
        losses = np.array([curve.mmse(g)[0] for g in knots]) + excess
        loss = LossProfile(gammas=knots, losses=losses, kinds=("x0",) * m)
        lhs = combined_objective(loss, grid) - curve.integral(knots[0], knots[-1])
        rhs = disc_error(curve, grid) + apx_error(loss, curve, grid)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_c11_eps_x0_conversion_identity():
    """1000 random (gamma, loss) pairs: converting an eps-parameterized
    loss to x0 parameterization divides by gamma, exact to 1e-12."""
    rng = np.random.default_rng(1111)
    gammas = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=1000))
    x0_losses = np.exp(rng.uniform(np.log(1e-8), np.log(1e3), size=1000))
    eps_losses = gammas * x0_losses
    back = eps_to_x0(eps_losses, gammas)
    np.testing.assert_allclose(back, x0_losses, rtol=1e-12)
    for g, e in zip(gammas[:50], eps_losses[:50]):
        assert eps_to_x0(float(e), float(g)) == pytest.approx(
            float(e) / float(g), rel=1e-12
        )
