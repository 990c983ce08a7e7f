"""Exact Bayes machinery for the additive Gaussian channel."""

import ast
import math
import tracemalloc
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    central_diff,
    entropy_oracle,
    exact_shared_variance_posterior,
    gauss_mmse_integral,
    isotropic_mixture_log_density,
    mixture_posterior_moments,
    per_call_cov_stats,
    per_call_logits,
    per_call_posterior_mean,
    per_call_responsibilities,
    two_atom_fourth_moment,
    two_atom_mmse,
)
from snrsched import FiniteDiscrete, GaussianMixture, grid_edm, grid_geometric, renyi_half_entropy
from snrsched.channel import (
    MmseCurve,
    _KernelTable,
    _components,
    _info,
    _responsibilities,
    _standard_normal_nodes,
    mmse,
    mmse_derivative,
    posterior_cov_stats,
    posterior_fourth_moment,
    posterior_mean,
    derivative_ratio_constant,
)
from snrsched import _gauss_hermite, targets
from snrsched.functionals import disc_error
from snrsched.targets import _component_logits, build_toy, shannon_entropy, toy_discrete

TWO = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])
POINT = FiniteDiscrete(points=[[2.0, -1.0]], probs=[1.0])


def single_gauss(sigma0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


# ---------------------------------------------------------------------------
# posteriors


def _weights(dist, t, x):
    return _responsibilities(_KernelTable(dist, t), np.atleast_2d(x).T)[:, 0]


@pytest.mark.parametrize("t", [0.0, -0.01, math.nan, math.inf])
@pytest.mark.parametrize("dist", [TWO, single_gauss(0.25)], ids=["discrete", "gmm"])
def test_kernel_rejects_bad_noise_scale(dist, t):
    X = np.array([[0.3]])
    with pytest.raises(ValueError):
        posterior_mean(dist, t, X)
    with pytest.raises(ValueError):
        posterior_cov_stats(dist, t, X)


_UNEQUAL = GaussianMixture([0.3, 0.7], [[0.0, 0.0], [3.0, 0.0]], [1.0, 2.0])
_NOT_FINITE_CASES = [
    pytest.param(dist, x, id=f"{name}-{x[0]:g}")
    for name, dist, xs in [
        ("circle8", build_toy("circle8"), [math.nan, math.inf, -math.inf, 1.7e308]),
        ("circle8_discrete", toy_discrete("circle8"), [math.nan, math.inf, -math.inf, 1.7e308]),
        # unequal sigmas: |x~|^2 overflows, so every logit is -inf
        ("unequal", _UNEQUAL, [math.nan, math.inf, 1e155, 1e200, 1.7e308]),
    ]
    for x in [(v, 0.0) for v in xs]
]


@pytest.mark.parametrize("dist, x", _NOT_FINITE_CASES)
@pytest.mark.parametrize("kernel", [posterior_mean, posterior_cov_stats], ids=["mean", "cov"])
def test_kernel_rejects_a_point_whose_posterior_is_not_finite(kernel, dist, x):
    # these read nan, some with a RuntimeWarning and some with none; next to
    # a point near the centers, the error counts the one bad point
    X = np.array([x, [0.5, 0.5]])
    with pytest.raises(ValueError, match="not finite at 1 of 2 points"):
        kernel(dist, 0.5, X)


@pytest.mark.parametrize("x", [1e160, 1e300])
def test_kernel_keeps_a_far_point_whose_logits_are_finite(x):
    # one variance for all, so c~.x~ stays finite out to about 1e308; the
    # posterior is the nearest component's, at (4, 0) on both circle8s
    X = np.array([[x, 0.0], [0.5, 0.5]])
    for dist, a in [(build_toy("circle8"), 0.0625 / 1.0625), (toy_discrete("circle8"), 0.0)]:
        means = posterior_mean(dist, 1.0, X)
        assert means[0, 0] == pytest.approx(a * x + 4.0 * (1.0 - a), rel=1e-12) and means[0, 1] == 0.0
        assert np.all(np.isfinite(posterior_cov_stats(dist, 1.0, X)))


def test_two_atom_posterior_symmetry():
    x = np.array([0.0])
    np.testing.assert_allclose(_weights(TWO, 1.0, x), [0.5, 0.5], atol=1e-15)
    assert posterior_mean(TWO, 1.0, x)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_two_atom_posterior_tanh():
    # m_t(x) = tanh(x/t) for unit atoms; tanh(2) at t=0.5, x=1
    m = posterior_mean(TWO, 0.5, np.array([1.0]))[0, 0]
    assert m == pytest.approx(math.tanh(2.0), abs=1e-12)
    assert m == pytest.approx(0.964028, abs=1e-6)


def test_single_gaussian_conjugate_mean():
    g = single_gauss(0.7, d=2)
    x = np.array([1.3, -0.4])
    for t in (0.1, 1.0, 5.0):
        np.testing.assert_allclose(
            posterior_mean(g, t, x)[0], 0.7**2 / (0.7**2 + t) * x, atol=1e-12
        )


def test_posterior_weights_normalized_no_overflow():
    # log-domain weights survive extreme SNR where raw exponentials overflow
    pts = np.array([[-8.0], [0.0], [8.0]])
    d = FiniteDiscrete(points=pts, probs=[0.2, 0.5, 0.3])
    for t in (1e-8, 1.0, 1e6):
        w = _weights(d, t, np.array([7.5]))
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(np.isfinite(w))


def _softmax_probe_points(centers):
    """Atoms, pair midpoints and third points, and far points out to |x| = 1e150."""
    n, d = centers.shape
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    between = [(centers[i] + centers[j]) / 2 for i, j in pairs]
    between += [(2 * centers[i] + centers[j]) / 3 for i, j in pairs]
    u = np.linspace(1.0, 0.37, d)
    u /= np.linalg.norm(u)
    far = [s * u for s in (1e3, -1e3, 1e50, 1e150, -1e150)]
    return np.concatenate([centers, between, far])


@pytest.mark.parametrize("dist", [
    toy_discrete("circle8"), toy_discrete("grid8"), build_toy("circle8"), build_toy("grid8"), TWO,
], ids=["circle8_discrete", "grid8_discrete", "circle8", "grid8", "two_atom"])
def test_shared_variance_softmax_matches_exact_logits(dist):
    # every component has one variance, so _responsibilities skips |x~|^2.
    # Times s2, its logit differences round at about err = 16 eps |c~| |x~|.
    # Where the nearest center leads the next by more than 2 err plus
    # 2 s2 (40 + the log-weight spread) in squared distance, the weights are
    # one-hot to 1e-17 and must match exactly computed ones within 1e-12;
    # elsewhere within 1e-12 plus err / (2 s2). The general softmax, which
    # rounds at about 16 eps |x~|^2 times s2, is compared where it is finite
    comps = _components(dist)
    weights, centers, variances = comps
    assert np.all(variances == variances[0])
    mu = weights @ centers
    c_max = float(np.linalg.norm(centers - mu, axis=1).max()) + float(np.linalg.norm(mu))
    spread = math.log(weights.max() / weights.min())
    X = _softmax_probe_points(centers)
    eps = math.ulp(1.0)  # a Python float, whose overflow gives inf without a warning
    tight = 0
    for t in (5e-324, 1e-300, 1e-8, 1e-3, 1.0, 1e8):
        s2 = float(variances[0] + t)
        r = _responsibilities(_KernelTable(dist, t), np.asfortranarray(X).T)
        assert np.all(np.isfinite(r))
        np.testing.assert_allclose(r.sum(axis=0), 1.0, rtol=0, atol=4 * eps)
        with np.errstate(all="ignore"):
            g = _component_logits(_KernelTable(dist, t), X.T)
            g -= g.max(axis=0)
            np.exp(g, out=g)
            g /= g.sum(axis=0)
        for m, x in enumerate(X):
            x_norm = float(np.linalg.norm(x - mu))
            err = 16 * eps * c_max * (x_norm + c_max)
            want, sq_gap = exact_shared_variance_posterior(weights, centers, s2, x)
            one_hot = sq_gap > 2 * err + 2 * s2 * (40 + spread)
            tol = 1e-12 if one_hot else 1e-12 + err / (2 * s2)
            tight += tol < 1e-11
            assert np.all(np.abs(r[:, m] - want) <= tol), (t, x)
            if np.all(np.isfinite(g[:, m])):
                err_g = 16 * eps * (x_norm**2 + c_max**2)
                assert np.all(np.abs(r[:, m] - g[:, m]) <= 1e-12 + (err + err_g) / (2 * s2)), (t, x)
    assert tight >= 2 * X.shape[0]  # the bound is within 1e-11 at two t's worth of points


@pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-8])
def test_shared_variance_softmax_leaves_exact_ties_to_the_weights(t):
    # x = 0 is equidistant from -1 and 1, and the centered logits tie in float
    # too (mean 0.5), so the weights decide even where 1/s2 overflows
    dist = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.25, 0.75])
    assert list(_weights(dist, t, np.array([0.0]))) == [0.25, 0.75]


def test_posterior_summary_inequalities():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(5, 2)) * 2.0
    probs = np.full(5, 0.2)
    d = FiniteDiscrete(points=pts, probs=probs)
    for _ in range(6):
        x = rng.normal(size=2) * 2.0
        (tr,), (fr,) = posterior_cov_stats(d, 0.5, x)
        assert tr >= 0.0
        assert fr <= tr**2 + 1e-12
        # trace^2 is in turn dominated by the posterior fourth moment about
        # the posterior mean, checked by enumeration
        dev = pts - posterior_mean(d, 0.5, x)
        fourth = float(np.sum(_weights(d, 0.5, x) * np.sum(dev * dev, axis=1) ** 2))
        assert tr**2 <= fourth + 1e-12


def test_posterior_mean_batched_matches_pointwise():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(32, 1))
    batch = posterior_mean(TWO, 0.5, X)
    for i in range(0, 32, 7):
        single = posterior_mean(TWO, 0.5, X[i])[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dist", [
    build_toy("circle8"), GaussianMixture([0.5, 0.5], [[-1.0, 0.5], [1.5, -0.5]], [1.0, 2.0]),
], ids=["circle8", "two_sigmas"])
def test_posterior_mean_rejects_its_input_as_out(dist, order):
    # an in-place denoise that rejected a point in a later block would leave
    # the earlier blocks of X already denoised, so out=X is refused up front
    X = np.asarray(3.0 * np.random.default_rng(4).normal(size=(300, 2)), order=order)
    before = X.copy()
    for out in (X, X.view()):
        with pytest.raises(ValueError, match="overlaps"):
            posterior_mean(dist, 0.5, X, out=out)
    assert np.array_equal(X, before)


def test_posterior_mean_rejects_an_out_that_partly_overlaps_x():
    dist = build_toy("circle8")
    buf = np.random.default_rng(4).normal(size=(41, 2))
    X = buf[1:]
    before = X.copy()
    for out in (buf[:-1], X[::-1], X[:, ::-1]):
        assert np.shares_memory(out, X)
        with pytest.raises(ValueError, match="overlaps"):
            posterior_mean(dist, 0.5, X, out=out)
    assert np.array_equal(X, before)


def test_posterior_dimension_free_under_isometric_embedding():
    # a 6-atom d=2 target mapped into d=256 by an orthogonal map: the noise on
    # the 254 extra axes is independent of Z, so the posterior does not change
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 2)) * 2.0
    probs = rng.dirichlet(np.ones(6))
    Q, _ = np.linalg.qr(rng.normal(size=(256, 256)))
    low = FiniteDiscrete(points=pts, probs=probs)
    high = FiniteDiscrete(points=pts @ Q[:, :2].T, probs=probs)
    for t in np.geomspace(1e-6, 1e6, 13):
        Z = low.sample(8, rng)
        X = Z + math.sqrt(t) * rng.standard_normal(Z.shape)
        Y = X @ Q[:, :2].T + math.sqrt(t) * rng.standard_normal((8, 254)) @ Q[:, 2:].T
        np.testing.assert_allclose(
            posterior_mean(high, t, Y), posterior_mean(low, t, X) @ Q[:, :2].T,
            rtol=1e-9, atol=1e-9 * float(np.abs(pts).max()),
        )
        np.testing.assert_allclose(
            posterior_cov_stats(high, t, Y)[0], posterior_cov_stats(low, t, X)[0], rtol=1e-9
        )


# ---------------------------------------------------------------------------
# mmse and its derivative


def test_mmse_single_gaussian_closed_form():
    v, se = mmse(single_gauss(0.25, d=2), 16.0)
    assert se == 0.0
    assert v == pytest.approx(2 * 0.0625 / (1 + 0.0625 * 16.0), abs=1e-15)
    assert v == pytest.approx(0.0625, abs=1e-15)


def test_mmse_perfect_observation_limit():
    v, _ = mmse(TWO, 1e12, "quadrature")
    assert v <= 1e-6 * TWO.cov_trace()


def test_mmse_two_atom_quadrature_vs_mc():
    vq, _ = mmse(TWO, 1.0, "quadrature")
    vm, se = mmse(TWO, 1.0, "monte_carlo", n_samples=1_000_000, seed=42)
    assert se > 0.0
    assert abs(vq - vm) <= 3.0 * se


def test_mmse_two_atom_against_independent_quadrature():
    for g in (0.25, 0.5, 2.0, 8.0):
        v, _ = mmse(TWO, g, "quadrature")
        assert v == pytest.approx(two_atom_mmse(g), rel=2e-5)


@lru_cache(maxsize=None)
def _full_nodes(d):
    """The unpruned tensor Gauss-Hermite rule the cached rule is cut from."""
    u, w1 = np.polynomial.hermite_e.hermegauss(200 if d == 1 else 96)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    if d == 1:
        return u[:, None], w1
    ua, ub = np.meshgrid(u, u, indexing="ij")
    return np.stack([ua.ravel(), ub.ravel()], axis=1), np.outer(w1, w1).ravel()


@pytest.mark.parametrize("deg", [96, 200])
def test_gauss_hermite_rule_is_numpys(deg):
    # the constant table keeps numpy.polynomial out of the process, bit for bit
    u, w = _gauss_hermite.rule(deg)
    want_u, want_w = np.polynomial.hermite_e.hermegauss(deg)
    assert np.array_equal(u, want_u) and np.array_equal(w, want_w)


def test_quadrature_runs_no_eigensolve(monkeypatch):
    # the rule comes from constants: no LAPACK call builds it
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    _standard_normal_nodes.cache_clear()
    for dist in (TWO, build_toy("circle8")):  # the 1-d and the 2-d rule
        v, _ = mmse(dist, 2.0, "quadrature")
        assert math.isfinite(v)


def test_quadrature_nodes_built_once_and_read_only():
    # the cache hands the same arrays to every caller, so none may write them
    for d, size in ((1, 84), (2, 2668)):
        offsets, qw = _standard_normal_nodes(d)
        assert _standard_normal_nodes(d)[0] is offsets
        assert offsets.shape == (size, d) and qw.shape == (size,)
        assert qw.sum() == pytest.approx(1.0, rel=1e-12)
        # the kept nodes are the heaviest of the full rule, and the rest
        # carry less than 1e-20 of the weight
        full = np.sort(_full_nodes(d)[1])[::-1]
        assert np.array_equal(np.sort(qw)[::-1], full[:size])
        assert full[size:].sum() < 1e-20
        for arr in (offsets, qw):
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize(
    "dist",
    [TWO, toy_discrete("circle8"), toy_discrete("grid8"), build_toy("circle8"), build_toy("grid8")],
    ids=["two_atom", "circle8_discrete", "grid8_discrete", "circle8", "grid8"],
)
def test_pruned_quadrature_matches_full_rule(dist, monkeypatch):
    import snrsched.channel as channel

    def moments():
        return [
            (mmse(dist, g, "quadrature")[0], _info(dist, g, "quadrature", 1, 0)[0],
             -mmse_derivative(dist, g, "quadrature")[0])
            for g in np.geomspace(1e-3, 1e6, 19)
        ]

    pruned = moments()
    monkeypatch.setattr(channel, "_standard_normal_nodes", _full_nodes)
    full = np.array(moments())
    assert np.all(np.abs(np.array(pruned) - full) <= 1e-14 * (1.0 + np.abs(full)))


def test_mmse_kernel_rows_are_the_pruned_grid(monkeypatch):
    # a work count, not a timing: an un-pruned grid would pass 8 x 9,216 rows
    import snrsched.channel as channel

    rows = []
    kernel = channel._pair_spread

    def counting(table, XT):
        rows.append(XT.shape[1])  # a block's points are the columns of XT
        return kernel(table, XT)

    monkeypatch.setattr(channel, "_pair_spread", counting)
    MmseCurve(build_toy("circle8")).mmse(2.0)
    assert rows == [2668] * 8


@pytest.mark.parametrize("dist", [build_toy("grid8"), toy_discrete("circle8")], ids=["grid8", "circle8_discrete"])
def test_monte_carlo_chunks_are_the_fresh_array_expression(monkeypatch, dist):
    # each chunk's X is built in its noise array, bit for bit Z + sqrt(t) * noise
    import snrsched.channel as channel

    monkeypatch.setattr(channel, "_CHUNK", 100)
    seen = []
    channel._mc_expect(dist, 0.7, lambda X, i: seen.append(X.copy()) or (X[:, 0],), 250, 3)
    rng = np.random.default_rng(3)
    assert [X.shape for X in seen] == [(100, 2), (100, 2), (50, 2)]
    for X in seen:
        Z = dist.sample(X.shape[0], rng)
        assert np.array_equal(X, Z + math.sqrt(0.7) * rng.standard_normal(Z.shape))


def test_mmse_monte_carlo_rejects_empty():
    with pytest.raises(ValueError):
        mmse(TWO, 1.0, "monte_carlo", n_samples=0)


def test_mmse_derivative_single_gaussian():
    v, se = mmse_derivative(single_gauss(1.0, d=2), 1.0)
    assert (v, se) == (pytest.approx(-0.5, abs=1e-14), 0.0)


def test_mmse_derivative_point_mass_zero():
    for g in (0.5, 3.0, 40.0):
        v, _ = mmse_derivative(POINT, g)
        assert v == 0.0


def test_mmse_derivative_matches_finite_difference():
    d_pkg, _ = mmse_derivative(TWO, 2.0, "quadrature")
    fd = central_diff(lambda g: mmse(TWO, g, "quadrature")[0], 2.0)
    assert d_pkg == pytest.approx(fd, abs=1e-4)
    assert d_pkg < 0.0
    # and against the fully independent integration route
    assert d_pkg == pytest.approx(central_diff(two_atom_mmse, 2.0), rel=1e-6)
    for gamma in (0.5, 8.0):
        fd = central_diff(lambda g: mmse(TWO, g, "quadrature")[0], gamma)
        assert mmse_derivative(TWO, gamma, "quadrature")[0] == pytest.approx(fd, rel=1e-3)


def test_mmse_curve_monotone_and_bounded():
    curve = MmseCurve(TWO, policy="quadrature")
    gammas = np.geomspace(0.25, 64.0, 9)
    vals = [curve.mmse(g)[0] for g in gammas]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= TWO.cov_trace() + 1e-12 for v in vals)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "bogus"},
        {"policy": "closed_form"},
        {"policy": "monte_carlo", "n_samples": 0},
        {"policy": "quadrature", "n_samples": 0},
        {"policy": "auto", "n_samples": -5},
    ],
    ids=["unknown-policy", "closed-form-on-atoms", "mc-zero", "quad-zero", "auto-negative"],
)
def test_mmse_curve_rejects_bad_settings_at_construction(kwargs):
    # an unusable curve fails where it is built, not at its first evaluation
    with pytest.raises(ValueError):
        MmseCurve(TWO, **kwargs)


def test_mmse_curve_integral_single_gaussian():
    curve = MmseCurve(single_gauss(1.0))
    want = math.log((1 + 4.0) / (1 + 1.0))
    assert curve.integral(1.0, 4.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(0.5, 8.0), (1e-3, 1e4)])
def test_mmse_curve_integral_two_atom_vs_simpson_free_route(lo, hi):
    from scipy.integrate import quad

    curve = MmseCurve(TWO, policy="quadrature")
    got = curve.integral(lo, hi)
    want, _ = quad(
        lambda u: two_atom_mmse(math.exp(u)) * math.exp(u),
        math.log(lo),
        math.log(hi),
        limit=400,
        epsabs=0.0,
        epsrel=1e-12,
    )
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("dist, gamma_hi", [
    pytest.param(TWO, 1e8, id="two_atom"),
    pytest.param(toy_discrete("circle8"), 1e8, id="circle8"),
    *(pytest.param(d, g, id=f"{name}-{g:g}")
      for name, d in (("two_atom", TWO), ("circle8", toy_discrete("circle8")))
      for g in (1e20, 1e300)),
])
def test_mmse_integral_over_all_snr_is_twice_entropy(dist, gamma_hi):
    # I(0) = 0 and I(inf) = H for a discrete target; the cut at gamma = 1e-8
    # leaves out about gamma_lo * tr Cov of the integral
    got = MmseCurve(dist).integral(1e-8, gamma_hi)
    assert abs(got - 2.0 * entropy_oracle(dist.probs)) <= 1e-6


@pytest.mark.parametrize("name", ["circle8", "grid8"])
def test_discrete_integral_to_1e20_is_twice_the_entropy_gap(name):
    # a form that subtracts two terms of size log(1/t), such as
    # -E log p_t - (d/2) log(2 pi e t), loses I entirely here
    dist = toy_discrete(name)
    H = shannon_entropy(dist)
    want = 2.0 * (H - _info(dist, 1.0, "quadrature", 1, 0)[0])
    assert abs(MmseCurve(dist).integral(1.0, 1e20) - want) <= 1e-12
    for g in (1e8, 1e12, 1e20, 1e34, 1e300):
        assert _info(dist, g, "quadrature", 1, 0) == (H, 0.0)


@pytest.mark.parametrize("delta", [1e-20, 1e-300])
@pytest.mark.parametrize("name", ["circle8", "grid8"])
def test_disc_error_nonnegative_up_to_extreme_snr(name, delta):
    # mmse falls in gamma, so the left Riemann sum bounds its integral from above
    dist = toy_discrete(name)
    for K in (4, 16, 64):
        e = disc_error(MmseCurve(dist), grid_geometric(1.0, delta, K))
        assert 0.0 <= e < math.inf


@pytest.mark.parametrize("gamma", [0.3, 3.0, 30.0])
def test_info_monte_carlo_single_gaussian_is_the_closed_form(gamma):
    # H(w) and H(C | X) vanish for one component, so no draw adds noise
    dist = single_gauss(1.0, d=3)
    assert _info(dist, gamma, "monte_carlo", 1000, 0) == (1.5 * math.log1p(gamma), 0.0)
    assert _info(dist, gamma, "closed_form", 1, 0) == (1.5 * math.log1p(gamma), 0.0)


def test_info_monte_carlo_survives_logits_that_overflow():
    # at gamma = 1e300 the far atoms' logits overflow to -inf; their weight is
    # 0, so each posterior entropy is 0 and I is H, not nan
    dist = FiniteDiscrete(points=[[0, 0, 0], [1e5, 0, 0], [0, 2e5, 0]], probs=[0.5, 0.3, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the logit overflow itself
        assert _info(dist, 1e300, "monte_carlo", 1000, 0) == (shannon_entropy(dist), 0.0)


def test_info_monte_carlo_matches_quadrature_on_a_mixture():
    for dist in (build_toy("grid8"), toy_discrete("circle8")):
        for g in (0.3, 3.0, 30.0):
            vq, _ = _info(dist, g, "quadrature", 1, 0)
            vm, se = _info(dist, g, "monte_carlo", 200_000, 1)
            assert abs(vm - vq) <= 4.0 * se + 1e-12


def _channel_tree():
    import snrsched.channel as channel

    with open(channel.__file__) as fh:
        return ast.parse(fh.read())


def test_every_oracle_takes_the_one_expect_route():
    # "closed_form" is a rule of _expect, not a branch of each oracle
    funcs = {f.name: f for f in _channel_tree().body if isinstance(f, ast.FunctionDef)}
    comparing = {
        name
        for name, fn in funcs.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value == "closed_form" for c in ast.walk(node))
    }
    assert comparing == {"_resolve_policy", "_expect"}
    for name in ("mmse", "_cov_expect", "_info"):
        calls = [n.func.id for n in ast.walk(funcs[name])
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        assert calls.count("_expect") == 1, name
    # _info builds no p_t density: it works from log-responsibilities
    called = {getattr(n.func, "attr", getattr(n.func, "id", None))
              for n in ast.walk(funcs["_info"]) if isinstance(n, ast.Call)}
    assert not called & {"log_prob", "GaussianMixture"}


@pytest.mark.parametrize("seed", range(5))
def test_mmse_curve_integral_monte_carlo_single_gaussian(seed):
    curve = MmseCurve(single_gauss(1.0, d=3), policy="monte_carlo", seed=seed)
    want = gauss_mmse_integral(1.0, 3, 1.0, 100.0)
    assert curve.integral(1.0, 100.0) == pytest.approx(want, rel=3e-3)


# ---------------------------------------------------------------------------
# posterior-redraw fourth moment


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_fourth_moment_rejects_bad_noise_scale(t):
    with pytest.raises(ValueError, match="noise scale t"):
        posterior_fourth_moment(TWO, t, 10, seed=0)


def test_fourth_moment_point_mass_zero():
    v, se = posterior_fourth_moment(POINT, 0.25, 2000, seed=1)
    assert v == 0.0 and se == 0.0


def test_fourth_moment_two_atom_matches_quadrature():
    t = 0.25
    v, se = posterior_fourth_moment(TWO, t, 400_000, seed=7)
    want = two_atom_fourth_moment(1.0 / t)
    assert se > 0.0
    assert abs(v - want) <= 3.0 * se


def test_fourth_moment_sweep_shape():
    """E||Z'-Z||^4 stays within a fitted multiple of t^2 H_{1/2}^2."""
    h2 = renyi_half_entropy(TWO) ** 2
    ratios = []
    for t in (0.1, 0.2, 0.4, 0.8):
        v, se = posterior_fourth_moment(TWO, t, 200_000, seed=3)
        want = two_atom_fourth_moment(1.0 / t)
        assert abs(v - want) <= 3.0 * se
        ratios.append(v / (t**2 * h2))
    c_fit = max(ratios)
    # exact ratios are 4.0, 16.0, 17.6, 9.8: a single constant covers the
    # sweep, and the small-t end is already well into its fast decay
    assert math.isfinite(c_fit) and c_fit <= 25.0
    assert ratios[0] < 0.5 * c_fit


def test_fourth_moment_memory_does_not_grow_with_samples_times_atoms():
    # one (20,000, 512) array of posterior weights alone is 78 MiB; the (n, n)
    # pair table is 2 MiB, and the rows run in blocks of (n, rows) arrays
    rng = np.random.default_rng(5)
    dist = FiniteDiscrete(points=rng.normal(size=(512, 4)), probs=np.full(512, 1.0 / 512))
    tracemalloc.start()
    try:
        v, se = posterior_fourth_moment(dist, 0.5, 20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(v) and se > 0.0
    assert peak < 16 * 2**20


def test_covariance_chain_dominated_by_fourth_moment():
    # E tr(Cov^2) <= E ||Z' - Z||^4 at matched t
    for t in (0.2, 0.5):
        d_val, _ = mmse_derivative(TWO, 1.0 / t, "quadrature")
        v4, se = posterior_fourth_moment(TWO, t, 200_000, seed=9)
        assert -d_val <= v4 + 3.0 * se


# ---------------------------------------------------------------------------
# entropy envelope of the mmse derivative


def test_derivative_ratio_two_atom_knots():
    knots = [0.5, 1.0, 2.0, 4.0, 8.0]
    c = derivative_ratio_constant(TWO, knots, "quadrature")
    assert math.isfinite(c) and c > 0.0
    h2 = math.log(2.0) ** 2
    ratios = [g**2 * abs(mmse_derivative(TWO, g, "quadrature")[0]) / h2 for g in knots]
    assert c == pytest.approx(max(ratios), rel=1e-12)
    # past the hump the envelope decays: the last knot sits below the peak
    assert ratios[-1] < c


def test_derivative_ratio_circle_of_atoms_mc():
    ang = 2.0 * math.pi * np.arange(8) / 8
    pts = 4.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = FiniteDiscrete(points=pts, probs=np.full(8, 0.125))
    c = derivative_ratio_constant(d, [0.25, 1.0, 4.0, 16.0], "monte_carlo", n_samples=100_000)
    assert math.isfinite(c) and c > 0.0


def test_derivative_ratio_point_mass_rejected():
    with pytest.raises(ValueError):
        derivative_ratio_constant(POINT, [1.0, 2.0])


# ---------------------------------------------------------------------------
# batched covariance stats


def test_posterior_cov_stats_shapes_and_identity():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(64, 1))
    tr, fr = posterior_cov_stats(TWO, 0.5, X)
    assert tr.shape == fr.shape == (64,)
    assert np.all(tr >= 0.0)
    # d=1: Frobenius^2 equals trace^2 exactly
    np.testing.assert_allclose(fr, tr**2, rtol=1e-12)


# ---------------------------------------------------------------------------
# one kernel for both target families, against the per-component oracle


def _oracle_cases():
    """(id, target, weights, centers, variances): atoms and Gaussians, d = 1, 2.

    The "far" cases put atoms and unequal-sigma components at 1e3 + N(0, I).
    """
    rng = np.random.default_rng(11)
    cases = []
    for d in (1, 2):
        probs = rng.dirichlet(np.ones(4))
        centers = rng.normal(size=(4, d))
        sigmas = rng.uniform(0.2, 1.0, size=4)
        atoms = FiniteDiscrete(points=centers, probs=probs)
        gmm = GaussianMixture(weights=probs, means=centers, sigmas=sigmas)
        cases.append((f"discrete-d{d}", atoms, probs, centers, np.zeros(4)))
        cases.append((f"gmm-d{d}", gmm, probs, centers, sigmas**2))
    for d in (1, 2):
        probs = rng.dirichlet(np.ones(5))
        centers = 1e3 + rng.normal(size=(5, d))
        sigmas = rng.uniform(0.2, 1.0, size=5)
        atoms = FiniteDiscrete(points=centers, probs=probs)
        gmm = GaussianMixture(weights=probs, means=centers, sigmas=sigmas)
        cases.append((f"far-discrete-d{d}", atoms, probs, centers, np.zeros(5)))
        cases.append((f"far-gmm-d{d}", gmm, probs, centers, sigmas**2))
    return cases


def _tiny_trace_case():
    # rows drawn near the atom at (1, 0) see the atom at (-1, 0) with
    # posterior weight exp(-2000) = 0, and the nearby third atom, of prior
    # weight 1e-287, with weight ~1e-287: tr Cov is ~1e-290 there. The center
    # mean sits near the origin, so a variance form E|Z|^2 - |E Z|^2 would
    # subtract two numbers near 1 and return 0 or rounding noise
    probs = np.array([0.5, 0.5, 1e-287])
    centers = np.array([[-1.0, 0.0], [1.0, 0.0], [1.01, 0.02]])
    atoms = FiniteDiscrete(points=centers, probs=probs)
    return ("tiny-trace", atoms, probs, centers, np.zeros(3))


@pytest.mark.parametrize(
    "case, t",
    [
        pytest.param(case, t, id=f"{case[0]}-{t}")
        for t in (1e-6, 1e-2, 1.0, 1e2, 1e6)
        for case in _oracle_cases()
    ]
    + [pytest.param(_tiny_trace_case(), 1e-3, id="tiny-trace-0.001")],
)
def test_posterior_matches_per_component_oracle(case, t):
    _, dist, weights, centers, variances = case
    rng = np.random.default_rng(7)
    X = dist.sample(6, rng) + math.sqrt(t) * rng.standard_normal((6, dist.dim))
    tr, fr = posterior_cov_stats(dist, t, X)
    means = posterior_mean(dist, t, X)
    resp = _responsibilities(_KernelTable(dist, t), X.T).T
    assert np.all(tr >= 0.0)
    for i, x in enumerate(X):
        probs, mean, o_tr, o_fr = mixture_posterior_moments(weights, centers, variances, t, x)
        np.testing.assert_allclose(resp[i], probs, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(means[i], mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(tr[i], o_tr, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(fr[i], o_fr, rtol=1e-10, atol=1e-14)
    if case[0] == "tiny-trace":
        assert 1e-300 < tr.max() < 1e-280


@st.composite
def _posterior_cases(draw):
    """(target, weights, centers, variances, t, X) for the oracle property.

    One to five components at distinct integer points of [-2, 2]^d, d = 1 to
    3, moved to 1e3 or not; atoms, one shared sigma or one sigma each; t
    log-uniform in [1e-300, 1e8]; six points x = c_i + sqrt(v_i + t) z with
    |z_k| <= 4, as X_t draws them, in C or F order.
    """
    family = draw(st.sampled_from(["discrete", "shared", "unequal"]))
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=5, unique=True))
    n = len(points)
    centers = np.array(points, dtype=float) + draw(st.sampled_from([0.0, 1e3]))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    weights = raw / raw.sum()
    sigma = st.floats(0.2, 2.0)
    if family == "discrete":
        dist, variances = FiniteDiscrete(points=centers, probs=weights), np.zeros(n)
    else:
        sigmas = np.array(draw(st.lists(sigma, min_size=n, max_size=n)) if family == "unequal"
                          else [draw(sigma)] * n)
        dist, variances = GaussianMixture(weights, centers, sigmas), sigmas**2
    t = 10.0 ** draw(st.floats(-300.0, 8.0))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=6, max_size=6))
    z = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=6 * d, max_size=6 * d)))
    X = centers[picks] + np.sqrt(variances[picks] + t)[:, None] * z.reshape(6, d)
    return dist, weights, centers, variances, t, np.asarray(X, order=draw(st.sampled_from("CF")))


_ATOMS = np.array([[0.0, 2.0, -1.0], [1.0, -2.0, 2.0]])


@settings(max_examples=150, deadline=None)
@given(_posterior_cases())
# the second atom's weight, 1.4e-316, is subnormal, and so is the trace,
# 3.5e-315: the kernel and the oracle read 26 units of 2^-1074 apart
@example((FiniteDiscrete(points=_ATOMS, probs=[0.5, 0.5]), np.array([0.5, 0.5]), _ATOMS,
          np.zeros(2), 0.018434229924091106, np.array([[0.0, 2.0, -1.1357727142105185]])))
def test_posterior_kernels_match_the_per_component_oracle_anywhere(case):
    # the kernels normalize only their per-point sums; checked at every t
    # from 1e-300 to 1e8 and in both memory orders, at the oracle test's
    # bands. The oracle takes each mu_i - m in difference form, so its trace
    # holds where the posterior means nearly coincide (t below about 1e-16
    # on a mixture) and is compared at rtol alone down to the subnormal range.
    # There (atoms, every weight p_j but the top one below 2^-1022) each side
    # rounds each p_j to the 2^-1074 grid, half a unit, and the trace weighs
    # it by at most D = max |c_i - c_j|^2; each side also rounds every
    # subnormal product it forms by half a unit: the kernel's n^2 in E p, n
    # in p.(E p), its halving and two divisions by S, the oracle's n d in its
    # deviations and n d on its diagonal. So the two differ by at most
    # k = (n - 1) D + (n^2 + n + 3 + 2 n d) / 2 units of 2^-1074
    dist, weights, centers, variances, t, X = case
    n, d = centers.shape
    D = max(float(np.sum((ci - cj) ** 2)) for ci in centers for cj in centers)
    k = (n - 1) * D + (n * n + n + 3 + 2 * n * d) / 2
    means = posterior_mean(dist, t, X)
    tr, fr = posterior_cov_stats(dist, t, X)
    for i, x in enumerate(X):
        _, mean, o_tr, o_fr = mixture_posterior_moments(weights, centers, variances, t, x)
        np.testing.assert_allclose(means[i], mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(tr[i], o_tr, rtol=1e-10, atol=k * 2.0**-1074)
        np.testing.assert_allclose(fr[i], o_fr, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("d", [2, 16, 256])
@pytest.mark.parametrize("family", ["discrete", "gmm"])
def test_kernel_precise_far_from_origin(family, d, t):
    # centers at 1e3 + N(0, I): expanding |x - c|^2 as |x|^2 - 2 x.c + |c|^2
    # without centering first loses ~1e-9 in the mean and ~1e-3 in log p here
    rng = np.random.default_rng(d)
    centers = 1e3 + rng.normal(size=(5, d))
    weights = rng.dirichlet(np.ones(5))
    variances = np.zeros(5) if family == "discrete" else np.full(5, 0.3**2)
    if family == "discrete":
        dist = FiniteDiscrete(points=centers, probs=weights)
    else:
        dist = GaussianMixture(weights=weights, means=centers, sigmas=np.full(5, 0.3))
    X = dist.sample(8, rng) + math.sqrt(t) * rng.standard_normal((8, d))
    means = posterior_mean(dist, t, X)
    sig_t = np.sqrt(variances + t)
    log_p = GaussianMixture(weights, centers, sig_t).log_prob(X)
    for i, x in enumerate(X):
        _, mean, _, _ = mixture_posterior_moments(weights, centers, variances, t, x)
        np.testing.assert_allclose(means[i], mean, rtol=0.0, atol=1e-10)
        want = isotropic_mixture_log_density(weights, centers, sig_t, x)
        assert log_p[i] == pytest.approx(want, rel=1e-12, abs=1e-10)


def test_kernel_builds_no_component_by_dimension_tensor():
    # an (m, n, d) float64 temporary would need m n d 8 bytes; allow a quarter
    m, n, d = 4096, 64, 64
    rng = np.random.default_rng(3)
    gm = GaussianMixture(
        weights=np.full(n, 1.0 / n), means=rng.normal(size=(n, d)), sigmas=np.full(n, 0.5)
    )
    X = rng.normal(size=(m, d))
    for call in (lambda: posterior_mean(gm, 0.5, X), lambda: gm.log_prob(X)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n * d * 8 / 4


@pytest.mark.parametrize("family", ["discrete", "gmm"])
def test_cov_stats_build_no_component_by_dimension_tensor(family):
    # the trace and tr Cov^2 come from (n, m) and (n, n, m) arrays; an
    # (m, n, d) or (m, d, d) temporary would need m n d 8 or m d d 8 bytes
    m, n, d = 2048, 6, 256
    rng = np.random.default_rng(4)
    centers = rng.normal(size=(n, d))
    weights = np.full(n, 1.0 / n)
    if family == "discrete":
        dist = FiniteDiscrete(points=centers, probs=weights)
    else:
        dist = GaussianMixture(weights=weights, means=centers, sigmas=np.linspace(0.3, 0.8, n))
    X = dist.sample(m, rng) + rng.normal(size=(m, d))
    tracemalloc.start()
    try:
        posterior_cov_stats(dist, 0.5, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * d * 8 / 4


# ---------------------------------------------------------------------------
# row blocks


UNEQUAL = GaussianMixture(
    weights=[0.2, 0.5, 0.3], means=[[0.0, 1.0], [2.0, -1.0], [-1.5, 0.5]], sigmas=[0.3, 0.6, 1.1]
)
BLOCK_DISTS = [build_toy("circle8"), toy_discrete("circle8"), UNEQUAL]
BLOCK_IDS = ["circle8", "circle8_discrete", "unequal_sigmas"]


def _n_components(dist):
    return _components(dist)[0].size


def _noisy(dist, m, t, seed):
    rng = np.random.default_rng(seed)
    return dist.sample(m, rng) + math.sqrt(t) * rng.standard_normal((m, dist.dim))


def _log_p_t(dist, t):
    weights, centers, variances = _components(dist)
    return GaussianMixture(weights, centers, np.sqrt(variances + t))


@pytest.mark.parametrize("m, width, budget", [(0, 8, 40), (1, 8, 40), (17, 8, 40),
                                              (20, 8, 40), (5, 64, 40), (9, 3, 1 << 17),
                                              (41, 8, 80), (42, 8, 80), (8, 8, 80)])
def test_row_blocks_cover_every_row_once_within_the_budget(monkeypatch, m, width, budget):
    # blocks of step rows, with a final block of at most step // 8 rows
    # folded into the one before it: (41, 8, 80) gives 10, 10, 10 and 11 rows
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", budget)
    step = max(1, budget // width)
    blocks = list(targets._row_blocks(m, width))
    rows = np.concatenate([np.arange(m)[b] for b in blocks])
    np.testing.assert_array_equal(rows, np.arange(m))
    assert len(blocks) >= 1  # zero rows still run the kernel once, so it checks t
    assert all(b.stop - b.start <= step + step // 8 for b in blocks)
    assert all(b.stop - b.start == step for b in blocks[:-1])
    assert len(blocks) == 1 or min(m, blocks[-1].stop) - blocks[-1].start > step // 8


_B = 5  # rows per block of the small budget


@pytest.mark.parametrize("m", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("dist", BLOCK_DISTS, ids=BLOCK_IDS)
def test_blocked_kernels_match_one_block(monkeypatch, dist, m):
    # BLAS picks its kernel by matrix size (one row is a matrix-vector
    # product), so a row's dot products can round differently inside blocks
    # of another size; the tolerance is a few thousand ulps of the largest
    # value, far below any result the tests or the CLI compare
    t = 0.3
    n = _n_components(dist)
    X = _noisy(dist, m, t, seed=m)
    p_t = _log_p_t(dist, t)

    def kernels():
        return (posterior_mean(dist, t, X), p_t.log_prob(X), *posterior_cov_stats(dist, t, X))

    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 1 << 60)
    whole = kernels()
    for budget in (_B * n, _B * n * n):  # _B rows for the logits, then for the Gram
        monkeypatch.setattr(targets, "_BLOCK_ELEMS", budget)
        for got, want in zip(kernels(), whole):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("d", [1, 2, 64])
def test_kernels_give_the_same_bits_in_either_memory_order(d):
    # the kernels work each row block as (d, rows) arrays: the transpose of a
    # block of a column-major batch is contiguous, that of a C-ordered one is
    # not, and the two must give the same values to the last bit; |x~|^2
    # summed over a contiguous d would not (einsum unrolls that sum)
    rng = np.random.default_rng(d)
    w = rng.uniform(0.5, 1.5, 16)
    dist = GaussianMixture(w / w.sum(), rng.normal(0.0, 1.5, (16, d)), rng.uniform(0.3, 5.0, 16))
    XC = _noisy(dist, 3000, 5.0, seed=d)
    XF = np.asfortranarray(XC)
    mC, mF = posterior_mean(dist, 5.0, XC), posterior_mean(dist, 5.0, XF)
    assert mC.flags.c_contiguous and mF.flags.f_contiguous  # the input's order
    assert np.array_equal(mC, mF)
    assert np.array_equal(dist.log_prob(XC), dist.log_prob(XF))
    for a, b in zip(posterior_cov_stats(dist, 5.0, XC), posterior_cov_stats(dist, 5.0, XF)):
        assert np.array_equal(a, b)
    out = np.empty_like(XF)
    assert posterior_mean(dist, 5.0, XC, out=out) is out
    assert np.array_equal(out, mC)
    with pytest.raises(ValueError):
        posterior_mean(dist, 5.0, XC, out=out[1:])


@pytest.mark.parametrize("t", [1.0, 0.1, 0.01, 0.001])
@pytest.mark.parametrize("m", [16385, 16386, 16387, 32769])
def test_short_final_block_keeps_the_one_block_bits(monkeypatch, m, t):
    # at the module's budget grid8's logits run in blocks of 16,384 rows, so
    # these m leave a final block of 1-3 rows, which BLAS would round as a
    # matrix-vector product; folded into the block before it, every row keeps
    # the bits of one large block
    grid8 = build_toy("grid8")
    X = _noisy(grid8, m, t, seed=m)

    def kernels():
        return posterior_mean(grid8, t, X), grid8.log_prob(X)

    blocked = kernels()
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 1 << 60)
    for got, want in zip(blocked, kernels()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("policy", ["quadrature", "monte_carlo"])
@pytest.mark.parametrize("dist", BLOCK_DISTS, ids=BLOCK_IDS)
def test_blocked_mmse_matches_one_block(monkeypatch, dist, policy):
    # 2,668 quadrature rows per component and 3 B + 7 Monte-Carlo rows, in
    # blocks of B = 1,000 rows
    n_samples = 3 * 1000 + 7
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 1 << 60)
    whole = mmse(dist, 2.0, policy, n_samples=n_samples, seed=3)
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 1000 * _n_components(dist))
    got = mmse(dist, 2.0, policy, n_samples=n_samples, seed=3)
    assert got == pytest.approx(whole, rel=1e-12, abs=0.0)


def test_blocked_kernels_keep_the_bits_of_the_cli_shapes(monkeypatch):
    # at the module's own budget simulate's 1e5 circle8 rows run in denoiser
    # blocks of 10,922, simulate_hd's 4,096 rows of a 64-component d = 64
    # mixture in blocks of 1,008, and mmse-table's quadrature and Monte-Carlo batches in
    # Gram blocks of 2,048; on these shapes the blocks give the one-block bits,
    # so those commands write the bytes an unblocked kernel writes (other
    # block sizes can move the last bits, see test_blocked_kernels_match_one_block)
    circle8 = build_toy("circle8")
    rng = np.random.default_rng(5)
    hd = GaussianMixture(weights=np.full(64, 1 / 64), means=rng.normal(0.0, 1.5, (64, 64)),
                         sigmas=rng.uniform(0.5, 1.0, 64))
    X8, Xhd = _noisy(circle8, 100_000, 0.3, seed=1), _noisy(hd, 4096, 0.3, seed=2)
    curve = MmseCurve(circle8)
    mc = MmseCurve(circle8, "monte_carlo", n_samples=70_000, seed=4)

    def outputs():
        return (posterior_mean(circle8, 0.3, X8), circle8.log_prob(X8), posterior_mean(hd, 0.3, Xhd),
                np.array(curve.tabulate([0.5, 20.0]) + mc.tabulate([3.0])))

    blocked = outputs()
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 1 << 60)
    for got, want in zip(blocked, outputs()):
        assert np.array_equal(got, want)


def test_kernel_peak_memory_is_its_output_plus_one_block():
    # an un-blocked kernel holds (m, n) logits, 16 MiB here on top of its
    # output; the blocks hold at most 2^17 elements (1 MiB) of each temporary
    circle8 = build_toy("circle8")
    X = _noisy(circle8, 1 << 18, 0.3, seed=6)
    for call, out_bytes in ((lambda: posterior_mean(circle8, 0.3, X), X.nbytes),
                            (lambda: circle8.log_prob(X), X.nbytes // 2)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out_bytes + 4 * 2**20


def test_cov_stats_gram_stays_within_its_blocks():
    # unblocked, the (n, n, m) Gram of 64 components and 8,192 rows is 256 MiB
    rng = np.random.default_rng(7)
    gm = GaussianMixture(weights=np.full(64, 1 / 64), means=rng.normal(size=(64, 8)),
                         sigmas=rng.uniform(0.5, 1.0, 64))
    X = _noisy(gm, 8192, 0.5, seed=8)
    tracemalloc.start()
    try:
        posterior_cov_stats(gm, 0.5, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tabulate_evaluates_each_knot_once(monkeypatch):
    import snrsched.channel as channel

    # _cov_stats is the block kernel of posterior_cov_stats, which the oracles
    # run over each node batch with a kernel table built once per knot
    calls = []
    kernel = channel._cov_stats

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(channel, "_cov_stats", counting)
    for policy in ("quadrature", "monte_carlo"):
        curve = MmseCurve(TWO, policy, n_samples=2000, seed=5)
        calls.clear()
        ((g, v, se, dv, dse),) = curve.tabulate([2.0])
        assert len(calls) == (TWO.n_atoms if policy == "quadrature" else 1)
        assert (v, se) == curve.mmse(2.0)
        assert (dv, dse) == mmse_derivative(TWO, 2.0, policy, n_samples=2000, seed=5)


@pytest.mark.parametrize("policy", ["quadrature", "monte_carlo"])
def test_integral_computes_each_endpoint_once(monkeypatch, policy):
    # two grids with the same endpoints, as report runs them, and a third
    # interval that shares one: three distinct gammas, three I evaluations,
    # each integral bit-identical to 2 (I(hi) - I(lo)) from the module function
    import snrsched.channel as channel

    dist = build_toy("circle8")
    want = {g: _info(dist, g, policy, 2000, 3)[0] for g in (1.0, 30.0, 1000.0)}
    calls = []
    info = channel._info

    def counting(dist, gamma, *args):
        calls.append(gamma)
        return info(dist, gamma, *args)

    monkeypatch.setattr(channel, "_info", counting)
    curve = MmseCurve(dist, policy, n_samples=2000, seed=3)
    for grid in (grid_geometric(1.0, 1e-3, 8), grid_edm(1.0, 1e-3, 8)):
        riemann = float(np.diff(grid.gammas) @ [curve.mmse(g)[0] for g in grid.gammas[:-1]])
        assert disc_error(curve, grid) == riemann - 2.0 * (want[1000.0] - want[1.0])
    assert curve.integral(30.0, 1000.0) == 2.0 * (want[1000.0] - want[30.0])
    assert sorted(calls) == [1.0, 30.0, 1000.0]


@pytest.mark.parametrize("policy", ["quadrature", "monte_carlo"])
def test_tabulate_mmse_column_is_the_trace_only_mmse(policy):
    # mmse averages the trace alone, tabulate both moments from one kernel
    # call; the two share the trace code, so the columns agree bit for bit,
    # also for unequal variances, where the trace has x-dependent terms
    unequal = GaussianMixture(
        weights=[0.2, 0.5, 0.3], means=[[0.0, 1.0], [2.0, -1.0], [-1.5, 0.5]], sigmas=[0.3, 0.6, 1.1]
    )
    gammas = [0.3, 2.0, 40.0]
    for dist in (TWO, toy_discrete("circle8"), unequal):
        curve = MmseCurve(dist, policy, n_samples=3000, seed=9)
        rows = curve.tabulate(gammas)
        assert [(v, se) for _, v, se, _, _ in rows] == [curve.mmse(g) for g in gammas]


# ---------------------------------------------------------------------------
# the kernel table: x-free terms built once per (target, t)

_TILTED = GaussianMixture(
    weights=[0.5, 0.3, 0.2], means=[[1.0, 2.0], [-2.0, 0.5], [0.5, -3.0]], sigmas=[0.3, 0.7, 1.5]
)


@pytest.fixture
def table_builds(monkeypatch):
    """A list that grows by (t, table) on each build of the kernel table."""
    import snrsched.channel as channel

    builds = []
    build = channel._KernelTable

    def counting(dist, t):
        table = build(dist, t)
        builds.append((t, table))
        return table

    monkeypatch.setattr(channel, "_KernelTable", counting)
    return builds


@pytest.mark.parametrize("policy", ["quadrature", "monte_carlo"])
def test_mmse_and_info_build_one_table_per_call(table_builds, policy):
    # quadrature runs 8 node batches, Monte Carlo 2 chunks (65,536 and 4,464
    # points) in 6 row blocks: all read the one table
    dist = build_toy("circle8")
    mmse(dist, 2.0, policy, n_samples=70_000)
    assert [t for t, _ in table_builds] == [0.5]
    assert "E" in vars(table_builds[0][1])
    table_builds.clear()
    _info(dist, 2.0, policy, 70_000, 0)
    assert [t for t, _ in table_builds] == [0.5]
    assert "E" not in vars(table_builds[0][1])  # no pair table: I reads only the logits


def test_tabulate_builds_one_table_per_gamma(table_builds):
    MmseCurve(build_toy("grid8")).tabulate([0.5, 2.0, 8.0])
    assert [t for t, _ in table_builds] == [2.0, 0.5, 0.125]


def test_posterior_mean_builds_one_table_without_pairs_over_many_blocks(table_builds, monkeypatch):
    dist = build_toy("circle8")
    X = np.random.default_rng(4).normal(size=(1000, 2))
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 8 * 300)
    assert len(list(targets._row_blocks(1000, 8))) >= 3
    posterior_mean(dist, 0.7, X)
    assert [t for t, _ in table_builds] == [0.7]
    assert not {"at", "e", "tilt", "E"} & set(vars(table_builds[0][1]))
    table_builds.clear()
    posterior_cov_stats(dist, 0.7, X)
    posterior_fourth_moment(toy_discrete("circle8"), 0.7, 2000, seed=0)
    assert [t for t, _ in table_builds] == [0.7, 0.7]
    assert all("E" in vars(table) for _, table in table_builds)


def test_log_prob_builds_its_logit_terms_once_over_many_blocks(monkeypatch):
    builds = []
    build = targets._KernelTable

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(targets, "_KernelTable", counting)
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", 8 * 300)
    assert len(list(targets._row_blocks(1000, 8))) >= 3
    build_toy("grid8").log_prob(np.random.default_rng(5).normal(size=(1000, 2)))
    assert builds == [1]


@pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-3, 1.0, 1e8])
@pytest.mark.parametrize("dist", [toy_discrete("circle8"), build_toy("circle8"), _TILTED],
                         ids=["circle8_discrete", "circle8", "tilted"])
def test_kernel_table_matches_per_call_terms_bit_for_bit(dist, t):
    # the shared-variance softmax (both circle8s) and the general one (tilted),
    # against references that derive every x-free term inside the call; a
    # mixture's t = 0 table holds the logits GaussianMixture.log_prob reads
    weights, centers, variances = _components(dist)
    X = np.concatenate([centers, centers[0] + 3.0 * np.random.default_rng(8).normal(size=(40, 2))])
    table = _KernelTable(dist, t)
    density = _KernelTable(dist, 0.0) if isinstance(dist, GaussianMixture) else None
    for Xo in (np.ascontiguousarray(X), np.asfortranarray(X)):
        XT = Xo.T
        if density is not None:
            assert np.array_equal(_component_logits(density, XT),
                                  per_call_logits(weights, centers, variances, XT))
        assert np.array_equal(_responsibilities(table, XT),
                              per_call_responsibilities(weights, centers, variances, t, XT))
        with np.errstate(over="ignore", invalid="ignore"):  # -0.5/s2 is -inf for atoms at 5e-324
            assert np.array_equal(_component_logits(table, XT),
                                  per_call_logits(weights, centers, variances + t, XT), equal_nan=True)
        assert np.array_equal(posterior_mean(dist, t, Xo),
                              per_call_posterior_mean(weights, centers, variances, t, Xo))
        for got, want in zip(posterior_cov_stats(dist, t, Xo),
                             per_call_cov_stats(weights, centers, variances, t, XT)):
            assert np.array_equal(got, want)


def _x_free_derivations(path):
    """(function, what) for each x-free term a module derives: weights @ centers,
    np.log(weights) and an equality test of an array against its first entry."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult)
                    and getattr(child.left, "id", None) == "weights"
                    and getattr(child.right, "id", None) == "centers"):
                found.append((where, "weights @ centers"))
            elif (isinstance(child, ast.Call) and ast.unparse(child.func) == "np.log"
                  and [ast.unparse(a) for a in child.args] == ["weights"]):
                found.append((where, "np.log(weights)"))
            elif (isinstance(child, ast.Compare) and isinstance(child.ops[0], (ast.Eq, ast.NotEq))
                  and isinstance(child.comparators[0], ast.Subscript)
                  and ast.unparse(child.comparators[0]) == f"{ast.unparse(child.left)}[0]"):
                found.append((where, "equality test"))
            visit(child, where)

    visit(tree, "")
    return found


def test_x_free_terms_are_derived_only_in_the_table_builders():
    import snrsched.channel as channel

    found = _x_free_derivations(targets.__file__) + _x_free_derivations(channel.__file__)
    assert {what for _, what in found} == {"weights @ centers", "np.log(weights)", "equality test"}
    # one builder, targets._KernelTable, in its __init__ and its lazy pair terms
    assert {where.split(".")[0] for where, _ in found} == {"_KernelTable"}
    for gone in ("_LogitTerms", "_logit_terms"):
        assert not hasattr(targets, gone), gone
    # channel imports the table and _components; it defines neither
    defs = [node for node in ast.parse(Path(channel.__file__).read_text()).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
    assert not [node.name for node in defs if isinstance(node, ast.ClassDef) and "Table" in node.name]
    assert "_components" not in {node.name for node in defs}


def _row_block_callers():
    """(module, function) for each call of _row_blocks in the package's modules."""
    import snrsched

    found = []
    for path in sorted(Path(snrsched.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [(path.stem, fn.name) for node in ast.walk(fn) if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "_row_blocks"]
    return found


def test_kernel_rows_run_through_one_driver():
    # every kernel that reduces a block to per-point values runs through
    # targets._map_rows; posterior_mean, which writes (d, rows) blocks in
    # place, and reverse_step, which adds each block's std * noise in place
    # (drawing the block's normals first when its noise is a Generator), keep
    # their loops
    import inspect

    import snrsched.channel as channel

    assert sorted(_row_block_callers()) == [
        ("channel", "posterior_mean"), ("sampler", "reverse_step"), ("targets", "_map_rows")]
    # the call's one weighting buffer belongs to its _KernelTable
    for gone in ("_cov_trace", "_row_buffer", "_weigh"):
        assert not hasattr(channel, gone), gone
    assert list(inspect.signature(channel._pair_spread).parameters) == ["table", "XT"]


@pytest.mark.parametrize("scale", [1e76, 1e100, 1e150])
def test_dmmse_of_far_apart_components_squares_its_gram_without_overflow(scale):
    # at +-1e100 the Gram entries square past float64, and inf * 0 read nan
    # with a RuntimeWarning; scaled by a power of two first, every scale
    # reads the one-hot value -tau (d tau) = -0.25
    curve = MmseCurve(GaussianMixture([0.5, 0.5], [[-scale], [scale]], [1.0, 1.0]))
    assert curve.tabulate([1.0]) == [(1.0, 0.5, 0.0, -0.25, 0.0)]


def test_dmmse_of_far_and_close_components_matches_the_oracle():
    # the close pair (0, 1) carries all the posterior mass at x = 0.5, while
    # the far pair +-1e100 makes the plain pass inf * 0 = nan; a fit scaled
    # for the far Gram entries would square the close ones (about 0.125) to 0
    weights, variances = [0.25] * 4, [1.0] * 4
    centers = [[-1e100], [0.0], [1.0], [1e100]]
    dist = GaussianMixture(weights, centers, [1.0] * 4)
    X = np.array([[0.5], [0.2], [1.5], [-3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, frob_sq = posterior_cov_stats(dist, 1.0, X)
    for x, tr, fs in zip(X, trace, frob_sq):
        _, _, want_tr, want_fs = mixture_posterior_moments(weights, centers, variances, 1.0, x)
        assert tr == pytest.approx(want_tr, rel=1e-12)
        assert fs == pytest.approx(want_fs, rel=1e-12)
    assert frob_sq[0] > 0.25 + 0.003  # tau^2 = 0.25 plus the spread term


@pytest.mark.parametrize("dist", [toy_discrete("grid8"), build_toy("circle8"), _TILTED],
                         ids=["grid8_discrete", "circle8", "tilted"])
def test_gram_fit_agrees_with_the_plain_pass(dist):
    # the weighted, per-column scaled pass, forced on ordinary blocks, agrees
    # with the plain pass to rounding (it rounds sqrt(r), so bits may move,
    # which is why only non-finite columns are refit)
    import snrsched.channel as channel

    X = 4.0 * np.random.default_rng(2).normal(size=(300, 2))
    for t in (1e-3, 0.5, 30.0):
        table = _KernelTable(dist, t)
        _, p, M, tilt = channel._pair_spread(table, X.T)
        r, Dr = p / M[-1], M[:-2] / M[-1]
        u = Dr - 0.5 * np.einsum("im,im->m", r, Dr)
        plain = channel._gram_sq(table, r, u, tilt, fit=False)
        assert np.all(np.isfinite(plain)) and np.any(plain > 0)
        fitted = channel._gram_sq(table, r, u, tilt, fit=True)
        np.testing.assert_allclose(fitted, plain, rtol=1e-12, atol=1e-300)
