"""Exact Bayes machinery for the additive Gaussian channel."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_diff,
    entropy_oracle,
    gauss_mmse_integral,
    isotropic_mixture_log_density,
    mixture_posterior_moments,
    two_atom_fourth_moment,
    two_atom_mmse,
)
from snrsched import FiniteDiscrete, GaussianMixture, renyi_half_entropy
from snrsched.channel import (
    MmseCurve,
    _components,
    _responsibilities,
    _standard_normal_nodes,
    mmse,
    mmse_derivative,
    posterior_cov_stats,
    posterior_fourth_moment,
    posterior_mean,
    derivative_ratio_constant,
)
from snrsched.targets import toy_discrete

TWO = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])
POINT = FiniteDiscrete(points=[[2.0, -1.0]], probs=[1.0])


def single_gauss(sigma0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


# ---------------------------------------------------------------------------
# posteriors


def _weights(dist, t, x):
    return _responsibilities(_components(dist), t, np.atleast_2d(x))[0]


@pytest.mark.parametrize("t", [0.0, -0.01, math.nan, math.inf])
@pytest.mark.parametrize("dist", [TWO, single_gauss(0.25)], ids=["discrete", "gmm"])
def test_kernel_rejects_bad_noise_scale(dist, t):
    X = np.array([[0.3]])
    with pytest.raises(ValueError):
        posterior_mean(dist, t, X)
    with pytest.raises(ValueError):
        posterior_cov_stats(dist, t, X)


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


def test_quadrature_nodes_built_once_and_read_only():
    # the cache hands the same arrays to every caller, so none may write them
    for d, size in ((1, 200), (2, 96 * 96)):
        offsets, qw = _standard_normal_nodes(d)
        assert _standard_normal_nodes(d)[0] is offsets
        assert offsets.shape == (size, d) and qw.shape == (size,)
        assert qw.sum() == pytest.approx(1.0, rel=1e-12)
        for arr in (offsets, qw):
            with pytest.raises(ValueError):
                arr[0] = 0.0


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


def test_mmse_curve_monotone_and_bounded():
    curve = MmseCurve(TWO, policy="quadrature")
    gammas = np.geomspace(0.25, 64.0, 9)
    vals = [curve.mmse(g)[0] for g in gammas]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= TWO.cov_trace() + 1e-12 for v in vals)


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


@pytest.mark.parametrize("dist", [TWO, toy_discrete("circle8")], ids=["two_atom", "circle8"])
def test_mmse_integral_over_all_snr_is_twice_entropy(dist):
    # I(0) = 0 and I(inf) = H for a discrete target; the cut at gamma = 1e-8
    # leaves out about gamma_lo * tr Cov of the integral
    got = MmseCurve(dist).integral(1e-8, 1e8)
    assert abs(got - 2.0 * entropy_oracle(dist.probs)) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_mmse_curve_integral_monte_carlo_single_gaussian(seed):
    curve = MmseCurve(single_gauss(1.0, d=3), policy="monte_carlo", seed=seed)
    want = gauss_mmse_integral(1.0, 3, 1.0, 100.0)
    assert curve.integral(1.0, 100.0) == pytest.approx(want, rel=3e-3)


# ---------------------------------------------------------------------------
# posterior-redraw fourth moment


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
    """(id, target, weights, centers, variances): atoms and Gaussians, d = 1, 2."""
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
    return cases


@pytest.mark.parametrize("t", [1e-6, 1e-2, 1.0, 1e2, 1e6])
@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_posterior_matches_per_component_oracle(case, t):
    _, dist, weights, centers, variances = case
    rng = np.random.default_rng(7)
    X = dist.sample(6, rng) + math.sqrt(t) * rng.standard_normal((6, dist.dim))
    tr, fr = posterior_cov_stats(dist, t, X)
    means = posterior_mean(dist, t, X)
    resp = _responsibilities(_components(dist), t, X)
    for i, x in enumerate(X):
        probs, mean, o_tr, o_fr = mixture_posterior_moments(weights, centers, variances, t, x)
        np.testing.assert_allclose(resp[i], probs, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(means[i], mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose([tr[i], fr[i]], [o_tr, o_fr], rtol=1e-10, atol=1e-14)


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


def test_tabulate_evaluates_each_knot_once(monkeypatch):
    import snrsched.channel as channel

    calls = []
    kernel = channel.posterior_cov_stats

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(channel, "posterior_cov_stats", counting)
    for policy in ("quadrature", "monte_carlo"):
        curve = MmseCurve(TWO, policy, n_samples=2000, seed=5)
        calls.clear()
        ((g, v, se, dv, dse),) = curve.tabulate([2.0])
        assert len(calls) == (TWO.n_atoms if policy == "quadrature" else 1)
        assert (v, se) == curve.mmse(2.0)
        assert (dv, dse) == mmse_derivative(TWO, 2.0, policy, n_samples=2000, seed=5)
