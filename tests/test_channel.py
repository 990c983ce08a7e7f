"""Exact Bayes machinery for the additive Gaussian channel."""

import math

import numpy as np
import pytest

from oracles import (
    central_diff,
    mixture_posterior_moments,
    two_atom_fourth_moment,
    two_atom_mmse,
)
from snrsched import FiniteDiscrete, GaussianMixture, renyi_half_entropy
from snrsched.channel import (
    ChannelPoint,
    MmseCurve,
    mmse,
    mmse_derivative,
    posterior,
    posterior_cov_stats,
    posterior_fourth_moment,
    posterior_mean,
    derivative_ratio_constant,
)

TWO = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])
POINT = FiniteDiscrete(points=[[2.0, -1.0]], probs=[1.0])


def single_gauss(sigma0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


# ---------------------------------------------------------------------------
# channel points


def test_channel_point_gamma_t_inverse():
    p = ChannelPoint.from_gamma(4.0, np.array([0.5]))
    assert p.t == 0.25
    assert abs(p.gamma * p.t - 1.0) <= 1e-12
    q = ChannelPoint.from_t(0.25, np.array([0.5]))
    assert q.gamma == p.gamma


def test_channel_point_requires_positive_time():
    with pytest.raises(ValueError):
        ChannelPoint.from_t(0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        ChannelPoint.from_gamma(-1.0, np.array([0.0]))


# ---------------------------------------------------------------------------
# posteriors


def test_two_atom_posterior_symmetry():
    s = posterior(TWO, ChannelPoint.from_t(1.0, np.array([0.0])))
    np.testing.assert_allclose(s.weights, [0.5, 0.5], atol=1e-15)
    assert s.mean[0] == pytest.approx(0.0, abs=1e-15)


def test_two_atom_posterior_tanh():
    # m_t(x) = tanh(x/t) for unit atoms; tanh(2) at t=0.5, x=1
    s = posterior(TWO, ChannelPoint.from_t(0.5, np.array([1.0])))
    assert s.mean[0] == pytest.approx(math.tanh(2.0), abs=1e-12)
    assert s.mean[0] == pytest.approx(0.964028, abs=1e-6)


def test_single_gaussian_conjugate_mean():
    g = single_gauss(0.7, d=2)
    x = np.array([1.3, -0.4])
    for t in (0.1, 1.0, 5.0):
        s = posterior(g, ChannelPoint.from_t(t, x))
        np.testing.assert_allclose(s.mean, 0.7**2 / (0.7**2 + t) * x, atol=1e-12)


def test_posterior_weights_normalized_no_overflow():
    # log-domain weights survive extreme SNR where raw exponentials overflow
    pts = np.array([[-8.0], [0.0], [8.0]])
    d = FiniteDiscrete(points=pts, probs=[0.2, 0.5, 0.3])
    for t in (1e-8, 1.0, 1e6):
        s = posterior(d, ChannelPoint.from_t(t, np.array([7.5])))
        assert abs(s.weights.sum() - 1.0) <= 1e-10
        assert np.all(np.isfinite(s.weights))


def test_posterior_summary_inequalities():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(5, 2)) * 2.0
    probs = np.full(5, 0.2)
    d = FiniteDiscrete(points=pts, probs=probs)
    for _ in range(6):
        x = rng.normal(size=2) * 2.0
        s = posterior(d, ChannelPoint.from_t(0.5, x))
        assert s.cov_trace >= 0.0
        assert s.cov_frobenius_sq <= s.cov_trace**2 + 1e-12
        # trace^2 is in turn dominated by the posterior fourth moment about
        # the posterior mean, checked by enumeration
        dev = pts - s.mean[None, :]
        fourth = float(np.sum(s.weights * np.sum(dev * dev, axis=1) ** 2))
        assert s.cov_trace**2 <= fourth + 1e-12


def test_posterior_mean_batched_matches_pointwise():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(32, 1))
    batch = posterior_mean(TWO, 0.5, X)
    for i in range(0, 32, 7):
        single = posterior(TWO, ChannelPoint.from_t(0.5, X[i])).mean
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


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


def test_mmse_curve_integral_two_atom_vs_simpson_free_route():
    from scipy.integrate import quad

    curve = MmseCurve(TWO, policy="quadrature")
    got = curve.integral(0.5, 8.0)
    want, _ = quad(two_atom_mmse, 0.5, 8.0, limit=200, epsrel=1e-10)
    assert got == pytest.approx(want, rel=1e-5)


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
    for i, x in enumerate(X):
        probs, mean, o_tr, o_fr = mixture_posterior_moments(weights, centers, variances, t, x)
        s = posterior(dist, ChannelPoint.from_t(t, x))
        np.testing.assert_allclose(s.weights, probs, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(s.mean, mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(
            [s.cov_trace, s.cov_frobenius_sq, tr[i], fr[i]],
            [o_tr, o_fr, o_tr, o_fr],
            rtol=1e-10,
            atol=1e-14,
        )


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
        assert (dv, dse) == curve.derivative(2.0)
