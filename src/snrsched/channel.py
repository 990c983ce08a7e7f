"""Exact Bayes machinery for the additive Gaussian channel X_t = Z + sqrt(t) xi.

For tractable targets (finite discrete supports and isotropic Gaussian
mixtures) the posterior over atoms/components given a noisy observation is
available in closed form, and with it the posterior mean (the ideal
denoiser), the posterior covariance, and the MMSE curve

    mmse(gamma) = E || Z - m_{1/gamma}(X_{1/gamma}) ||^2,   gamma = 1/t,

together with its derivative, via the identity

    -mmse'(gamma) = E[ tr( Cov(Z | X_{1/gamma})^2 ) ].

A finite discrete target is treated as the isotropic mixture whose components
have zero variance, so one posterior kernel serves both target families.

Three evaluation policies are provided and cross-checked against each other:
closed form (single Gaussian component), Gauss-Hermite quadrature (exact up
to quadrature error for dim <= 2), and Monte Carlo with reported standard
errors. Posterior weights are always normalized in the log domain with the
maximum subtracted first, so no overflow can occur at any SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import FiniteDiscrete, GaussianMixture, TargetDistribution, shannon_entropy

__all__ = [
    "ChannelPoint",
    "PosteriorSummary",
    "posterior",
    "posterior_mean",
    "posterior_cov_stats",
    "mmse",
    "mmse_derivative",
    "MmseCurve",
    "posterior_fourth_moment",
    "derivative_ratio_constant",
]

_CHUNK = 65536


@dataclass(frozen=True)
class ChannelPoint:
    """A channel observation: noise variance ``t`` and observed vector ``x``.

    The SNR ``gamma`` is the derived quantity 1/t, so gamma * t = 1 holds by
    construction. Use :meth:`from_t` or :meth:`from_gamma` to build one.
    """

    t: float
    x: np.ndarray

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("noise scale t must be positive")
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))

    @property
    def gamma(self) -> float:
        return 1.0 / self.t

    @classmethod
    def from_t(cls, t: float, x) -> "ChannelPoint":
        return cls(t=float(t), x=x)

    @classmethod
    def from_gamma(cls, gamma: float, x) -> "ChannelPoint":
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        return cls(t=1.0 / float(gamma), x=x)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior over atoms/components at one channel point.

    Attributes
    ----------
    weights : (n,) array
        Posterior probabilities; sum to 1 within 1e-10.
    mean : (d,) array
        Posterior mean m_t(x).
    cov_trace : float
        tr Cov(Z | X_t = x).
    cov_frobenius_sq : float
        tr( Cov(Z | X_t = x)^2 ); never exceeds cov_trace^2.
    """

    weights: np.ndarray
    mean: np.ndarray
    cov_trace: float
    cov_frobenius_sq: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("posterior weights must sum to 1 within 1e-10")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))


def _components(dist: TargetDistribution):
    """(weights, centers, variances) of ``dist`` as an isotropic mixture.

    A finite discrete target is the mixture whose components have zero
    variance, so every kernel below serves both target families.
    """
    if isinstance(dist, FiniteDiscrete):
        return dist.probs, dist.points, np.zeros(dist.n_atoms)
    return dist.weights, dist.means, dist.sigmas**2


def _responsibilities(comps, t: float, X: np.ndarray) -> np.ndarray:
    """Posterior component probabilities, shape (m, n), normalized in the log domain."""
    weights, centers, variances = comps
    s2 = variances + t
    sq = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    logr = (
        np.log(weights)[None, :]
        - 0.5 * sq / s2[None, :]
        - 0.5 * centers.shape[1] * np.log(s2)[None, :]
    )
    r = np.exp(logr - logr.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    return r


def _component_posteriors(comps, t: float, X: np.ndarray):
    """Conjugate per-component posterior means (m, n, d) and per-axis variances (n,)."""
    _, centers, variances = comps
    s2 = variances + t
    shrink = (variances / s2)[None, :, None]
    comp_mean = shrink * X[:, None, :] + (t / s2)[None, :, None] * centers[None, :, :]
    return comp_mean, variances * t / s2


def posterior_mean(dist: TargetDistribution, t: float, X) -> np.ndarray:
    """Ideal denoiser m_t evaluated at a batch of points, shape (m, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    comps = _components(dist)
    r = _responsibilities(comps, t, X)
    comp_mean, _ = _component_posteriors(comps, t, X)
    return np.einsum("mi,mid->md", r, comp_mean)


def _posterior_moments(dist: TargetDistribution, t: float, X: np.ndarray):
    """Responsibilities, posterior mean, tr Cov and tr Cov^2 for a batch X.

    Cov is the spread of the component means plus the mean within-component
    variance (law of total covariance).
    """
    comps = _components(dist)
    r = _responsibilities(comps, t, X)
    comp_mean, comp_var = _component_posteriors(comps, t, X)
    mean = np.einsum("mi,mid->md", r, comp_mean)
    centered = comp_mean - mean[:, None, :]
    cov = np.einsum("mi,mia,mib->mab", r, centered, centered)
    idx = np.arange(X.shape[1])
    cov[:, idx, idx] += (r @ comp_var)[:, None]
    trace = np.einsum("maa->m", cov)
    frob_sq = np.einsum("mab,mab->m", cov, cov)
    return r, mean, trace, frob_sq


def posterior_cov_stats(dist: TargetDistribution, t: float, X):
    """Batched posterior covariance summaries.

    Returns
    -------
    trace : (m,) array of tr Cov(Z | X_t = x).
    frob_sq : (m,) array of tr( Cov(Z | X_t = x)^2 ).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, _, trace, frob_sq = _posterior_moments(dist, t, X)
    return trace, frob_sq


def posterior(dist: TargetDistribution, point: ChannelPoint) -> PosteriorSummary:
    """Full posterior summary at a single channel point."""
    w, mean, trace, frob = _posterior_moments(dist, point.t, point.x[None, :])
    return PosteriorSummary(
        weights=w[0], mean=mean[0], cov_trace=float(trace[0]), cov_frobenius_sq=float(frob[0])
    )


def _quad_cov_expect(dist: TargetDistribution, t: float):
    """(E trace, E frob_sq) under X ~ p_t by tensor Gauss-Hermite, dim <= 2.

    Uses 200 nodes per axis in 1-d and a 96 x 96 tensor grid in 2-d.
    """
    d = dist.dim
    if d > 2:
        raise ValueError("quadrature policy supports dim <= 2 only")
    u, w1 = np.polynomial.hermite_e.hermegauss(200 if d == 1 else 96)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    if d == 1:
        offsets = u[:, None]
        qw = w1
    else:
        ua, ub = np.meshgrid(u, u, indexing="ij")
        offsets = np.stack([ua.ravel(), ub.ravel()], axis=1)
        qw = np.outer(w1, w1).ravel()
    probs, centers, variances = _components(dist)
    e_tr = 0.0
    e_fr = 0.0
    for c, s, p in zip(centers, np.sqrt(variances + t), probs):
        X = c[None, :] + s * offsets
        tr, fr = posterior_cov_stats(dist, t, X)
        e_tr += p * float(qw @ tr)
        e_fr += p * float(qw @ fr)
    return e_tr, e_fr


def _mean_se(v: np.ndarray):
    """Sample mean and its standard error (0 for a single sample)."""
    se = v.std(ddof=1) / math.sqrt(v.size) if v.size > 1 else 0.0
    return float(v.mean()), float(se)


def _mc_cov_expect(dist: TargetDistribution, t: float, n_samples: int, seed):
    """Monte-Carlo (E trace, E frob_sq) with standard errors, X ~ p_t."""
    if n_samples < 1:
        raise ValueError("monte_carlo policy needs n_samples >= 1")
    rng = np.random.default_rng(seed)
    traces = np.empty(n_samples)
    frobs = np.empty(n_samples)
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        Z = dist.sample(m, rng)
        X = Z + math.sqrt(t) * rng.standard_normal(Z.shape)
        tr, fr = posterior_cov_stats(dist, t, X)
        traces[done : done + m] = tr
        frobs[done : done + m] = fr
    return _mean_se(traces), _mean_se(frobs)


def _is_single_gaussian(dist) -> bool:
    return isinstance(dist, GaussianMixture) and dist.n_components == 1


def _resolve_policy(dist, policy: str) -> str:
    if policy == "auto":
        if _is_single_gaussian(dist):
            return "closed_form"
        if dist.dim <= 2:
            return "quadrature"
        return "monte_carlo"
    if policy not in ("closed_form", "quadrature", "monte_carlo"):
        raise ValueError(f"unknown evaluation policy {policy!r}")
    return policy


def _cov_expect(dist: TargetDistribution, gamma: float, policy: str, n_samples: int, seed):
    """((E tr Cov, stderr), (E tr Cov^2, stderr)) at t = 1/gamma under ``policy``.

    Both moments come from one evaluation; stderrs are 0 for the closed_form
    and quadrature policies.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    pol = _resolve_policy(dist, policy)
    if pol == "closed_form":
        if not _is_single_gaussian(dist):
            raise ValueError("closed_form policy applies to single-Gaussian targets only")
        s0sq = float(dist.sigmas[0] ** 2)
        tr = dist.dim * s0sq / (1.0 + s0sq * gamma)
        return (tr, 0.0), (dist.dim * (s0sq / (1.0 + s0sq * gamma)) ** 2, 0.0)
    if pol == "quadrature":
        e_tr, e_fr = _quad_cov_expect(dist, 1.0 / gamma)
        return (e_tr, 0.0), (e_fr, 0.0)
    return _mc_cov_expect(dist, 1.0 / gamma, n_samples, seed)


def mmse(
    dist: TargetDistribution,
    gamma: float,
    policy: str = "auto",
    *,
    n_samples: int = 200_000,
    seed=0,
):
    """MMSE of estimating Z from X_{1/gamma}; returns (value, stderr).

    The value is E tr Cov(Z | X_t) with t = 1/gamma (the conditional-variance
    form of E ||Z - m_t(X_t)||^2). stderr is 0 for the closed_form and
    quadrature policies.
    """
    return _cov_expect(dist, gamma, policy, n_samples, seed)[0]


def mmse_derivative(
    dist: TargetDistribution,
    gamma: float,
    policy: str = "auto",
    *,
    n_samples: int = 200_000,
    seed=0,
):
    """Derivative mmse'(gamma) = -E tr(Cov(Z|X_t)^2); returns (value, stderr)."""
    v, se = _cov_expect(dist, gamma, policy, n_samples, seed)[1]
    return -v, se


def _adaptive_simpson(f, a: float, b: float, rel_tol: float, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with a relative tolerance on the whole integral."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(abs(whole), 1e-300)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        # force a few splits so a coarse symmetric start cannot fake convergence
        if depth > 3 and abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            return left + right
        return rec(a, m, fa, flm, fm, left, tol / 2.0, depth + 1) + rec(
            m, b, fm, frm, fb, right, tol / 2.0, depth + 1
        )

    return rec(a, b, fa, fm, fb, whole, rel_tol * scale, 0)


@dataclass
class MmseCurve:
    """Evaluable mmse curve for one target under a fixed evaluation policy.

    ``policy`` is "auto", "closed_form", "quadrature" or "monte_carlo";
    "auto" picks closed form for a single Gaussian, quadrature for dim <= 2
    and Monte Carlo otherwise.
    """

    dist: TargetDistribution
    policy: str = "auto"
    n_samples: int = 200_000
    seed: int = 0

    def mmse(self, gamma: float):
        return mmse(self.dist, gamma, self.policy, n_samples=self.n_samples, seed=self.seed)

    def derivative(self, gamma: float):
        return mmse_derivative(
            self.dist, gamma, self.policy, n_samples=self.n_samples, seed=self.seed
        )

    def tabulate(self, gammas) -> list:
        """(gamma, mmse, mmse_stderr, dmmse, dmmse_stderr) tuples, one per gamma."""
        out = []
        for g in np.asarray(gammas, dtype=float):
            (v, se), (fr, fse) = _cov_expect(self.dist, g, self.policy, self.n_samples, self.seed)
            out.append((float(g), v, se, -fr, fse))
        return out

    def integral(self, gamma_lo: float, gamma_hi: float) -> float:
        """Integral of mmse over [gamma_lo, gamma_hi].

        Closed form for a single Gaussian; otherwise adaptive Simpson on the
        log-SNR axis at relative tolerance 1e-6.
        """
        if not 0 < gamma_lo < gamma_hi:
            raise ValueError("need 0 < gamma_lo < gamma_hi")
        if _resolve_policy(self.dist, self.policy) == "closed_form":
            s0sq = float(self.dist.sigmas[0] ** 2)
            return self.dist.dim * math.log((1.0 + s0sq * gamma_hi) / (1.0 + s0sq * gamma_lo))

        def f(u):
            g = math.exp(u)
            return self.mmse(g)[0] * g

        return _adaptive_simpson(f, math.log(gamma_lo), math.log(gamma_hi), rel_tol=1e-6)


def posterior_fourth_moment(dist: TargetDistribution, t: float, n_samples: int, seed):
    """Monte-Carlo estimate of E ||Z' - Z||^4 for an independent posterior draw Z'.

    Per sample: Z ~ p, X = Z + sqrt(t) xi, and Z' is drawn from the posterior
    over atoms given X, independently of Z. Finite discrete targets only.
    Returns (value, stderr).
    """
    if not isinstance(dist, FiniteDiscrete):
        raise TypeError("posterior_fourth_moment requires a FiniteDiscrete target")
    if not t > 0:
        raise ValueError("t must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    vals = np.empty(n_samples)
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        idx = rng.choice(dist.n_atoms, size=m, p=dist.probs)
        Z = dist.points[idx]
        X = Z + math.sqrt(t) * rng.standard_normal(Z.shape)
        w = _responsibilities(_components(dist), t, X)
        u = rng.random(m)
        idx2 = (u[:, None] > np.cumsum(w, axis=1)).sum(axis=1)
        idx2 = np.minimum(idx2, dist.n_atoms - 1)
        diff = dist.points[idx2] - Z
        vals[done : done + m] = ((diff**2).sum(axis=1)) ** 2
    return _mean_se(vals)


def derivative_ratio_constant(
    dist: TargetDistribution,
    gamma_knots,
    policy: str = "auto",
    *,
    n_samples: int = 100_000,
    seed=0,
) -> float:
    """Fitted constant max_gamma gamma^2 |mmse'(gamma)| / H^2 over the knots.

    Requires a FiniteDiscrete target with positive Shannon entropy; a point
    mass makes the ratio 0/0 and raises instead.
    """
    if not isinstance(dist, FiniteDiscrete):
        raise TypeError("derivative_ratio_constant requires a FiniteDiscrete target")
    H = shannon_entropy(dist)
    if H <= 0.0:
        raise ValueError("degenerate entropy: H = 0 (point mass), ratio undefined")
    knots = np.asarray(gamma_knots, dtype=float)
    if knots.size == 0 or np.any(knots <= 0) or not np.all(np.isfinite(knots)):
        raise ValueError("gamma_knots must be finite and positive")
    children = np.random.SeedSequence(seed).spawn(knots.size)
    best = 0.0
    for g, ss in zip(knots, children):
        dv, _ = mmse_derivative(dist, float(g), policy, n_samples=n_samples, seed=ss)
        best = max(best, float(g) ** 2 * abs(dv) / H**2)
    return best
