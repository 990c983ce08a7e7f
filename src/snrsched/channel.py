"""Exact Bayes machinery for the additive Gaussian channel X_t = Z + sqrt(t) xi.

For tractable targets (finite discrete supports and isotropic Gaussian
mixtures) the posterior over atoms/components given a noisy observation is
available in closed form, and with it the posterior mean (the ideal
denoiser), the posterior covariance, and the MMSE curve

    mmse(gamma) = E || Z - m_{1/gamma}(X_{1/gamma}) ||^2,   gamma = 1/t,

together with its derivative, via the identity

    -mmse'(gamma) = E[ tr( Cov(Z | X_{1/gamma})^2 ) ].

The area under the curve comes from the I-MMSE identity (Guo, Shamai and
Verdu 2005), dI/dgamma = mmse(gamma)/2 with I the mutual information
I(Z; X_{1/gamma}), so the integral of mmse over [gamma_0, gamma_1] is
2 (I(gamma_1) - I(gamma_0)). I(0) = 0, and for a discrete target
I(inf) = H, its Shannon entropy, so the integral over all SNR is 2H.

A finite discrete target is treated as the isotropic mixture whose components
have zero variance, so one posterior kernel serves both target families. The
component posterior is the softmax of the logits of
:func:`snrsched.targets._component_logits`, which ``GaussianMixture.log_prob``
also sums: each squared distance |x - c_i|^2 comes from one matrix product,
|x|^2 - 2 x.c_i + |c_i|^2, so no (m, n, d) array is built at any dimension.
That expansion cancels terms of size |x|^2 and |c_i|^2 to leave a small
distance, so its rounding error scales with them; both x and the centers are
centered on the weighted center mean first, which bounds the error by the
centers' spread instead of their distance from the origin (atoms near
1e3 + N(0, I) would otherwise lose ~1e-9 in the posterior mean).

Three evaluation policies are provided and cross-checked against each other:
closed form (single Gaussian component), Gauss-Hermite quadrature (exact up
to quadrature error for dim <= 2), and Monte Carlo with reported standard
errors. Posterior weights are always normalized in the log domain with the
maximum subtracted first, so no overflow can occur at any SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .targets import (
    FiniteDiscrete,
    GaussianMixture,
    TargetDistribution,
    _component_logits,
    shannon_entropy,
)

__all__ = [
    "posterior_mean",
    "posterior_cov_stats",
    "mmse",
    "mmse_derivative",
    "MmseCurve",
    "posterior_fourth_moment",
    "derivative_ratio_constant",
]

_CHUNK = 65536


def _components(dist: TargetDistribution):
    """(weights, centers, variances) of ``dist`` as an isotropic mixture.

    A finite discrete target is the mixture whose components have zero
    variance, so every kernel below serves both target families.
    """
    if isinstance(dist, FiniteDiscrete):
        return dist.probs, dist.points, np.zeros(dist.n_atoms)
    return dist.weights, dist.means, dist.sigmas**2


def _responsibilities(comps, t: float, X: np.ndarray) -> np.ndarray:
    """Posterior component probabilities, shape (m, n), normalized in the log domain.

    The softmax over components of :func:`_component_logits` with
    s2_i = v_i + t, the variance of X_t given component i; the largest logit
    is subtracted before exponentiating. Rejects a noise scale ``t`` that is
    not positive and finite, for which the weights would be nan or silently
    wrong.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"noise scale t must be positive and finite, got {t!r}")
    weights, centers, variances = comps
    r = _component_logits(weights, centers, variances + t, X)
    r -= r.max(axis=1, keepdims=True)
    np.exp(r, out=r)
    r /= r.sum(axis=1, keepdims=True)
    return r


def posterior_mean(dist: TargetDistribution, t: float, X) -> np.ndarray:
    """Ideal denoiser m_t evaluated at a batch of points, shape (m, d).

    The responsibility-weighted conjugate means, sum_i r_i (v_i x + t c_i) / s2_i,
    taken as two matrix products so no (m, n, d) tensor is built. Raises
    ValueError unless ``t`` is positive and finite.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    comps = _components(dist)
    r = _responsibilities(comps, t, X)
    _, centers, variances = comps
    s2 = variances + t
    return (r @ (variances / s2))[:, None] * X + r @ ((t / s2)[:, None] * centers)


def posterior_cov_stats(dist: TargetDistribution, t: float, X):
    """Batched posterior covariance summaries.

    Cov is the spread of the conjugate per-component posterior means plus the
    mean within-component variance v_i t / s2_i (law of total covariance).
    Raises ValueError unless ``t`` is positive and finite.

    Returns
    -------
    trace : (m,) array of tr Cov(Z | X_t = x).
    frob_sq : (m,) array of tr( Cov(Z | X_t = x)^2 ).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    comps = _components(dist)
    r = _responsibilities(comps, t, X)
    _, centers, variances = comps
    s2 = variances + t
    shrink = (variances / s2)[None, :, None]
    comp_mean = shrink * X[:, None, :] + (t / s2)[None, :, None] * centers[None, :, :]
    mean = np.einsum("mi,mid->md", r, comp_mean)
    centered = comp_mean - mean[:, None, :]
    cov = np.einsum("mi,mia,mib->mab", r, centered, centered)
    idx = np.arange(X.shape[1])
    cov[:, idx, idx] += (r @ (variances * t / s2))[:, None]
    trace = np.einsum("maa->m", cov)
    frob_sq = np.einsum("mab,mab->m", cov, cov)
    return trace, frob_sq


@lru_cache(maxsize=None)
def _standard_normal_nodes(d: int):
    """Read-only tensor Gauss-Hermite (offsets, weights) for N(0, I_d), built once per d."""
    u, w1 = np.polynomial.hermite_e.hermegauss(200 if d == 1 else 96)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    if d == 1:
        offsets, qw = u[:, None], w1
    else:
        ua, ub = np.meshgrid(u, u, indexing="ij")
        offsets = np.stack([ua.ravel(), ub.ravel()], axis=1)
        qw = np.outer(w1, w1).ravel()
    offsets.flags.writeable = qw.flags.writeable = False
    return offsets, qw


def _quad_expect(dist: TargetDistribution, t: float, f):
    """(E f_k(X), 0.0) pairs under X ~ p_t by tensor Gauss-Hermite, dim <= 2.

    ``f`` maps a batch X to a tuple of per-row arrays f_k(X). Uses 200 nodes
    per axis in 1-d and a 96 x 96 tensor grid in 2-d per component of p_t.
    """
    d = dist.dim
    if d > 2:
        raise ValueError("quadrature policy supports dim <= 2 only")
    offsets, qw = _standard_normal_nodes(d)
    probs, centers, variances = _components(dist)
    acc = 0.0
    for c, s, p in zip(centers, np.sqrt(variances + t), probs):
        acc = acc + p * np.array([qw @ v for v in f(c[None, :] + s * offsets)])
    return tuple((float(a), 0.0) for a in acc)


def _mean_se(v: np.ndarray):
    """Sample mean and its standard error (0 for a single sample)."""
    se = v.std(ddof=1) / math.sqrt(v.size) if v.size > 1 else 0.0
    return float(v.mean()), float(se)


def _mc_expect(dist: TargetDistribution, t: float, f, n_samples: int, seed):
    """Monte-Carlo (E f_k(X), stderr) pairs under X ~ p_t; ``f`` as in :func:`_quad_expect`."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    chunks = []
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        Z = dist.sample(m, rng)
        X = Z + math.sqrt(t) * rng.standard_normal(Z.shape)
        chunks.append(f(X))
    return tuple(_mean_se(np.concatenate(col)) for col in zip(*chunks))


def _is_single_gaussian(dist) -> bool:
    return isinstance(dist, GaussianMixture) and dist.n_components == 1


def _resolve_policy(dist, policy: str, gamma: float) -> str:
    """The concrete policy for ``dist`` at SNR ``gamma``; rejects bad input."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if policy == "auto":
        if _is_single_gaussian(dist):
            return "closed_form"
        if dist.dim <= 2:
            return "quadrature"
        return "monte_carlo"
    if policy not in ("closed_form", "quadrature", "monte_carlo"):
        raise ValueError(f"unknown evaluation policy {policy!r}")
    if policy == "closed_form" and not _is_single_gaussian(dist):
        raise ValueError("closed_form policy applies to single-Gaussian targets only")
    return policy


def _cov_expect(dist: TargetDistribution, gamma: float, policy: str, n_samples: int, seed):
    """((E tr Cov, stderr), (E tr Cov^2, stderr)) at t = 1/gamma under ``policy``.

    Both moments come from one evaluation; stderrs are 0 for the closed_form
    and quadrature policies.
    """
    pol = _resolve_policy(dist, policy, gamma)
    if pol == "closed_form":
        s0sq = float(dist.sigmas[0] ** 2)
        tr = dist.dim * s0sq / (1.0 + s0sq * gamma)
        return (tr, 0.0), (dist.dim * (s0sq / (1.0 + s0sq * gamma)) ** 2, 0.0)
    t = 1.0 / gamma
    f = lambda X: posterior_cov_stats(dist, t, X)
    if pol == "quadrature":
        return _quad_expect(dist, t, f)
    return _mc_expect(dist, t, f, n_samples, seed)


def _info(dist: TargetDistribution, gamma: float, policy: str, n_samples: int, seed):
    """Mutual information I(Z; X_{1/gamma}) in nats; returns (value, stderr).

    X_t has the density p_t = sum_i w_i N(c_i, (v_i + t) I), so
    I = h(X_t) - h(X_t | Z) = -E log p_t(X_t) - (d/2) log(2 pi e t).
    """
    pol = _resolve_policy(dist, policy, gamma)
    if pol == "closed_form":
        return 0.5 * dist.dim * math.log1p(float(dist.sigmas[0] ** 2) * gamma), 0.0
    t = 1.0 / gamma
    weights, centers, variances = _components(dist)
    p_t = GaussianMixture(weights, centers, np.sqrt(variances + t))
    f = lambda X: (p_t.log_prob(X),)
    if pol == "quadrature":
        ((log_p, se),) = _quad_expect(dist, t, f)
    else:
        ((log_p, se),) = _mc_expect(dist, t, f, n_samples, seed)
    return -log_p - 0.5 * dist.dim * math.log(2.0 * math.pi * math.e * t), se


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


@dataclass(frozen=True)
class MmseCurve:
    """Evaluable mmse curve for one target under a fixed evaluation policy.

    ``policy`` is "auto", "closed_form", "quadrature" or "monte_carlo";
    "auto" picks closed form for a single Gaussian, quadrature for dim <= 2
    and Monte Carlo otherwise. :meth:`mmse` remembers its value at each gamma,
    since every evaluation at one gamma uses the same seed and gives the same
    result; the curve is frozen so that memo cannot go stale.
    """

    dist: TargetDistribution
    policy: str = "auto"
    n_samples: int = 200_000
    seed: int = 0
    _mmse_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mmse(self, gamma: float):
        key = float(gamma)
        if key not in self._mmse_memo:
            self._mmse_memo[key] = mmse(
                self.dist, gamma, self.policy, n_samples=self.n_samples, seed=self.seed
            )
        return self._mmse_memo[key]

    def tabulate(self, gammas) -> list:
        """(gamma, mmse, mmse_stderr, dmmse, dmmse_stderr) tuples, one per gamma."""
        out = []
        for g in np.asarray(gammas, dtype=float):
            (v, se), (fr, fse) = _cov_expect(self.dist, g, self.policy, self.n_samples, self.seed)
            out.append((float(g), v, se, -fr, fse))
        return out

    def integral(self, gamma_lo: float, gamma_hi: float) -> float:
        """Integral of mmse over [gamma_lo, gamma_hi] by the I-MMSE identity.

        2 (I(gamma_hi) - I(gamma_lo)), since dI/dgamma = mmse/2 (see the module
        docstring). Exact under "closed_form". Under "quadrature" each I is one
        Gauss-Hermite pass over log p_t, within 1.3e-7 of a dense-grid reference
        on the bundled circle8 and grid8 toys (sampled over gamma in [1, 1000]),
        so the integral is within 1e-6 relative once it exceeds 0.52. Under
        "monte_carlo" both ends share the curve's seed and the result carries
        the noise of two I estimates.
        """
        if not 0 < gamma_lo < gamma_hi:
            raise ValueError("need 0 < gamma_lo < gamma_hi")
        lo, _ = _info(self.dist, gamma_lo, self.policy, self.n_samples, self.seed)
        hi, _ = _info(self.dist, gamma_hi, self.policy, self.n_samples, self.seed)
        return 2.0 * (hi - lo)


def posterior_fourth_moment(dist: TargetDistribution, t: float, n_samples: int, seed):
    """Monte-Carlo estimate of E ||Z' - Z||^4 for an independent posterior draw Z'.

    Given X = Z + sqrt(t) xi, Z and Z' are independent draws from the
    posterior w(X) over atoms, so the moment is the conditional form
    E_X sum_ij w_i(X) w_j(X) |z_i - z_j|^4, which :func:`_mc_expect`
    averages over X. Finite discrete targets only. Returns (value, stderr).
    """
    if not isinstance(dist, FiniteDiscrete):
        raise TypeError("posterior_fourth_moment requires a FiniteDiscrete target")
    if not t > 0:
        raise ValueError("t must be positive")
    z = dist.points
    d4 = (((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)) ** 2
    comps = _components(dist)

    def f(X):
        w = _responsibilities(comps, t, X)
        return (((w @ d4) * w).sum(axis=1),)

    return _mc_expect(dist, t, f, n_samples, seed)[0]


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
