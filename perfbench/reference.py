"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports snrsched: every quantity the CLI reports is recomputed
from the generated inputs by a separate route, so a check can catch a wrong
answer as well as a slow one.
"""

from __future__ import annotations

import math

import numpy as np


def circle8():
    """The circle8 toy as (weights, means, sigmas): weights (8, ..., 1)/36,
    means on a radius-4 circle at angles 2 pi j / 8, sigma0 = 0.25."""
    weights = np.arange(8, 0, -1) / 36.0
    ang = 2.0 * np.pi * np.arange(8) / 8.0
    means = 4.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return weights, means, np.full(8, 0.25)


def eta(gamma, lam: float):
    """Regularized SNR axis gamma / (1 + lambda^2 gamma)."""
    return gamma / (1.0 + lam * lam * gamma)


# ---------------------------------------------------------------------------
# densities and MMSE


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=1, keepdims=True)))[:, 0]


def gmm_log_density(weights, means, sigmas, X, chunk: int = 8192) -> np.ndarray:
    """log sum_i w_i N(x; mu_i, sigma_i^2 I) for each row of X."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    var = sigmas**2
    const = np.log(weights) - 0.5 * d * np.log(2.0 * np.pi * var)
    mu_sq = (means**2).sum(axis=1)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], chunk):
        x = X[lo : lo + chunk]
        sq = (x**2).sum(axis=1)[:, None] - 2.0 * x @ means.T + mu_sq[None, :]
        out[lo : lo + chunk] = _logsumexp_rows(const[None, :] - 0.5 * sq / var[None, :])
    return out


def _hermite_2d(nodes: int):
    """Tensor Gauss-Hermite rule for E f(xi), xi ~ N(0, I_2)."""
    u, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    a, b = np.meshgrid(u, u, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1), np.outer(w, w).ravel()


def gmm_mmse_2d(weights, means, sigmas, gamma: float, nodes: int = 112) -> float:
    """mmse(gamma) = E tr Cov(Z | X_t), t = 1/gamma, for a 2-d isotropic GMM.

    X ~ p_t is a mixture of N(mu_i, (sigma_i^2 + t) I); each component is
    integrated with a tensor Gauss-Hermite rule around its own centre. Given
    X, Cov(Z | X) is the spread of the per-component posterior means plus
    the within-component variance sigma_i^2 t / (sigma_i^2 + t) per axis.
    """
    t = 1.0 / gamma
    offs, qw = _hermite_2d(nodes)
    s2 = sigmas**2 + t
    scale = np.sqrt(s2)
    # quadrature points of every component, flattened to (c * q, 1) per axis
    x = (means[:, 0, None] + scale[:, None] * offs[None, :, 0]).ravel()[:, None]
    y = (means[:, 1, None] + scale[:, None] * offs[None, :, 1]).ravel()[:, None]
    logr = np.log(weights / s2) - 0.5 * ((x - means[:, 0]) ** 2 + (y - means[:, 1]) ** 2) / s2
    logr -= logr.max(axis=1, keepdims=True)
    r = np.exp(logr)
    r /= r.sum(axis=1, keepdims=True)
    shrink, pull = sigmas**2 / s2, t / s2
    cx = shrink * x + pull * means[:, 0]
    cy = shrink * y + pull * means[:, 1]
    px = (r * cx).sum(axis=1, keepdims=True)
    py = (r * cy).sum(axis=1, keepdims=True)
    spread = (r * ((cx - px) ** 2 + (cy - py) ** 2)).sum(axis=1)
    within = 2.0 * (r @ (sigmas**2 * pull))
    per_point = (spread + within).reshape(means.shape[0], -1)
    return float(weights @ (per_point @ qw))


def integral_log_axis(f, lo: float, hi: float, panels: int = 48, order: int = 12) -> float:
    """Integral of f(gamma) over [lo, hi] by composite Gauss-Legendre in log gamma."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.log(lo), math.log(hi), panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        us = 0.5 * (a + b) + half * x
        total += half * sum(wi * f(math.exp(u)) * math.exp(u) for wi, u in zip(w, us))
    return total


def x0_risk(gammas, losses, kinds, at) -> np.ndarray:
    """x0 risk at ``at``: eps rows divided by gamma, then log-linear interpolation."""
    x0 = np.array([lo / g if k == "eps" else lo for g, lo, k in zip(gammas, losses, kinds)])
    return np.interp(np.log(at), np.log(gammas), x0)


# ---------------------------------------------------------------------------
# schedule optima


def first_order_optimum(eta_c: np.ndarray, L: np.ndarray, K: int, block: int = 512) -> float:
    """min over 0 = i_0 < ... < i_K = n-1 of sum_k (eta_{i_k} - eta_{i_{k-1}}) L_{i_{k-1}}.

    Stage k holds the best cost of reaching each index in k steps. The
    transition cost eta_j L_i - eta_i L_i is a line in eta_j, so each stage
    is a masked (i, j) min taken one column block at a time.
    """
    n = eta_c.size
    cost = np.full(n, np.inf)
    cost[0] = 0.0
    idx = np.arange(n)
    for _ in range(K):
        intercept = cost - eta_c * L
        nxt = np.full(n, np.inf)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            cols = idx[lo:hi]
            # only rows i < hi can precede a column in this block
            m = intercept[:hi, None] + L[:hi, None] * eta_c[None, cols]
            m[idx[:hi, None] >= cols[None, :]] = np.inf
            nxt[lo:hi] = m.min(axis=0)
        cost = nxt
    return float(cost[-1])


def second_order_optimum(eta_c, ell, L, K: int, alpha: float) -> float:
    """Unpruned pair DP for the smoothness-penalized objective.

    V[a, b] is the best cost of a path whose last two indices are (a, b);
    every pair is kept, so the result is the exact optimum over all
    strictly increasing index paths from 0 to n-1 with K steps.
    """
    n = eta_c.size
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    V = np.full((n, n), np.inf)
    V[0, 1:] = (eta_c[1:] - eta_c[0]) * L[0]
    # step[b, c] = first-order cost of the move b -> c; curvature[a, b, c]
    step = np.where(upper, (eta_c[None, :] - eta_c[:, None]) * L[:, None], np.inf)
    curv = (ell[None, None, :] - 2.0 * ell[None, :, None] + ell[:, None, None]) ** 2
    for _ in range(K - 1):
        V = (V[:, :, None] + alpha * curv).min(axis=0) + step
    return float(V[:, -1].min())


def objective_plain(gammas, risks, indices, lam: float, alpha: float) -> float:
    """Objective of an index path recomputed with Python floats, term by term."""
    e = [g / (1.0 + lam * lam * g) for g in (gammas[i] for i in indices)]
    ell = [math.log(gammas[i]) for i in indices]
    total = 0.0
    for k in range(1, len(indices)):
        total += (e[k] - e[k - 1]) * risks[indices[k - 1]]
    if alpha:
        for k in range(2, len(indices)):
            total += alpha * ((ell[k] - ell[k - 1]) - (ell[k - 1] - ell[k - 2])) ** 2
    return total
