"""Independent oracles for the test suite.

Everything here is derived from first principles with plain Python and
numpy only; nothing imports from snrsched. Tests compare package output
against these routes, so a shared bug would have to be introduced twice.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# probabilists' Hermite nodes, frozen at import; 160 nodes is plenty for
# every integrand below (analytic, sub-Gaussian tails), and hermegauss
# weight computation overflows somewhere past ~250 nodes
_HERM_X, _HERM_W = np.polynomial.hermite_e.hermegauss(160)
_HERM_W = _HERM_W / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# schedule objectives and brute-force dynamic-program references


def eta_of(gamma, lam):
    return gamma / (1.0 + lam * lam * gamma)


def first_order_objective(gammas, risks, indices, lam):
    """sum_k (eta_{i_k} - eta_{i_{k-1}}) * L_{i_{k-1}}, plain float math."""
    terms = []
    for a, b in zip(indices, indices[1:]):
        terms.append((eta_of(gammas[b], lam) - eta_of(gammas[a], lam)) * risks[a])
    return math.fsum(terms)


def second_order_objective(gammas, risks, indices, lam, alpha):
    base = first_order_objective(gammas, risks, indices, lam)
    ell = [math.log(gammas[i]) for i in indices]
    h = [b - a for a, b in zip(ell, ell[1:])]
    return base + alpha * math.fsum((hb - ha) ** 2 for ha, hb in zip(h, h[1:]))


def brute_first_order(gammas, risks, K, lam):
    """Best (indices, objective) by exhaustive enumeration; endpoints pinned."""
    n = len(gammas)
    best_idx, best_val = None, math.inf
    for interior in itertools.combinations(range(1, n - 1), K - 1):
        idx = (0, *interior, n - 1)
        val = first_order_objective(gammas, risks, idx, lam)
        if val < best_val:
            best_idx, best_val = idx, val
    return best_idx, best_val


def first_order_dp(gammas, risks, K, lam):
    """Optimal first-order (indices, ties) by a plain stage-major DP.

    dp[k][j] is the cheapest path from index 0 to j in k steps. Stages
    1..K-1 fill the live band k <= j <= end - (K - k), and stage K fills
    only (K, end). Each cell sums ``dp + (eta_j - eta_i) * L_i`` in that
    float order and takes the first minimum, i.e. the smallest predecessor;
    ``ties`` counts the extra equal-cost predecessors over all filled cells.
    """
    n = len(gammas)
    end = n - 1
    eta = [eta_of(float(g), lam) for g in gammas]
    L = [float(r) for r in risks]
    dp = [[math.inf] * n for _ in range(K + 1)]
    par = [[-1] * n for _ in range(K + 1)]
    dp[0][0] = 0.0
    ties = 0
    for k in range(1, K + 1):
        for j in [end] if k == K else range(k, end - (K - k) + 1):
            costs = [dp[k - 1][i] + (eta[j] - eta[i]) * L[i] for i in range(j)]
            best = min(costs)
            dp[k][j] = best
            par[k][j] = costs.index(best)
            ties += costs.count(best) - 1
    indices = [end]
    for k in range(K, 0, -1):
        indices.append(par[k][indices[-1]])
    return tuple(reversed(indices)), ties


def brute_second_order(gammas, risks, K, lam, alpha):
    n = len(gammas)
    best_idx, best_val = None, math.inf
    for interior in itertools.combinations(range(1, n - 1), K - 1):
        idx = (0, *interior, n - 1)
        val = second_order_objective(gammas, risks, idx, lam, alpha)
        if val < best_val:
            best_idx, best_val = idx, val
    return best_idx, best_val


def pair_dp_optimum(gammas, risks, K, lam, alpha):
    """Optimal second-order objective by the unpruned DP over index pairs.

    V[a, b] is the cheapest path from index 0 whose last two indices are
    (a, b). Every pair is kept at every step, so after K steps the minimum
    over paths ending at n - 1 is the exact optimum. Each step builds an
    (n, n, n) tensor, which suits n up to a few hundred.
    """
    g = np.asarray(gammas, dtype=float)
    L = np.asarray(risks, dtype=float)
    n = g.size
    eta = eta_of(g, lam)
    later = np.arange(n)[:, None] < np.arange(n)[None, :]
    step = np.where(later, (eta[None, :] - eta[:, None]) * L[:, None], np.inf)
    h = np.log(g)[None, :] - np.log(g)[:, None]  # h[a, b] = log-SNR step a -> b
    curv = (h[None, :, :] - h[:, :, None]) ** 2  # curv[a, b, c] = (h[b, c] - h[a, b])^2
    V = np.full((n, n), np.inf)
    V[0] = step[0]
    for _ in range(K - 1):
        V = (V[:, :, None] + alpha * curv).min(axis=0) + step
    return float(V[:, -1].min())


def pair_dp(gammas, risks, K, lam, alpha):
    """Optimal second-order indices by a plain stage-major DP over index pairs.

    V[a][b] is the cheapest path from index 0 whose last step goes a -> b.
    Stage 1 fills (0, b) for b <= end - (K - 1). Stage k >= 2 extends each
    pair (a, b) to (b, c) with b < c <= end - (K - k), so stage K fills only
    c = end. Each cell sums ``V + (eta_c - eta_b) * L_b + alpha * dh^2``,
    dh = (ell_c - ell_b) - (ell_b - ell_a), in that float order and keeps the
    first minimum, i.e. the smallest a; the final pick over (b, end) keeps
    the smallest b. ell comes from np.log over the whole array, so it rounds
    as the package's does.
    """
    n = len(gammas)
    end = n - 1
    eta = [eta_of(float(g), lam) for g in gammas]
    ell = [float(x) for x in np.log(np.asarray(gammas, dtype=float))]
    L = [float(r) for r in risks]
    V = [[math.inf] * n for _ in range(n)]
    for b in range(1, end - (K - 1) + 1):
        V[0][b] = (eta[b] - eta[0]) * L[0]
    par = {}
    for k in range(2, K + 1):
        hi = end - (K - k)
        nxt = [[math.inf] * n for _ in range(n)]
        for b in range(k - 1, hi):
            for c in [end] if k == K else range(b + 1, hi + 1):
                step = (eta[c] - eta[b]) * L[b]
                for a in range(b):
                    dh = (ell[c] - ell[b]) - (ell[b] - ell[a])
                    cost = V[a][b] + step + alpha * (dh * dh)
                    if cost < nxt[b][c]:
                        nxt[b][c] = cost
                        par[k, b, c] = a
        V = nxt
    last = [V[b][end] for b in range(end)]
    b, c = last.index(min(last)), end
    indices = [end, b]
    for k in range(K, 1, -1):
        b, c = par[k, b, c], b
        indices.append(b)
    return tuple(reversed(indices))


def ratio_sum(gammas):
    """sum_k (Delta gamma_k / gamma_{k-1})^2, the grid-quality proxy."""
    return math.fsum(((b - a) / a) ** 2 for a, b in zip(gammas, gammas[1:]))


# ---------------------------------------------------------------------------
# single-Gaussian closed forms (prior N(mu, sigma0^2 I_d))


def gauss_mmse(sigma0, d, gamma):
    return d * sigma0**2 / (1.0 + sigma0**2 * gamma)


def gauss_mmse_integral(sigma0, d, lo, hi):
    return d * math.log((1.0 + sigma0**2 * hi) / (1.0 + sigma0**2 * lo))


def gauss_disc_error(sigma0, d, gammas):
    """Riemann overshoot: sum_k Delta gamma_k mmse(gamma_{k-1}) - integral."""
    riemann = math.fsum(
        (b - a) * gauss_mmse(sigma0, d, a) for a, b in zip(gammas, gammas[1:])
    )
    return riemann - gauss_mmse_integral(sigma0, d, gammas[0], gammas[-1])


# disc error of the sigma0=1, d=1 Gaussian on the grid [1, 2, 4]:
# sum = 1*(1/2) + 2*(1/3) = 7/6, integral = ln(5/2)
GAUSS_GRID_124_DISC = 7.0 / 6.0 - math.log(2.5)


def gauss_terminal_variance(sigma0, gammas):
    """Terminal variance (per axis) of the frozen-denoiser chain.

    Start at t = 1/gamma_0 with the exact forward marginal, variance
    sigma0^2 + t. Each interval applies Y -> a Y + rho (Y - a Y) + noise
    with a = sigma0^2/(sigma0^2 + t_prev), rho = t_next/t_prev, and noise
    variance t_next (t_prev - t_next) / t_prev.
    """
    t = [1.0 / g for g in gammas]
    v = sigma0**2 + t[0]
    for t_prev, t_next in zip(t, t[1:]):
        a = sigma0**2 / (sigma0**2 + t_prev)
        rho = t_next / t_prev
        gain = a + rho * (1.0 - a)
        v = gain * gain * v + t_next * (t_prev - t_next) / t_prev
    return v


# ---------------------------------------------------------------------------
# symmetric two-atom target at z = -1, +1 (d = 1, equal probabilities)


def two_atom_mmse(gamma):
    """1 - E tanh^2(X/t), X ~ (N(1, t) + N(-1, t))/2, by adaptive quadrature."""
    from scipy.integrate import quad

    t = 1.0 / gamma
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)

    def integrand(x):
        dens = 0.5 * norm * (
            math.exp(-((x - 1.0) ** 2) / (2.0 * t))
            + math.exp(-((x + 1.0) ** 2) / (2.0 * t))
        )
        return (1.0 - math.tanh(x / t) ** 2) * dens

    span = 1.0 + 12.0 * math.sqrt(t)
    val, _ = quad(integrand, -span, span, points=[-1.0, 0.0, 1.0],
                  limit=200, epsabs=1e-14, epsrel=1e-12)
    return val


def two_atom_fourth_moment(gamma):
    """E ||Z' - Z||^4 for an independent posterior redraw Z'.

    The only nonzero jump is |z - z'| = 2, with probability 2 r_+ r_- given
    X, and r_+ r_- = (1 - tanh^2(X/t))/4, so the moment is 8 * mmse(gamma).
    """
    return 8.0 * two_atom_mmse(gamma)


def central_diff(f, x, rel_h=1e-4):
    h = rel_h * x
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# discrete information quantities


def entropy_oracle(probs):
    return -math.fsum(p * math.log(p) for p in probs if p > 0)


def renyi_half_oracle(probs):
    return 2.0 * math.log(math.fsum(math.sqrt(p) for p in probs))


def surprisal_mgf(probs, lam):
    """M(lam) = E exp(lam (iota - H)) for the surprisal iota = -ln p."""
    H = entropy_oracle(probs)
    return math.fsum(p * math.exp(lam * (-math.log(p) - H)) for p in probs)


# ---------------------------------------------------------------------------
# Euler-Maruyama reference for the frozen-drift reverse transition

# dY = (c - Y)/(T - s) ds + dB on t = T - s in [t_next, t_prev]; the scheme
# is linear with Gaussian noise, so its mean and variance follow exact
# recursions and no sampling is needed to know its law.


def em_reverse_moments(t_prev, t_next, c, y0, substeps=10_000):
    ds = (t_prev - t_next) / substeps
    mean, var = y0, 0.0
    t = t_prev
    for _ in range(substeps):
        gain = 1.0 - ds / t
        mean = mean + (c - mean) / t * ds
        var = gain * gain * var + ds
        t -= ds
    return mean, var


# ---------------------------------------------------------------------------
# random instances


def random_candidates(rng, n, gamma_lo=0.5, gamma_hi=200.0):
    """Random strictly increasing gammas with iid uniform risks."""
    g = np.sort(rng.uniform(math.log(gamma_lo), math.log(gamma_hi), size=n))
    while np.any(np.diff(g) <= 1e-9):
        g = np.sort(rng.uniform(math.log(gamma_lo), math.log(gamma_hi), size=n))
    risks = rng.uniform(0.05, 2.0, size=n)
    return np.exp(g), risks


def random_probs(rng, n):
    w = rng.gamma(shape=0.6, scale=1.0, size=n) + 1e-12
    return w / w.sum()


def isotropic_mixture_log_density(weights, means, sigmas, x):
    """log sum_i w_i N(x; mu_i, sigma_i^2 I) for one point, in plain floats.

    The largest log-term is factored out before exponentiating, and the
    remaining sum is taken with math.fsum, so far-tail points stay finite.
    """
    d = len(x)
    terms = []
    for w, mu, s in zip(weights, means, sigmas):
        sq = math.fsum((xi - mi) ** 2 for xi, mi in zip(x, mu))
        terms.append(math.log(w) - 0.5 * sq / s**2 - 0.5 * d * math.log(2.0 * math.pi * s**2))
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def mixture_posterior_moments(weights, centers, variances, t, x):
    """Posterior of Z given X_t = Z + sqrt(t) xi = x for an isotropic mixture.

    Component i is N(centers[i], variances[i] I); a zero variance is an atom.
    Component probabilities are proportional to w_i N(x; c_i, (v_i + t) I),
    and given component i the posterior is conjugate,
    N((v_i x + t c_i) / (v_i + t), v_i t / (v_i + t) I). The law of total
    covariance assembles Cov(Z | x) one component at a time.
    Returns (probs, mean, tr Cov, tr Cov^2).
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    logp = []
    for w, c, v in zip(weights, centers, variances):
        s2 = v + t
        sq = math.fsum((xi - ci) ** 2 for xi, ci in zip(x, c))
        logp.append(math.log(w) - 0.5 * sq / s2 - 0.5 * d * math.log(2.0 * math.pi * s2))
    top = max(logp)
    unnorm = [math.exp(a - top) for a in logp]
    total = math.fsum(unnorm)
    probs = np.array([u / total for u in unnorm])
    means = [(v * x + t * np.asarray(c, dtype=float)) / (v + t) for c, v in zip(centers, variances)]
    mean = np.zeros(d)
    for p, mu in zip(probs, means):
        mean += p * mu
    cov = np.zeros((d, d))
    for p, mu, v in zip(probs, means, variances):
        dev = mu - mean
        cov += p * (v * t / (v + t) * np.eye(d) + np.outer(dev, dev))
    return probs, mean, float(np.trace(cov)), float((cov * cov).sum())
