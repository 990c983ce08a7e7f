"""Independent oracles for the test suite.

Everything here is derived from first principles with plain Python and
numpy only; nothing imports from snrsched. Tests compare package output
against these routes, so a shared bug would have to be introduced twice.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def first_order_table(gammas, risks, K, lam):
    """Tables (dp, par, extra) of a plain stage-major first-order DP.

    dp[k][j] is the cheapest path from index 0 to j in k steps. Stages
    1..K-1 fill the live band k <= j <= end - (K - k), and stage K fills
    only (K, end). Each cell sums ``dp + (eta_j - eta_i) * L_i`` in that
    float order and takes the first minimum, i.e. the smallest predecessor
    par[k][j]; extra[k][j] counts its other equal-cost predecessors.
    """
    n = len(gammas)
    end = n - 1
    eta = [eta_of(float(g), lam) for g in gammas]
    L = [float(r) for r in risks]
    dp = [[math.inf] * n for _ in range(K + 1)]
    par = [[-1] * n for _ in range(K + 1)]
    extra = [[0] * n for _ in range(K + 1)]
    dp[0][0] = 0.0
    for k in range(1, K + 1):
        for j in [end] if k == K else range(k, end - (K - k) + 1):
            costs = [dp[k - 1][i] + (eta[j] - eta[i]) * L[i] for i in range(j)]
            best = min(costs)
            dp[k][j] = best
            par[k][j] = costs.index(best)
            extra[k][j] = costs.count(best) - 1
    return dp, par, extra


def first_order_dp(gammas, risks, K, lam):
    """Optimal first-order (indices, ties) by :func:`first_order_table`."""
    _, par, extra = first_order_table(gammas, risks, K, lam)
    return first_order_path(par, extra)


def first_order_path(par, extra):
    """(indices, ties) read back from :func:`first_order_table`'s par, extra.

    ``ties`` sums the extra equal-cost predecessors of the K cells on the
    traceback, the path that takes the smallest predecessor at each step.
    """
    K, n = len(par) - 1, len(par[0])
    indices, ties = [n - 1], 0
    for k in range(K, 0, -1):
        ties += extra[k][indices[-1]]
        indices.append(par[k][indices[-1]])
    return tuple(reversed(indices)), ties


def dp_minimal_paths(gammas, risks, K, lam):
    """Number of index paths that take a DP minimum at every step.

    Enumerates every 0 = i_0 < ... < i_K = n - 1 and keeps those whose every
    step has ``dp[k - 1][i_{k-1}] + (eta_{i_k} - eta_{i_{k-1}}) * L_{i_{k-1}}``
    equal to ``dp[k][i_k]``, with dp from :func:`first_order_table` and the
    sum in its float order.
    """
    n = len(gammas)
    dp, _, _ = first_order_table(gammas, risks, K, lam)
    eta = [eta_of(float(g), lam) for g in gammas]
    L = [float(r) for r in risks]
    count = 0
    for interior in itertools.combinations(range(1, n - 1), K - 1):
        idx = (0, *interior, n - 1)
        count += all(
            dp[k - 1][a] + (eta[b] - eta[a]) * L[a] == dp[k][b]
            for k, (a, b) in enumerate(zip(idx, idx[1:]), start=1)
        )
    return count


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


def exact_shared_variance_posterior(weights, centers, s2, x):
    """Component posterior at one point x when every component has variance s2.

    The squared distances |x - c_i|^2 are exact rationals, and the
    log-weights log w_i - |x - c_i|^2 / (2 s2) are taken relative to the
    nearest center's, so no rounding of the inputs' floats is amplified by
    1 / s2, whatever the size of x or the smallness of s2. Returns
    (probs, sq_gap), sq_gap the exact margin of the second smallest squared
    distance over the smallest (inf for one component).
    """
    xs = [Fraction(float(v)) for v in x]
    sq = [sum((xi - Fraction(float(ci))) ** 2 for xi, ci in zip(xs, c)) for c in centers]
    near = min(sq)
    den = 2 * Fraction(float(s2))
    rel = [(near - q) / den for q in sq]
    logp = [math.log(w) + (float(r) if r > -(10**308) else -math.inf) for w, r in zip(weights, rel)]
    best = max(logp)
    unnorm = [math.exp(a - best) for a in logp]
    total = math.fsum(unnorm)
    sq_gap = float(sorted(sq)[1] - near) if len(sq) > 1 else math.inf
    return np.array([u / total for u in unnorm]), sq_gap


# ---------------------------------------------------------------------------
# posterior kernels that derive every x-free term inside the call, in the
# package's float order: a bit-for-bit reference for kernels that build
# those terms once per (target, t)


def per_call_logits(weights, centers, s2, XT):
    """(n, m) logits log w_i - |x - c_i|^2 / (2 s2_i) - (d/2) log s2_i at the columns of XT."""
    mu = weights @ centers
    Xc = XT - mu[:, None]
    Cc = centers - mu
    sq = (-2.0 * Cc) @ Xc
    sq += np.einsum("dm,dm->m", Xc, Xc, order="F")
    sq += np.einsum("nd,nd->n", Cc, Cc)[:, None]
    np.maximum(sq, 0.0, out=sq)
    sq *= (-0.5 / s2)[:, None]
    sq += (np.log(weights) - 0.5 * centers.shape[1] * np.log(s2))[:, None]
    return sq


def per_call_numerators(weights, centers, variances, t, XT):
    """(n, m) softmax numerators of the component posterior at the columns of XT.

    Under X_t = Z + sqrt(t) xi: the general softmax of :func:`per_call_logits`,
    or, when every component has one variance, the shared-variance softmax:
    (c~.x~ - |c~|^2 / 2) shifted by its column max, scaled by 1/s2 (divided
    by s2 where 1/s2 overflows), plus log w; exponentiated, not normalized.
    """
    if np.any(variances != variances[0]):
        r = per_call_logits(weights, centers, variances + t, XT)
        r -= r.max(axis=0)
    else:
        s2 = variances[0] + t
        mu = weights @ centers
        Cc = centers - mu
        r = Cc @ (XT - mu[:, None])
        r -= 0.5 * np.einsum("nd,nd->n", Cc, Cc)[:, None]
        r -= r.max(axis=0)
        with np.errstate(over="ignore"):
            if math.isfinite(1.0 / s2):
                r *= 1.0 / s2
            else:
                r /= s2
        r += np.log(weights)[:, None]
    np.exp(r, out=r)
    return r


def per_call_responsibilities(weights, centers, variances, t, XT):
    """(n, m) component posterior at the columns of XT: the numerators over their column sums."""
    r = per_call_numerators(weights, centers, variances, t, XT)
    r /= r.sum(axis=0)
    return r


def per_call_posterior_mean(weights, centers, variances, t, X):
    """Posterior mean at the rows of X (one block), shape (m, d), in X's memory order.

    One product of W = [(t / s2) c^T; a; 1] with the numerators p gives
    M = [sum p_i b_i; a.p; sum p_i], and the mean is (M[d] x + M[:d]) / M[d + 1].
    """
    d = centers.shape[1]
    s2 = variances + t
    W = np.vstack([((t / s2)[:, None] * centers).T, variances / s2, np.ones(len(weights))])
    out = np.empty_like(X)
    XT, block = X.T, out.T
    M = W @ per_call_numerators(weights, centers, variances, t, XT)
    np.multiply(M[d], XT, out=block)
    block += M[:d]
    block /= M[d + 1]
    return out


def per_call_cov_stats(weights, centers, variances, t, XT):
    """(tr Cov, tr Cov^2) at the columns of XT (one block), from pair distances.

    The conjugate means a_i x~ + e_i, with a_i = v_i / s2_i and
    e_i = (t / s2_i) c~_i, have squared pair distances D_ij. With p the
    softmax numerators and S their sum, one product of W = [E; a t; 1] with p
    gives M = [E p; (a t).p; S], the x terms of D p are added to M[:n] when
    the a_i differ, and tr Cov = ((1/2) p.(D p) / S + d (a t).p) / S. With
    r = p / S: tr S^2 = (1/4) sum_ij r_i r_j (D_ij - u_i - u_j)^2 with
    u = D r - r.(D r) / 2, and tau = sum_i r_i a_i t adds tau (r.D r + d tau).
    """
    n, d = centers.shape
    p = per_call_numerators(weights, centers, variances, t, XT)
    s2 = variances + t
    a = variances / s2
    mu = weights @ centers
    e = (t / s2)[:, None] * (centers - mu)
    E = np.stack([np.einsum("nd,nd->n", e - ei, e - ei) for ei in e])
    M = np.vstack([E, a * t, np.ones(n)]) @ p
    tilted = np.any(a != a[0])
    if tilted:
        Xc = XT - mu[:, None]
        xx = np.einsum("dm,dm->m", Xc, Xc, order="F")
        P = e @ Xc
        g = a[:, None] - a[None, :]
        M[:n] += xx * ((g * g) @ p) + 2.0 * (P * (g @ p) - g @ (p * P))
    S = M[n + 1]
    trace = (0.5 * np.einsum("im,im->m", p, M[:n]) / S + d * M[n]) / S
    r, Dr, tau = p / S, M[:n] / S, M[n] / S
    rDr = np.einsum("im,im->m", r, Dr)
    u = Dr - 0.5 * rDr
    if tilted:
        B2 = g[:, :, None] * xx
        B2 += 2.0 * P[:, None, :]
        B2 -= 2.0 * P[None, :, :]
        B2 *= g[:, :, None]
        B2 += E[:, :, None]
        B2 -= u[:, None, :]
    else:
        B2 = E[:, :, None] - u[:, None, :]
    B2 -= u[None, :, :]
    B2 *= B2
    spread_sq = 0.25 * np.einsum("im,im->m", r, np.einsum("ijm,jm->im", B2, r))
    return trace, spread_sq + tau * (rDr + d * tau)


# ---------------------------------------------------------------------------
# pathwise (Girsanov) KL of the frozen-denoiser reverse process by Monte Carlo

_PATH_CHUNK = 20_000


def _mixture_denoiser(weights, centers, variances, t, X):
    """Posterior mean of Z at the rows of X = Z + sqrt(t) xi, one component at a time.

    Component i has probability proportional to w_i N(x; c_i, (v_i + t) I)
    and conjugate mean (v_i x + t c_i) / (v_i + t); the probabilities are
    normalized after subtracting their largest log.
    """
    d = X.shape[1]
    logp = np.stack([
        math.log(w) - 0.5 * ((X - c) ** 2).sum(axis=1) / (v + t) - 0.5 * d * math.log(v + t)
        for w, c, v in zip(weights, centers, variances)
    ])
    logp -= logp.max(axis=0)
    p = np.exp(logp)
    p /= p.sum(axis=0)
    return sum(
        pi[:, None] * ((v / (v + t)) * X + (t / (v + t)) * c)
        for pi, c, v in zip(p, centers, variances)
    )


def pathwise_kl(weights, centers, variances, gammas, n_paths, substeps, seed):
    """(1/2) E int ||delta_s||^2 ds for the mixture sum_i w_i N(c_i, v_i I); (value, stderr).

    delta_s = (m_t(Y) - m_{t_{k-1}}(Y_{s_{k-1}})) / t is the drift gap between
    the exact reverse process and the one whose denoiser m is frozen at the
    start of each SNR interval, at reverse time s = T - t, T = 1/gamma_0. The
    estimate converges to E_disc / 2. Each path draws Z from the mixture and
    starts at Z + sqrt(T) xi; given Z the exact reverse path is the Brownian
    bridge to Z, so from t to t' < t it moves to
    Z + (t'/t)(Y - Z) + sqrt(t' (t - t') / t) xi. Every interval is cut into
    ``substeps`` equal steps of s, and the time integral is the trapezoid
    rule, whose left term is 0. Paths run in chunks of 20,000 on seeds
    spawned from SeedSequence(seed); per chunk the draws are the components,
    the component noise (only when a variance is positive), the starting
    noise, then one (m, d) standard normal array per substep.
    """
    w = np.asarray(weights, dtype=float)
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    v = np.asarray(variances, dtype=float)
    g = np.asarray(gammas, dtype=float)
    T = 1.0 / g[0]
    s_knots = T - 1.0 / g
    totals = []
    seeds = np.random.SeedSequence(seed).spawn(-(-n_paths // _PATH_CHUNK))
    for i, ss in enumerate(seeds):
        m = min(_PATH_CHUNK, n_paths - i * _PATH_CHUNK)
        rng = np.random.default_rng(ss)
        idx = rng.choice(w.size, size=m, p=w)
        Z = c[idx]
        if np.any(v > 0):
            Z = Z + np.sqrt(v[idx])[:, None] * rng.standard_normal(Z.shape)
        Y = Z + math.sqrt(T) * rng.standard_normal(Z.shape)
        t = T
        acc = np.zeros(m)
        for k in range(1, g.size):
            ds = (s_knots[k] - s_knots[k - 1]) / substeps
            frozen = _mixture_denoiser(w, c, v, t, Y)
            for j in range(1, substeps + 1):
                t_next = T - (s_knots[k - 1] + j * ds)
                xi = rng.standard_normal(Y.shape)
                Y = Z + (t_next / t) * (Y - Z) + math.sqrt(t_next * (t - t_next) / t) * xi
                t = t_next
                gap = ((_mixture_denoiser(w, c, v, t, Y) - frozen) ** 2).sum(axis=1) / t**2
                acc += (0.5 if j == substeps else 1.0) * ds * gap
        totals.append(acc)
    totals = np.concatenate(totals)
    se = totals.std(ddof=1) / math.sqrt(totals.size) if totals.size > 1 else 0.0
    return 0.5 * float(totals.mean()), 0.5 * float(se)
