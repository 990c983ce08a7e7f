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
I(inf) = H, its Shannon entropy, so the integral over all SNR is 2H; I takes
the conditional-entropy form of :func:`_info`, which cancels at no SNR.

A finite discrete target is treated as the isotropic mixture whose components
have zero variance, so one posterior kernel serves both target families. The
component posterior is the softmax of the logits of
:func:`snrsched.targets._component_logits`, which ``GaussianMixture.log_prob``
also sums: each |x - c_i|^2 comes from one matrix product, with x and the
centers first centered on the weighted center mean, so no (m, n, d) array is
built and the rounding scales with the centers' spread.

Both covariance moments come from the squared pair distances of the
per-component conjugate posterior means (:func:`_pair_spread`), which do not
cancel at high SNR; no array of size m n d, m d^2 or n^2 d is built.

Every term of these kernels that does not depend on x (the weighted center
mean, log w, 1/s2, the conjugate-mean offsets, the (n, n) pair table) is
built once per (target, t) by :class:`_KernelTable`, which each public
kernel and oracle call builds once and every row block and quadrature node
batch reads; no kernel derives those terms itself.

The denoiser and the trace never divide a block's softmax numerators p by
their sums S = sum_i p_i. Each multiplies p by one weighting table of
:class:`_KernelTable` whose last row is all ones, so the one matrix product
gives the weighted sums and S together, and only those few sums per point
are divided by S. Only the Gram term of :func:`posterior_cov_stats`, where
the responsibilities enter squared, forms r = p / S as an (n, rows) array.

Every expectation over X_t takes one route, :func:`_expect`, under one of
three cross-checked rules: closed form (one node, for a single Gaussian),
Gauss-Hermite quadrature (dim <= 2) and Monte Carlo with standard errors.
Posterior weights are normalized in the log domain, largest logit first, so
the normalization does not overflow; the logits themselves do where
|x - c_i|^2 / (2 s2_i) leaves float64 (points x near 1e154), except when all
components share one variance, where :func:`_numerators` forms no
|x|^2. The Gauss-Hermite rules are NumPy's, rebuilt from the exact constants
of :mod:`snrsched._gauss_hermite`, so no process runs an eigensolve or
imports ``numpy.polynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .targets import (
    FiniteDiscrete,
    GaussianMixture,
    TargetDistribution,
    _component_logits,
    _logit_terms,
    _row_blocks,
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


def _check_noise(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"noise scale t must be positive and finite, got {t!r}")


class _KernelTable:
    """The x-free terms of every posterior kernel for one (target, t).

    A kernel call builds one table and hands it to each row block and node
    batch it runs, so these terms are derived once per (target, t), not once
    per block. With s2_i = v_i + t, the variance of X_t given component i:

    - ``logits``: :func:`snrsched.targets._logit_terms` of (w, c, s2): the
      weighted center mean mu, c~ = c - mu, -2 c~, |c~|^2, -0.5/s2, log w and
      log w - (d/2) log s2, the terms of :func:`_component_logits`;
    - ``shared``: whether every component has one variance, and if so
      ``half_cc`` = |c~|^2 / 2, ``log_w`` and ``scale_by``, the in-place ufunc
      and operand that scale the shifted logits by 1/s2 (a division by s2
      where 1/s2 overflows, t below about 5.6e-309), for :func:`_responsibilities`;
    - ``a`` = v / s2, the weight of x in each conjugate mean;
    - the terms of :func:`_pair_spread`, each built on its first read, so
      :func:`posterior_mean` and :func:`_info`, which read none of them, do
      not pay the n einsum rows of E: ``e`` = (t / s2) c~, ``tilt``, None
      when the a_i are all equal, else (g, g * g) with g_ij = a_i - a_j, and
      ``E``, the (n, n) table |e_i - e_j|^2;
    - the weighting tables, each built on its first read and each ending in
      a row of ones, so one matrix product with a block's softmax numerators
      also gives their column sums: ``mean_weights`` = [(t / s2) c^T; a; 1]
      for :func:`posterior_mean` and ``trace_weights`` = [E; a t; 1] for
      :func:`_pair_spread`.

    Raises ValueError unless ``t`` is positive and finite, for which the
    weights would be nan or silently wrong.
    """

    def __init__(self, dist: TargetDistribution, t: float):
        _check_noise(t)
        weights, centers, variances = _components(dist)
        self.t, self.dim, self.n, self.centers = t, centers.shape[1], weights.size, centers
        self.s2 = s2 = variances + t
        # -0.5/s2 is -inf only for atoms at t below 2.8e-309, which take the
        # shared-variance softmax; only _info reads it, and its t is 1/gamma
        with np.errstate(over="ignore"):
            self.logits = lt = _logit_terms(weights, centers, s2)
        self.shared = not np.any(variances != variances[0])
        if self.shared:
            self.half_cc, self.log_w = 0.5 * lt.cc, lt.log_w[:, None]
            with np.errstate(over="ignore"):
                inv = 1.0 / s2[0]
            self.scale_by = (np.multiply, inv) if math.isfinite(inv) else (np.true_divide, s2[0])
        self.a = variances / s2

    @cached_property
    def e(self) -> np.ndarray:
        return (self.t / self.s2)[:, None] * self.logits.Cc

    @cached_property
    def tilt(self):
        a = self.a
        if not np.any(a != a[0]):
            return None
        g = a[:, None] - a[None, :]
        return g, g * g

    @cached_property
    def E(self) -> np.ndarray:
        # row by row, so no (n, n, d) array of differences is built
        e = self.e
        E = np.empty((self.n, self.n))
        for row, ei in zip(E, e):
            diff = e - ei
            np.einsum("nd,nd->n", diff, diff, out=row)
        return E

    @cached_property
    def mean_weights(self) -> np.ndarray:
        b = (self.t / self.s2)[:, None] * self.centers
        return np.vstack([b.T, self.a, np.ones(self.n)])

    @cached_property
    def trace_weights(self) -> np.ndarray:
        return np.vstack([self.E, self.a * self.t, np.ones(self.n)])


def _numerators(table: _KernelTable, XT: np.ndarray) -> np.ndarray:
    """Softmax numerators of the component posterior at the columns of ``XT`` (d, m), shape (n, m).

    The softmax over components of :func:`_component_logits` with
    s2_i = v_i + t, before its division by the column sums: the largest
    logit is subtracted before exponentiating, so each column's numerators
    are at most 1 and their sum at least the smallest weight (general
    softmax: at least 1). When the components share one
    variance, as a discrete target's atoms do, the terms common to all
    components are left out: one matrix product c~_i.x~ - |c~_i|^2 / 2 is
    shifted by its column max, then scaled by 1/s2 and given log w_i, so the
    weights still decide exact ties at tiny t and no |x~|^2 is formed (as
    :func:`_pair_spread` skips its x terms when the a_i are equal). Every
    x-free term comes from ``table``, the :class:`_KernelTable` of (dist, t).
    """
    lt = table.logits
    if not table.shared:
        r = _component_logits(lt, XT)
        r -= r.max(axis=0)
    else:
        # one s2 for all: |x~|^2 / (2 s2) and log s2 cancel, leaving
        # (c~.x~ - |c~|^2 / 2) / s2 + log w, shifted before it is scaled
        r = lt.Cc @ (XT - lt.mu[:, None])
        r -= table.half_cc
        r -= r.max(axis=0)
        scale, by = table.scale_by
        with np.errstate(over="ignore"):  # a shifted logit past -1.8e308 is -inf
            scale(r, by, out=r)
        r += table.log_w
    np.exp(r, out=r)
    return r


def _responsibilities(table: _KernelTable, XT: np.ndarray) -> np.ndarray:
    """Posterior component probabilities at the columns of ``XT`` (d, m), shape (n, m).

    :func:`_numerators` divided by their column sums. The kernels that reduce
    the probabilities to a few statistics per point leave the division to
    those statistics; this full form serves the rest.
    """
    r = _numerators(table, XT)
    r /= r.sum(axis=0)
    return r


def _row_buffer(blocks, k: int) -> np.ndarray:
    """One flat buffer with room for a (k, rows) array of the largest of ``blocks``."""
    return np.empty(k * max(b.stop - b.start for b in blocks))


def _weigh(W: np.ndarray, p: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """W @ p, written into the front of ``buf``, so each block reuses one allocation."""
    M = buf[: W.shape[0] * p.shape[1]].reshape(W.shape[0], p.shape[1])
    return np.matmul(W, p, out=M)


def posterior_mean(dist: TargetDistribution, t: float, X, out=None) -> np.ndarray:
    """Ideal denoiser m_t evaluated at a batch of points, shape (m, d).

    The responsibility-weighted conjugate means, sum_i r_i (v_i x + t c_i) / s2_i,
    so no (m, n, d) tensor is built. With p the softmax numerators of
    :func:`_numerators`, one matrix product of ``mean_weights`` of
    :class:`_KernelTable` with p gives
    M = [sum_i p_i (t / s2_i) c_i; sum_i p_i a_i; sum_i p_i], and the result
    is (M[d] x + M[:d]) / M[d + 1]: only these d + 2 sums per point are
    normalized. The rows run in blocks of :func:`snrsched.targets._row_blocks`
    of width n + d + 2, the per-row size of what a block holds: its (n, rows)
    numerators and its (d + 2, rows) sums, in one buffer for the whole call.
    Each block is written into ``out[rows].T``. A column-major ``X`` gives
    contiguous operands throughout; a C-ordered one gives the same values, a
    little slower at small d.

    ``out``, if given, is a float (m, d) array that receives the result (and
    is returned); by default it is a new array in the memory order of ``X``.
    ``out`` may be ``X`` itself, since each block reads its points before it
    writes them, but no other array whose memory overlaps ``X``'s. Raises
    ValueError for such an ``out``, and unless ``t`` is positive and finite.
    """
    table = _KernelTable(dist, t)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if out is None:
        out = np.empty_like(X)
    elif out.shape != X.shape:
        raise ValueError(f"out has shape {out.shape}, expected {X.shape}")
    elif np.shares_memory(out, X) and (out.ctypes.data, out.strides) != (X.ctypes.data, X.strides):
        raise ValueError("out overlaps X without being X; pass X itself or a separate array")
    W, d = table.mean_weights, table.dim
    blocks = list(_row_blocks(X.shape[0], table.n + d + 2))
    buf = _row_buffer(blocks, d + 2)
    for rows in blocks:
        XT, block = X[rows].T, out[rows].T
        p = _numerators(table, XT)
        M = _weigh(W, p, buf)
        del p  # so no two blocks' numerators are held at once
        np.multiply(M[d], XT, out=block)  # reads each point before it is overwritten
        block += M[:d]
        block /= M[d + 1]
    return out


def _pair_spread(table: _KernelTable, XT: np.ndarray, buf: np.ndarray):
    """tr Cov(Z | X_t = x) from the pair distances of the conjugate means.

    Given component i the posterior mean is mu_i = a_i x + (t / s2_i) c_i with
    a_i = v_i / s2_i. Centering x and the centers on the weighted center mean,
    as :func:`_component_logits` does, leaves mu_i = a_i x~ + e_i with
    e_i = (t / s2_i) c~_i, whose squared pair distances are

        D_ij = |x~|^2 (a_i - a_j)^2 + 2 (a_i - a_j) x~.(e_i - e_j) + |e_i - e_j|^2.

    The spread of the mu_i under the responsibilities r has trace
    (1/2) sum_ij r_i r_j D_ij = (1/2) r.(D r): a weighted sum of non-negative
    pair distances, which does not cancel when one component dominates. The
    within-component variance adds d tau, with tau = sum_i r_i a_i t.

    With r = p / S, p the softmax numerators of :func:`_numerators` and S
    their column sums, the trace is ((1/2) p.(D p) / S + d sum_i p_i a_i t) / S,
    so only (rows,) sums are divided. One matrix product of ``trace_weights``
    of ``table``, the :class:`_KernelTable` of (dist, t), with p gives
    M = [E p; (a t).p; S] with E_ij = |e_i - e_j|^2; the x terms of D p,
    linear in p, are added to M[:n] only when the a_i (component variances)
    differ. Arrays are component-major (n, rows) temporaries, so callers pass
    one row block at a time, the block's points the columns of ``XT``
    (d, rows), and ``buf``, a flat array with room for M, which is built in
    it. Returns (trace, p, M, tilt): tilt is None when the a_i are all equal,
    else (|x~|^2, P, g) with P_im = e_i.x~_m and g_ij = a_i - a_j.
    """
    n = table.n
    p = _numerators(table, XT)
    M = _weigh(table.trace_weights, p, buf)
    tilt = None
    if table.tilt is not None:
        g, gg = table.tilt
        Xc = XT - table.logits.mu[:, None]
        xx = np.einsum("dm,dm->m", Xc, Xc, order="F")  # as in _component_logits
        P = table.e @ Xc
        M[:n] += xx * (gg @ p) + 2.0 * (P * (g @ p) - g @ (p * P))
        tilt = xx, P, g
    S = M[n + 1]
    trace = (0.5 * np.einsum("im,im->m", p, M[:n]) / S + table.dim * M[n]) / S
    return trace, p, M, tilt


def _cov_trace(table: _KernelTable, X: np.ndarray) -> np.ndarray:
    """tr Cov(Z | X_t = x) alone, shape (m,), from blocks of (n, rows) temporaries.

    ``table`` is the :class:`_KernelTable` of (dist, t), built once by the caller.
    """
    out = np.empty(X.shape[0])
    blocks = list(_row_blocks(X.shape[0], table.n))
    buf = _row_buffer(blocks, table.n + 2)
    for rows in blocks:
        out[rows] = _pair_spread(table, X[rows].T, buf)[0]
    return out


def posterior_cov_stats(dist: TargetDistribution, t: float, X):
    """Batched posterior covariance summaries.

    Cov is the spread S of the conjugate per-component posterior means plus
    the mean within-component variance tau = sum_i r_i v_i t / s2_i (law of
    total covariance). The trace is the pair-distance form of
    :func:`_pair_spread`, so it equals what :func:`mmse` averages bit for bit.
    With y_i the mean of component i minus the posterior mean,
    S = sum_i r_i y_i y_i^T, so tr S^2 = sum_ij r_i r_j B_ij^2 where
    B_ij = y_i.y_j is the r-weighted double centering of the pair distances,
    B_ij = (u_i + u_j - D_ij) / 2 with u = D r - (r.D r) / 2; then
    tr Cov^2 = tr S^2 + 2 tau tr S + d tau^2. The rows run in blocks of
    :func:`snrsched.targets._row_blocks` with width n^2, so the largest
    temporaries are one block's (n, n, rows) Gram terms, 2^17 elements (or
    one row's n^2 if more) whatever m is; nothing of size m n d or m d^2 is
    built. Raises ValueError unless ``t`` is positive and finite.

    Returns
    -------
    trace : (m,) array of tr Cov(Z | X_t = x).
    frob_sq : (m,) array of tr( Cov(Z | X_t = x)^2 ).
    """
    table = _KernelTable(dist, t)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _cov_stats(table, X)


def _cov_stats(table: _KernelTable, X: np.ndarray):
    """:func:`posterior_cov_stats` of a 2-d float ``X``, its :class:`_KernelTable` given."""
    n = table.n
    trace, frob_sq = np.empty(X.shape[0]), np.empty(X.shape[0])
    blocks = list(_row_blocks(X.shape[0], table.E.size))
    buf = _row_buffer(blocks, n + 2)
    for rows in blocks:
        tr, r, M, tilt = _pair_spread(table, X[rows].T, buf)
        # the Gram term squares the responsibilities, so it takes them
        # normalized: r = p / S and D r = M[:n] / S, in place
        S = M[n + 1]
        r /= S
        u = M[:n]
        u /= S
        rDr = np.einsum("im,im->m", r, u)
        tau = M[n] / S
        u -= 0.5 * rDr
        with np.errstate(over="ignore", invalid="ignore"):
            spread_sq = _gram_sq(table, r, u, tilt, fit=False)
        bad = ~np.isfinite(spread_sq)
        if bad.any():
            # a Gram entry past 1.3e154 squared to inf (and inf * 0 to nan):
            # refit those columns alone, so no finite value moves
            if tilt is not None:
                xx, P, g = tilt
                tilt = xx[bad], P[:, bad], g
            spread_sq[bad] = _gram_sq(table, r[:, bad], u[:, bad], tilt, fit=True)
        trace[rows] = tr
        frob_sq[rows] = spread_sq + tau * (rDr + table.dim * tau)
    return trace, frob_sq


def _gram_sq(table: _KernelTable, r, u, tilt, fit: bool) -> np.ndarray:
    """tr S^2 = (1/4) sum_ij r_i r_j B2_ij^2 of one row block, shape (rows,).

    B2_ij = D_ij - u_i - u_j, minus twice the Gram, is built in one
    (n, n, rows) buffer and squared in place. With ``fit``, each term is
    weighted before it is squared, W_ij = sqrt(r_i) B2_ij sqrt(r_j), so a
    pair with r_i r_j = 0 adds 0 (not inf * 0), and each column of W is
    scaled by 2^-k, k from its own largest |W|, with the column's sum scaled
    back by 4^k. The squares then stay finite, the result overflows only if
    tr S^2 itself does, and a term lost to underflow is below 2^-1072 of the
    column's largest. The weighting rounds sqrt(r), so callers fit only the
    columns whose plain pass was not finite.
    """
    E = table.E
    if tilt is None:
        B2 = E[:, :, None] - u[:, None, :]
    else:
        xx, P, g = tilt
        B2 = g[:, :, None] * xx
        B2 += 2.0 * P[:, None, :]
        B2 -= 2.0 * P[None, :, :]
        B2 *= g[:, :, None]
        B2 += E[:, :, None]
        B2 -= u[:, None, :]
    B2 -= u[None, :, :]
    if not fit:
        B2 *= B2
        return 0.25 * np.einsum("im,im->m", r, np.einsum("ijm,jm->im", B2, r))
    sr = np.sqrt(r)
    B2 *= sr[:, None, :]
    B2 *= sr[None, :, :]
    k = np.frexp(np.abs(B2).max(axis=(0, 1)))[1]
    np.ldexp(B2, -k, out=B2)  # not B2 *= 2^-k, which overflows for a subnormal column
    with np.errstate(over="ignore"):  # inf only where tr S^2 itself overflows
        return np.ldexp(0.25 * np.einsum("ijm,ijm->m", B2, B2), 2 * k)


@lru_cache(maxsize=None)
def _standard_normal_nodes(d: int):
    """Read-only pruned Gauss-Hermite (offsets, weights) for N(0, I_d), built once per d.

    The full rule is the 200-node rule in 1-d and the 96 x 96 tensor grid in
    2-d. Only the nodes whose weight exceeds 1e-20 times the largest weight
    are kept (Jaeckel, "A note on multivariate Gauss-Hermite quadrature",
    2005): 84 of 200 in 1-d and 2,668 of 9,216 in 2-d, most of the dropped
    ones in the grid's corners. The dropped weight is 1.7e-21 in 1-d and
    8.2e-21 in 2-d, below the rounding of any sum over the kept nodes.
    """
    from ._gauss_hermite import rule  # here, so only quadrature loads the table

    u, w1 = rule(200 if d == 1 else 96)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    if d == 1:
        offsets, qw = u[:, None], w1
    else:
        ua, ub = np.meshgrid(u, u, indexing="ij")
        offsets = np.stack([ua.ravel(), ub.ravel()], axis=1)
        qw = np.outer(w1, w1).ravel()
    keep = qw > 1e-20 * qw.max()
    # column-major, so each node batch c + s * offsets is column-major too
    offsets, qw = np.asfortranarray(offsets[keep]), qw[keep]
    offsets.flags.writeable = qw.flags.writeable = False
    return offsets, qw


def _quad_expect(dist: TargetDistribution, t: float, f):
    """(E f_k(X), 0.0) pairs under X ~ p_t by pruned Gauss-Hermite, dim <= 2.

    ``f`` maps a batch X of component i's nodes, and i, to a tuple of per-row
    arrays f_k(X). Each component of p_t gets the nodes of
    :func:`_standard_normal_nodes`: 84 in 1-d and
    2,668 in 2-d, the nodes of the 200-node and 96 x 96 rules that carry
    all but 1e-20 of the weight. The offsets are column-major, and so is
    each node batch, whose row blocks transpose to contiguous (d, rows) arrays.
    """
    if dist.dim > 2:
        raise ValueError("quadrature policy supports dim <= 2 only")
    offsets, qw = _standard_normal_nodes(dist.dim)
    probs, centers, variances = _components(dist)
    acc = 0.0
    for i, (c, s, p) in enumerate(zip(centers, np.sqrt(variances + t), probs)):
        acc = acc + p * np.array([qw @ v for v in f(c[None, :] + s * offsets, i)])
    return tuple((float(a), 0.0) for a in acc)


def _mean_se(v: np.ndarray):
    """Sample mean and its standard error (0 for a single sample)."""
    se = v.std(ddof=1) / math.sqrt(v.size) if v.size > 1 else 0.0
    return float(v.mean()), float(se)


def _mc_expect(dist: TargetDistribution, t: float, f, n_samples: int, seed):
    """Monte-Carlo (E f_k(X), stderr) under X ~ p_t; ``f`` as in :func:`_quad_expect`, i = None."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    chunks = []
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        Z = dist.sample(m, rng)
        X = Z + math.sqrt(t) * rng.standard_normal(Z.shape)
        chunks.append(f(X, None))
    return tuple(_mean_se(np.concatenate(col)) for col in zip(*chunks))


def _resolve_policy(dist, policy: str, gamma: float):
    """(concrete policy for ``dist``, noise scale t = 1/gamma); rejects bad input."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    _check_noise(1.0 / gamma)
    single = isinstance(dist, GaussianMixture) and dist.n_components == 1
    if policy == "auto":
        policy = "closed_form" if single else "quadrature" if dist.dim <= 2 else "monte_carlo"
    elif policy not in ("closed_form", "quadrature", "monte_carlo"):
        raise ValueError(f"unknown evaluation policy {policy!r}")
    elif policy == "closed_form" and not single:
        raise ValueError("closed_form policy applies to single-Gaussian targets only")
    return policy, 1.0 / gamma


def _expect(dist: TargetDistribution, t: float, pol: str, f, n_samples: int, seed):
    """(E f_k(X), stderr) pairs under X ~ p_t by the resolved policy.

    "closed_form" is one node, f at the mean with weight 1: exact for every f
    here, since tr Cov, tr Cov^2 and H(C | X) of one Gaussian do not depend on x.
    """
    if pol == "closed_form":
        return tuple((float(v[0]), 0.0) for v in f(dist.means, 0))
    if pol == "quadrature":
        return _quad_expect(dist, t, f)
    return _mc_expect(dist, t, f, n_samples, seed)


def _cov_expect(dist: TargetDistribution, gamma: float, policy: str, n_samples: int, seed):
    """((E tr Cov, stderr), (E tr Cov^2, stderr)) at t = 1/gamma under ``policy``.

    One evaluation gives both; the first equals :func:`mmse`'s bit for bit.
    """
    pol, t = _resolve_policy(dist, policy, gamma)
    table = _KernelTable(dist, t)
    return _expect(dist, t, pol, lambda X, i: _cov_stats(table, X), n_samples, seed)


def _info(dist: TargetDistribution, gamma: float, policy: str, n_samples: int, seed):
    """Mutual information I(Z; X_{1/gamma}) in nats; returns (value, stderr).

    With C the component index, I = I(C; X_t) + I(Z; X_t | C) is

        I = H(w) - E H(C | X_t) + (d/2) sum_i w_i log1p(v_i gamma),

    whose terms do not cancel at any SNR: for one component the first two are
    0, and for a discrete target the last is, so I -> H(w) as gamma -> inf.
    E H(C | X_t) = E -log r_C(X_t), r the softmax of :func:`_component_logits`.
    Quadrature takes -log r_i on component i's own nodes, where the Gaussian
    part of log r_i is a quadratic the rule integrates exactly; Monte Carlo
    averages the posterior entropy h(r(X)) (Rao-Blackwellized), which the
    rule would miss by about 1e-6 on grid8.
    """
    pol, t = _resolve_policy(dist, policy, gamma)
    table = _KernelTable(dist, t)

    def neg_log_r(X, i):
        out = np.empty(X.shape[0])
        for rows in _row_blocks(X.shape[0], table.n):
            lr = _component_logits(table.logits, X[rows].T)
            lr -= lr.max(axis=0)
            lr -= np.log(np.exp(lr).sum(axis=0))
            # exp(lr) is 0 below -746, so the clip only keeps 0 * -inf out
            out[rows] = -lr[i] if i is not None else -np.einsum(
                "im,im->m", np.exp(lr), np.maximum(lr, -746.0))
        return (out,)

    ((cond, se),) = _expect(dist, t, pol, neg_log_r, n_samples, seed)
    weights, _, variances = _components(dist)
    h_w = math.fsum(-p * math.log(p) for p in weights)
    return h_w - cond + 0.5 * dist.dim * float(weights @ np.log1p(variances * gamma)), se


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
    quadrature policies. Only the trace is computed, not tr Cov^2.
    """
    pol, t = _resolve_policy(dist, policy, gamma)
    table = _KernelTable(dist, t)
    return _expect(dist, t, pol, lambda X, i: (_cov_trace(table, X),), n_samples, seed)[0]


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
    and Monte Carlo otherwise. An unknown policy, "closed_form" for a target
    that is not a single Gaussian, or ``n_samples < 1`` raises ValueError
    here rather than at the first evaluation. :meth:`mmse` and
    :meth:`integral` remember mmse and I at each gamma, since every
    evaluation at one gamma uses the same seed and gives the same result;
    the curve is frozen so those memos cannot go stale.
    """

    dist: TargetDistribution
    policy: str = "auto"
    n_samples: int = 200_000
    seed: int = 0
    _mmse_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _info_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _resolve_policy(self.dist, self.policy, 1.0)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def mmse(self, gamma: float):
        key = float(gamma)
        if key not in self._mmse_memo:
            self._mmse_memo[key] = mmse(
                self.dist, gamma, self.policy, n_samples=self.n_samples, seed=self.seed
            )
        return self._mmse_memo[key]

    def _mutual_info(self, gamma: float) -> float:
        """I(gamma) of :func:`_info`, remembered per gamma like :meth:`mmse`."""
        key = float(gamma)
        if key not in self._info_memo:
            self._info_memo[key] = _info(
                self.dist, gamma, self.policy, self.n_samples, self.seed
            )[0]
        return self._info_memo[key]

    def tabulate(self, gammas) -> list:
        """(gamma, mmse, mmse_stderr, dmmse, dmmse_stderr) tuples, one per gamma."""
        out = []
        for g in np.asarray(gammas, dtype=float):
            (v, se), (fr, fse) = _cov_expect(self.dist, g, self.policy, self.n_samples, self.seed)
            out.append((float(g), v, se, -fr, fse))
        return out

    def integral(self, gamma_lo: float, gamma_hi: float) -> float:
        """Integral of mmse over [gamma_lo, gamma_hi] by the I-MMSE identity.

        2 (I(gamma_hi) - I(gamma_lo)), since dI/dgamma = mmse/2, with each I in
        the form of :func:`_info`, so a discrete target's integral to any
        gamma_hi up to 1e300 stays below 2H. Exact under "closed_form". Under
        "quadrature" each I is one pruned Gauss-Hermite pass over -log r_i.
        Against a dense trapezoid of -E log p_t (step 0.02 per standardized
        axis) at gamma in {1, 3, 10, ..., 1000}, I is within 1.3e-7 on the
        discrete grid8 toy, 6.3e-8 on the grid8 mixture and 5e-11 on both
        circle8 toys, so the integral is within 1e-6 relative once it exceeds
        0.52. Under "monte_carlo" both ends share the curve's seed and the
        result carries the noise of two I estimates. Grids that share an
        endpoint compute its I once.
        """
        if not 0 < gamma_lo < gamma_hi:
            raise ValueError("need 0 < gamma_lo < gamma_hi")
        return 2.0 * (self._mutual_info(gamma_hi) - self._mutual_info(gamma_lo))


def posterior_fourth_moment(dist: TargetDistribution, t: float, n_samples: int, seed):
    """Monte-Carlo estimate of E ||Z' - Z||^4 for an independent posterior draw Z'.

    Given X = Z + sqrt(t) xi, Z and Z' are independent draws from the
    posterior w(X) over atoms, so the moment is the conditional form
    E_X sum_ij w_i(X) w_j(X) |z_i - z_j|^4, which :func:`_mc_expect`
    averages over X. |z_i - z_j|^2 is the pair table E of :class:`_KernelTable`
    (t / s2 = 1 for atoms), one table serves the responsibilities too, and
    the rows run in blocks of (n, rows) arrays, as in every kernel. Finite
    discrete targets only. Returns (value, stderr).
    """
    if not isinstance(dist, FiniteDiscrete):
        raise TypeError("posterior_fourth_moment requires a FiniteDiscrete target")
    table = _KernelTable(dist, t)
    d4 = table.E**2

    def f(X, _):
        out = np.empty(X.shape[0])
        for rows in _row_blocks(X.shape[0], table.n):
            w = _responsibilities(table, X[rows].T)
            out[rows] = np.einsum("im,im->m", w, d4 @ w)
        return (out,)

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
