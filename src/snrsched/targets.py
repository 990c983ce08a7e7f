"""Tractable target distributions and their entropy functionals.

Two families are supported, both with exact densities/masses and exact
sampling, so that every downstream quantity (posterior means, MMSE curves,
pathwise KL estimates) can be checked against closed forms or quadrature:

* :class:`GaussianMixture` -- isotropic mixtures sum_i w_i N(mu_i, sigma_i^2 I).
* :class:`FiniteDiscrete` -- finitely supported laws sum_i p_i delta_{z_i}.

:func:`build_toy` and :func:`toy_discrete` build the bundled circle8 and
grid8 toy priors of each family.

The entropy functionals (Shannon entropy, order-1/2 Renyi entropy, the
sub-exponential fit of the surprisal -log p_i) are defined for the discrete
family only; differential entropy of the mixture family is deliberately out
of scope.

Determinism policy: all sums over atoms are taken in ascending-probability
order with exact compensated summation (``math.fsum``), so entropy values are
bit-identical under atom permutations and across platforms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GaussianMixture",
    "FiniteDiscrete",
    "TargetDistribution",
    "build_toy",
    "toy_discrete",
    "shannon_entropy",
    "renyi_half_entropy",
    "fit_subexponential",
    "target_from_json",
    "target_to_json",
]

_WEIGHT_TOL = 1e-12

# elements in the largest temporary a posterior kernel builds for one block of
# rows: 16,384 rows of (n, rows) logits at n = 8, or 32 rows of the
# (n, n, rows) Gram at n = 64. A circle8 simulate sampled as fast at 2^16 and
# 17 % slower at 2^15; the peak RSS did not move between them
_BLOCK_ELEMS = 1 << 17
_LOWEST = -sys.float_info.max


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")


def _check_weights(w: np.ndarray, what: str) -> None:
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d array")
    _check_finite(w, what)
    if np.any(w <= 0):
        raise ValueError(f"{what} must be strictly positive")
    if abs(math.fsum(w.tolist()) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"{what} must sum to 1 within {_WEIGHT_TOL}")


def _check_spread(c: np.ndarray, w: np.ndarray, what: str) -> None:
    # the kernels' pair distances |c_i - c_j|^2 are at most 4 max_i |c_i - cbar|^2
    with np.errstate(over="ignore", invalid="ignore"):
        cc = c - w @ c
        far = np.flatnonzero(~np.isfinite(4.0 * np.einsum("nd,nd->n", cc, cc)))
    if far.size:
        raise ValueError(f"{what} {far[0]} is too far from the weighted mean: 4 |c - cbar|^2 overflows")


class _LogitTerms(NamedTuple):
    """The x-free terms of :func:`_component_logits` for one (weights, centers, s2)."""

    mu: np.ndarray  # (d,) weighted center mean
    Cc: np.ndarray  # (n, d) centers centered on mu, c~
    m2Cc: np.ndarray  # (n, d) -2 c~
    cc: np.ndarray  # (n, 1) |c~|^2
    scale: np.ndarray  # (n, 1) -0.5 / s2
    log_w: np.ndarray  # (n,) log w
    bias: np.ndarray  # (n, 1) log w - (d/2) log s2


def _logit_terms(weights, centers, s2) -> _LogitTerms:
    """Build :class:`_LogitTerms` once, for every row block a caller runs."""
    mu = weights @ centers
    Cc = centers - mu
    log_w = np.log(weights)
    return _LogitTerms(
        mu,
        Cc,
        -2.0 * Cc,
        np.einsum("nd,nd->n", Cc, Cc)[:, None],
        (-0.5 / s2)[:, None],
        log_w,
        (log_w - 0.5 * centers.shape[1] * np.log(s2))[:, None],
    )


def _component_logits(terms: _LogitTerms, XT) -> np.ndarray:
    """(n, m) logits log w_i - |x - c_i|^2 / (2 s2_i) - (d/2) log s2_i.

    These are the log-weights of the components N(c_i, s2_i I) at each column
    of ``XT`` (d, m), one point per column, up to the shared -(d/2) log 2 pi.
    ``terms`` is :func:`_logit_terms` of (weights, centers, s2), which holds
    every term that does not depend on x, so a caller builds it once.
    The squared distances come from one matrix product, |x|^2 - 2 x.c + |c|^2
    clipped at 0, so no (m, n, d) array is built. The expansion cancels its
    terms against each other and so rounds at about eps (|x|^2 + |c|^2); X and
    the centers are first centered on the weighted center mean, which keeps
    that error at the scale of the centers' spread rather than of their
    distance from the origin.

    Points run along the last axis of every array, so the transpose of a row
    block of a column-major batch, which is C-ordered, gives contiguous
    operands throughout. The result is C-ordered, so reductions over
    components (axis 0) run along contiguous rows. The values do not depend
    on the layout of ``XT``: the matrix product gives the same bits either
    way, and |x~|^2 is summed over d = 0, 1, ... in turn for every layout,
    since ``order="F"`` makes einsum loop over the points innermost.
    """
    Xc = XT - terms.mu[:, None]
    sq = terms.m2Cc @ Xc
    sq += np.einsum("dm,dm->m", Xc, Xc, order="F")
    sq += terms.cc
    np.maximum(sq, 0.0, out=sq)
    sq *= terms.scale
    sq += terms.bias
    return sq


def _row_blocks(m: int, width: int):
    """Row slices of step = max(1, _BLOCK_ELEMS // width) rows that cover m rows.

    ``width`` is the per-row size of the caller's largest temporary. A final
    block of at most step // 8 rows is folded into the one before it, so a
    block holds at most step + step // 8 rows and the largest temporary at
    most (9/8) _BLOCK_ELEMS elements (or one row's ``width`` if more),
    whatever m is. Each row's result depends on that row alone, but BLAS picks
    its kernel by matrix size (a one-row block is a matrix-vector product), so
    a short final block could round a row's dot products differently in the
    last bits; folding it keeps a row's bits as in one large block on the
    shapes the tests pin. Zero rows still give one (empty) block, so a kernel
    validates its arguments either way.
    """
    step = max(1, _BLOCK_ELEMS // width)
    starts = list(range(0, max(m, 1), step))
    if len(starts) > 1 and m - starts[-1] <= step // 8:
        starts.pop()
    return (slice(i, j) for i, j in zip(starts, starts[1:] + [max(m, 1)]))


def _map_rows(X: np.ndarray, width: int, f) -> np.ndarray:
    """Per-point values of ``f`` over the row blocks of ``X`` (m, d), shape (k, m).

    The one row loop of every kernel that reduces a block to a few values per
    point. ``f`` maps one block's points, the columns of a (d, rows) array, to
    a tuple of k (rows,) arrays; ``width`` is the per-row size of its largest
    temporary, as for :func:`_row_blocks`. ``f``'s temporaries are freed when
    it returns, so beyond the result a kernel holds one block's at a time.
    """
    out = None
    for rows in _row_blocks(X.shape[0], width):
        values = f(X[rows].T)
        if out is None:
            out = np.empty((len(values), X.shape[0]))
        for row, v in zip(out, values):
            row[rows] = v
    return out


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture sum_i w_i N(mu_i, sigma_i^2 I_d).

    Parameters
    ----------
    weights : (n,) array
        Mixture weights, strictly positive, summing to 1 within 1e-12.
    means : (n, d) array
        Component means.
    sigmas : (n,) array
        Per-component isotropic standard deviations, strictly positive and
        large enough that 1/(2 sigma^2) is finite (sigma >= about 5.3e-155).

    A mean mu_i with 4 |mu_i - mu|^2 not finite in float64, mu = sum_i w_i mu_i
    (|mu_i - mu| above about 6.7e153), is rejected: the squared pair distances
    the kernels build would overflow.
    """

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        sig = np.asarray(self.sigmas, dtype=float)
        if sig.ndim == 0:
            sig = np.full(w.shape, float(sig))
        _check_weights(w, "mixture weights")
        if mu.shape[0] != w.size or sig.shape != w.shape:
            raise ValueError("weights, means and sigmas must have matching leading size")
        _check_finite(mu, "component means")
        _check_spread(mu, w, "component")
        _check_finite(sig, "component sigmas")
        if np.any(sig <= 0):
            raise ValueError("component sigmas must be strictly positive")
        with np.errstate(divide="ignore", over="ignore"):
            tiny = np.flatnonzero(~np.isfinite(0.5 / (sig * sig)))
        if tiny.size:  # log_prob scales by -1 / (2 sigma^2)
            i = int(tiny[0])
            raise ValueError(f"component {i} sigma {float(sig[i])!r} is too small: 1/(2 sigma^2) overflows")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sigmas", sig)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    def log_prob(self, x) -> np.ndarray:
        """Exact log-density at points ``x`` of shape (m, d) or (d,).

        The log-sum-exp of :func:`_component_logits`, with the largest logit
        factored out so far-tail points stay finite, minus (d/2) log 2 pi.
        A point whose every logit overflows to -inf (|x~|^2 / (2 sigma^2)
        past float64, as for circle8 at (1e160, 0)) gets -inf, the limit,
        and no warning. The rows run through :func:`_map_rows`, so beyond the
        (m,) result it holds one block's (n, rows) logits.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        terms = _logit_terms(self.weights, self.means, self.sigmas**2)
        log_norm = 0.5 * self.dim * math.log(2.0 * math.pi)

        def block(XT):
            with np.errstate(over="ignore", divide="ignore"):
                logits = _component_logits(terms, XT)
                # a finite shift for an all -inf column, whose log(0) is then -inf
                top = np.maximum(logits.max(axis=0), _LOWEST)
                logits -= top
                np.exp(logits, out=logits)
                return (top + np.log(logits.sum(axis=0)) - log_norm,)

        return _map_rows(x, self.n_components, block)[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` exact samples, shape (n, d)."""
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        eps *= self.sigmas[idx, None]
        eps += self.means[idx]
        return eps

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def axis_variances(self) -> np.ndarray:
        """Per-axis marginal variances Var(Z_j), shape (d,)."""
        m = self.mean()
        centered = self.means - m
        return self.weights @ (centered**2) + self.weights @ (self.sigmas**2)

    def cov_trace(self) -> float:
        return float(self.axis_variances().sum())


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finitely supported distribution sum_i p_i delta_{z_i} on R^d.

    Atoms must be pairwise distinct; probabilities strictly positive and
    summing to 1 within 1e-12. As for :class:`GaussianMixture`, an atom z_i
    with 4 |z_i - z|^2 not finite in float64, z = sum_i p_i z_i (|z_i - z|
    above about 6.7e153), is rejected.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        z = np.atleast_2d(np.asarray(self.points, dtype=float))
        _check_weights(p, "atom probabilities")
        if z.shape[0] != p.size:
            raise ValueError("points and probs must have matching leading size")
        _check_finite(z, "atom points")
        _check_spread(z, p, "atom")
        # equal rows are adjacent once sorted lexicographically; unlike
        # np.unique(axis=0), this loads no numpy.ma, and -0.0 == 0.0
        zs = z[np.lexsort(z.T[::-1])]
        if np.any(np.all(zs[1:] == zs[:-1], axis=1)):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "points", z)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.probs.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.n_atoms, size=n, p=self.probs)
        return self.points[idx]

    def mean(self) -> np.ndarray:
        return self.probs @ self.points

    def axis_variances(self) -> np.ndarray:
        centered = self.points - self.mean()
        return self.probs @ (centered**2)

    def cov_trace(self) -> float:
        return float(self.axis_variances().sum())


TargetDistribution = GaussianMixture | FiniteDiscrete

_TOY_WEIGHTS = np.arange(8, 0, -1) / 36.0
_TOY_SIGMA = 0.25
_TOY_RADIUS = 4.0


def _toy_means(name: str) -> np.ndarray:
    if name == "circle8":
        ang = 2.0 * np.pi * np.arange(8) / 8.0
        return _TOY_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if name == "grid8":
        # 2x4 lattice, row-major with y ascending
        xs = np.array([-3.0, -1.0, 1.0, 3.0])
        ys = np.array([-2.0, 2.0])
        return np.array([(x, y) for y in ys for x in xs])
    raise ValueError(f"unknown toy target {name!r}; expected circle8 or grid8")


def build_toy(name: str) -> GaussianMixture:
    """Build the circle8 or grid8 toy prior.

    circle8 places 8 isotropic components of standard deviation 0.25 on a
    radius-4 circle at angles 2 pi j / 8; grid8 places them on a 2x4 lattice
    (x in +-1, +-3 and y in +-2), row-major with y ascending. The weights
    are proportional to (8, 7, ..., 1).
    """
    means = _toy_means(name)
    return GaussianMixture(weights=_TOY_WEIGHTS.copy(), means=means, sigmas=np.full(8, _TOY_SIGMA))


def toy_discrete(name: str) -> FiniteDiscrete:
    """Discrete companion of a toy prior: atoms at the component means."""
    return FiniteDiscrete(points=_toy_means(name), probs=_TOY_WEIGHTS.copy())


def _require_discrete(dist) -> FiniteDiscrete:
    if not isinstance(dist, FiniteDiscrete):
        raise TypeError(
            "entropy functionals are defined for FiniteDiscrete targets only, "
            f"got {type(dist).__name__}"
        )
    return dist


def _sorted_by_prob(dist: FiniteDiscrete) -> np.ndarray:
    # stable ascending-probability order; the summation policy that makes
    # entropy values permutation-invariant bit for bit
    return np.sort(dist.probs, kind="stable")


def shannon_entropy(dist: TargetDistribution) -> float:
    """Shannon entropy H = sum_i p_i log(1/p_i) in nats."""
    p = _sorted_by_prob(_require_discrete(dist))
    return math.fsum(-pi * math.log(pi) for pi in p)


def renyi_half_entropy(dist: TargetDistribution) -> float:
    """Order-1/2 Renyi entropy H_{1/2} = 2 log sum_i sqrt(p_i) in nats."""
    p = _sorted_by_prob(_require_discrete(dist))
    return 2.0 * math.log(math.fsum(math.sqrt(pi) for pi in p))


def fit_subexponential(dist: TargetDistribution) -> float:
    """Sub-exponential envelope nu^2 of the centered surprisal of ``dist``.

    Evaluates M(lam) = sum_i p_i exp(lam (iota_i - H)) exactly on a symmetric
    deterministic grid of 41 lambdas covering [-1/2, 1/2] (endpoints and 0
    included), and returns the smallest nu^2 >= 0 with
    M(lam) <= exp(nu^2 lam^2) on that grid.

    M(1/2) = exp((H_{1/2} - H)/2), so in exact arithmetic
    H_{1/2} <= H + nu^2/2. The bound is attained when lam = 1/2 sets nu^2,
    as on both toys; there the computed H_{1/2} can exceed it by an ulp
    (2.2e-16 on the toys), so a check needs a slack.
    """
    d = _require_discrete(dist)
    H = shannon_entropy(d)
    p = _sorted_by_prob(d)
    iota = -np.log(p)

    half = np.linspace(0.0, 0.5, 21)  # mirrored below: 41 lambdas in all
    lams = np.concatenate([-half[::-1][:-1], half])

    nu_sq = 0.0
    for lam in lams:
        if lam != 0.0:
            m = math.fsum(pi * math.exp(lam * (io - H)) for pi, io in zip(p, iota))
            nu_sq = max(nu_sq, math.log(m) / lam**2)
    return float(nu_sq)


def target_to_json(dist: TargetDistribution) -> dict:
    """Serialize a target to the distribution-spec JSON object."""
    if isinstance(dist, GaussianMixture):
        return {
            "variant": "gmm",
            "dim": dist.dim,
            "components": [
                {"w": float(w), "mean": list(map(float, m)), "sigma": float(s)}
                for w, m, s in zip(dist.weights, dist.means, dist.sigmas)
            ],
        }
    if isinstance(dist, FiniteDiscrete):
        return {
            "variant": "discrete",
            "dim": dist.dim,
            "atoms": [
                {"p": float(p), "x": list(map(float, z))}
                for p, z in zip(dist.probs, dist.points)
            ],
        }
    raise TypeError(f"not a target distribution: {type(dist).__name__}")


def target_from_json(obj: dict) -> TargetDistribution:
    """Build a target from the distribution-spec JSON object; ValueError if malformed."""
    try:
        variant = obj.get("variant")
        dim = obj.get("dim", 0)
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"dim must be a JSON integer, got {dim!r}")
        if variant == "gmm":
            comps = obj["components"]
            dist = GaussianMixture(
                weights=np.array([c["w"] for c in comps]),
                means=np.array([c["mean"] for c in comps]),
                sigmas=np.array([c["sigma"] for c in comps]),
            )
        elif variant == "discrete":
            atoms = obj["atoms"]
            dist = FiniteDiscrete(
                points=np.array([a["x"] for a in atoms]),
                probs=np.array([a["p"] for a in atoms]),
            )
        else:
            raise ValueError(f"unknown target variant: {variant!r}")
    except KeyError as exc:
        raise ValueError(f"malformed target spec: missing key {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed target spec: {exc}") from None
    if dim and dist.dim != dim:
        raise ValueError(f"declared dim {dim} does not match data dim {dist.dim}")
    return dist
