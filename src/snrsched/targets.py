"""Tractable target distributions and their entropy functionals.

Two families are supported, both with exact densities/masses and exact
sampling, so that every downstream quantity (posterior means, MMSE curves,
pathwise KL estimates) can be checked against closed forms or quadrature:

* :class:`GaussianMixture` -- isotropic mixtures sum_i w_i N(mu_i, sigma_i^2 I).
* :class:`FiniteDiscrete` -- finitely supported laws sum_i p_i delta_{z_i}.

:func:`build_toy` and :func:`toy_discrete` build the bundled circle8 and
grid8 toy priors of each family.

The entropy functionals (surprisal, Shannon entropy, order-1/2 Renyi entropy,
sub-exponential surprisal fit) are defined for the discrete family only;
differential entropy of the mixture family is deliberately out of scope.

Determinism policy: all sums over atoms are taken in ascending-probability
order with exact compensated summation (``math.fsum``), so entropy values are
bit-identical under atom permutations and across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMixture",
    "FiniteDiscrete",
    "TargetDistribution",
    "build_toy",
    "toy_discrete",
    "InfoProfile",
    "surprisal",
    "shannon_entropy",
    "renyi_half_entropy",
    "fit_subexponential",
    "target_from_json",
    "target_to_json",
]

_WEIGHT_TOL = 1e-12


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


def _component_logits(weights, centers, s2, X) -> np.ndarray:
    """(m, n) logits log w_i - |x - c_i|^2 / (2 s2_i) - (d/2) log s2_i.

    These are the log-weights of the components N(c_i, s2_i I) at each row of
    ``X`` (m, d), up to the shared -(d/2) log 2 pi. The squared distances come
    from one matrix product, |x|^2 - 2 x.c + |c|^2 clipped at 0, so no
    (m, n, d) array is built. The expansion cancels its terms against each
    other and so rounds at about eps (|x|^2 + |c|^2); X and the centers are
    first centered on the weighted center mean, which keeps that error at the
    scale of the centers' spread rather than of their distance from the origin.

    The result is the transpose of a C-ordered (n, m) array, so reductions
    over components (axis 1) run along contiguous memory.
    """
    mu = weights @ centers
    Xc = X - mu
    Cc = centers - mu
    sq = (-2.0 * Cc) @ Xc.T
    sq += np.einsum("md,md->m", Xc, Xc)
    sq += np.einsum("nd,nd->n", Cc, Cc)[:, None]
    np.maximum(sq, 0.0, out=sq)
    sq *= (-0.5 / s2)[:, None]
    sq += (np.log(weights) - 0.5 * centers.shape[1] * np.log(s2))[:, None]
    return sq.T


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
        Per-component isotropic standard deviations, strictly positive.
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
        _check_finite(sig, "component sigmas")
        if np.any(sig <= 0):
            raise ValueError("component sigmas must be strictly positive")
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
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        logits = _component_logits(self.weights, self.means, self.sigmas**2, x)
        top = logits.max(axis=1, keepdims=True)
        logits -= top
        np.exp(logits, out=logits)
        return top[:, 0] + np.log(logits.sum(axis=1)) - 0.5 * self.dim * math.log(2.0 * math.pi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` exact samples, shape (n, d)."""
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[idx] + self.sigmas[idx, None] * eps

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
    summing to 1 within 1e-12.
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


def _toy_means(name: str, radius: float) -> np.ndarray:
    if name == "circle8":
        ang = 2.0 * np.pi * np.arange(8) / 8.0
        return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if name == "grid8":
        # 2x4 lattice, row-major with y ascending; scales with radius/4
        xs = np.array([-3.0, -1.0, 1.0, 3.0])
        ys = np.array([-2.0, 2.0])
        pts = [(x, y) for y in ys for x in xs]
        return (radius / 4.0) * np.array(pts)
    raise ValueError(f"unknown toy target {name!r}; expected circle8 or grid8")


def build_toy(name: str, weights=None, sigma0: float = 0.25, radius: float = 4.0) -> GaussianMixture:
    """Build the circle8 or grid8 toy prior.

    circle8 places 8 isotropic components on a radius-``radius`` circle at
    angles 2 pi j / 8; grid8 places them on a 2x4 lattice (x in +-1, +-3 and
    y in +-2, scaled by radius/4), row-major with y ascending. Default
    weights are proportional to (8, 7, ..., 1).
    """
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    w = _TOY_WEIGHTS if weights is None else np.asarray(weights, dtype=float)
    if w.size != 8:
        raise ValueError("toy targets need exactly 8 weights")
    means = _toy_means(name, radius)
    return GaussianMixture(weights=w, means=means, sigmas=np.full(8, float(sigma0)))


def toy_discrete(name: str, weights=None, radius: float = 4.0) -> FiniteDiscrete:
    """Discrete companion of a toy prior: atoms at the component means."""
    w = _TOY_WEIGHTS if weights is None else np.asarray(weights, dtype=float)
    if w.size != 8:
        raise ValueError("toy targets need exactly 8 weights")
    return FiniteDiscrete(points=_toy_means(name, radius), probs=w)


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


def surprisal(dist: TargetDistribution, atom_index: int) -> float:
    """Information content -log p_i of a single atom, in nats."""
    d = _require_discrete(dist)
    if not 0 <= atom_index < d.n_atoms:
        raise IndexError(f"atom_index {atom_index} out of range [0, {d.n_atoms})")
    return -math.log(d.probs[atom_index])


def shannon_entropy(dist: TargetDistribution) -> float:
    """Shannon entropy H = sum_i p_i log(1/p_i) in nats."""
    p = _sorted_by_prob(_require_discrete(dist))
    return math.fsum(-pi * math.log(pi) for pi in p)


def renyi_half_entropy(dist: TargetDistribution) -> float:
    """Order-1/2 Renyi entropy H_{1/2} = 2 log sum_i sqrt(p_i) in nats."""
    p = _sorted_by_prob(_require_discrete(dist))
    return 2.0 * math.log(math.fsum(math.sqrt(pi) for pi in p))


@dataclass(frozen=True)
class InfoProfile:
    """Entropy summary of a finite discrete target.

    Attributes
    ----------
    shannon, renyi_half : float
        H and H_{1/2} in nats; H_{1/2} >= H always (Renyi entropies are
        nonincreasing in the order).
    nu_sq : float
        Smallest nu^2 >= 0 with M(lam) <= exp(nu^2 lam^2) on the tested
        lambda grid, where M is the moment generating function of the
        centered surprisal iota(Z) - H.
    b : float
        Sub-exponential scale; the grid covers [-1/b, 1/b].
    mgf_ok : bool
        Whether the fitted bound holds at every tested lambda.
    """

    shannon: float
    renyi_half: float
    nu_sq: float
    b: float
    mgf_ok: bool

    @property
    def renyi_half_bound(self) -> float:
        """Upper bound H + nu^2/2 on H_{1/2} implied by the surprisal MGF fit."""
        return self.shannon + 0.5 * self.nu_sq


def fit_subexponential(dist: TargetDistribution, b: float) -> InfoProfile:
    """Fit a sub-exponential envelope to the centered surprisal of ``dist``.

    Evaluates M(lam) = sum_i p_i exp(lam (iota_i - H)) exactly on a symmetric
    deterministic grid of 41 lambdas covering [-1/b, 1/b]
    (endpoints and 0 included), and returns the smallest nu^2 with
    M(lam) <= exp(nu^2 lam^2) on that grid.

    With b <= 2 the grid contains lam = 1/2 whenever 1/b is a multiple of
    1/2 over the half-grid; in particular b = 2 puts lam = 1/2 on the grid,
    and M(1/2) = exp((H_{1/2} - H)/2), so the fitted profile always satisfies
    H_{1/2} <= H + nu^2/2.
    """
    d = _require_discrete(dist)
    if not 0 < b <= 2:
        raise ValueError("sub-exponential scale b must lie in (0, 2]")
    H = shannon_entropy(d)
    p = _sorted_by_prob(d)
    iota = -np.log(p)

    half = np.linspace(0.0, 1.0 / b, 21)  # mirrored below: 41 lambdas in all
    lams = np.concatenate([-half[::-1][:-1], half])

    mgf = [math.fsum(pi * math.exp(lam * (io - H)) for pi, io in zip(p, iota)) for lam in lams]
    nu_sq = 0.0
    for lam, m in zip(lams, mgf):
        if lam != 0.0:
            nu_sq = max(nu_sq, math.log(m) / lam**2)
    mgf_ok = all(m <= math.exp(nu_sq * lam**2) * (1.0 + 1e-12) for lam, m in zip(lams, mgf))

    return InfoProfile(
        shannon=H,
        renyi_half=renyi_half_entropy(d),
        nu_sq=nu_sq,
        b=float(b),
        mgf_ok=mgf_ok,
    )


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
    """Build a target from the distribution-spec JSON object."""
    variant = obj.get("variant")
    dim = int(obj.get("dim", 0))
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
    if dim and dist.dim != dim:
        raise ValueError(f"declared dim {dim} does not match data dim {dist.dim}")
    return dist
