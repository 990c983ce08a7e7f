"""SNR grid builders and loss-adaptive schedule optimization.

Baseline grids (time-uniform, geometric in log-SNR, EDM-style rho spacing)
are built directly from the endpoints (T, delta). The loss-adaptive schedule
(LAS) instead selects K+1 of n candidate SNRs, with endpoints pinned, to
minimize the surrogate objective

    sum_{k=1..K} (eta_{i_k} - eta_{i_{k-1}}) L(i_{k-1})
        + alpha sum_{k=2..K} (h_k - h_{k-1})^2,

where eta(gamma) = gamma / (1 + lambda^2 gamma) is the regularized SNR axis,
L(i) is the model's x0-prediction risk at candidate i, and h_k are log-SNR
steps. With alpha = 0 the objective is first-order and solved exactly by an
O(K n^2) dynamic program; with alpha > 0 consecutive steps couple and an
O(K n^3) dynamic program over (previous, current) index pairs solves it
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import LossProfile, SnrGrid

__all__ = [
    "InfeasibleError",
    "LasConfig",
    "CandidateSet",
    "Schedule",
    "eta_axis",
    "grid_time_uniform",
    "grid_geometric",
    "grid_edm",
    "schedule_objective",
    "las_exact",
    "las_beam",
]


class InfeasibleError(ValueError):
    """Raised when no schedule with the requested K exists."""


def eta_axis(gamma, lam: float):
    """Regularized SNR axis eta(gamma) = gamma / (1 + lambda^2 gamma).

    Strictly increasing in gamma and saturating at 1/lambda^2, which
    compresses the high-SNR end of the objective.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    out = g / (1.0 + lam**2 * g)
    return float(out) if out.ndim == 0 else out


def _check_endpoints(T: float, delta: float, K: int) -> None:
    if not 0 < delta < T:
        raise ValueError("need 0 < delta < T")
    if K < 1:
        raise ValueError("K must be >= 1")


def grid_time_uniform(T: float, delta: float, K: int) -> SnrGrid:
    """Equally spaced reverse times s_k = k (T - delta) / K, so gamma_k = 1/(T - s_k)."""
    _check_endpoints(T, delta, K)
    s = np.linspace(0.0, T - delta, K + 1)
    g = 1.0 / (T - s)
    g[0], g[-1] = 1.0 / T, 1.0 / delta
    return SnrGrid(g)


def grid_geometric(T: float, delta: float, K: int) -> SnrGrid:
    """Geometric SNR knots gamma_k = (1/T) Lambda^{k/K} with Lambda = T/delta."""
    _check_endpoints(T, delta, K)
    return SnrGrid(np.geomspace(1.0 / T, 1.0 / delta, K + 1))


def grid_edm(T: float, delta: float, K: int, rho: float = 7.0) -> SnrGrid:
    """EDM-style noise levels, mapped through sigma = sqrt(t), gamma = 1/sigma^2.

    sigma_i = (sigma_max^{1/rho} + (i/K)(sigma_min^{1/rho} - sigma_max^{1/rho}))^rho
    with sigma_max = sqrt(T) and sigma_min = sqrt(delta); rho = 1 reduces to
    linear-in-sigma spacing.
    """
    _check_endpoints(T, delta, K)
    if not rho > 0:
        raise ValueError("rho must be positive")
    smax, smin = math.sqrt(T), math.sqrt(delta)
    ramp = np.arange(K + 1) / K
    sig = (smax ** (1.0 / rho) + ramp * (smin ** (1.0 / rho) - smax ** (1.0 / rho))) ** rho
    g = 1.0 / sig**2
    g[0], g[-1] = 1.0 / T, 1.0 / delta
    return SnrGrid(g)


@dataclass(frozen=True)
class LasConfig:
    """Optimizer settings: steps K, axis scale lambda, smoothness weight alpha."""

    K: int
    lam: float = 1.5
    alpha: float = 0.0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lambda must be finite and positive")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and nonnegative")


@dataclass(frozen=True)
class CandidateSet:
    """Candidate SNRs (strictly ascending) with their risks L(i) >= 0."""

    gammas: np.ndarray
    risks: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        r = np.asarray(self.risks, dtype=float)
        if g.ndim != 1 or g.size < 2 or r.shape != g.shape:
            raise ValueError("need matching 1-d gammas and risks with at least 2 candidates")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(r))):
            raise ValueError("candidate gammas and risks must be finite")
        if np.any(g <= 0) or not np.all(np.diff(g) > 0):
            raise ValueError("candidate gammas must be positive and strictly increasing")
        if np.any(r < 0):
            raise ValueError("risks must be nonnegative")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "risks", r)

    @property
    def n(self) -> int:
        return self.gammas.size

    @property
    def ell(self) -> np.ndarray:
        return np.log(self.gammas)

    def eta(self, lam: float) -> np.ndarray:
        return eta_axis(self.gammas, lam)

    @classmethod
    def from_profile(
        cls, profile: LossProfile, gamma_min: float | None = None, gamma_max: float | None = None
    ) -> "CandidateSet":
        """Use the profile's own knots as candidates, trimmed to [gamma_min, gamma_max]."""
        g = profile.gammas
        lo = profile.x0_losses
        keep = np.ones(g.size, dtype=bool)
        if gamma_min is not None:
            keep &= g >= gamma_min * (1 - 1e-12)
        if gamma_max is not None:
            keep &= g <= gamma_max * (1 + 1e-12)
        return cls(gammas=g[keep], risks=lo[keep])


@dataclass(frozen=True)
class Schedule:
    """An optimized schedule: candidate indices, their SNRs, and the objective."""

    indices: tuple
    gammas: np.ndarray
    objective: float
    algorithm: str
    K: int
    lam: float
    alpha: float
    tie_breaks: int = 0

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) != self.K + 1 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing with length K + 1")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))

    def grid(self) -> SnrGrid:
        return SnrGrid(self.gammas)

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "gammas": [float(g) for g in self.gammas],
            "K": self.K,
            "lambda": self.lam,
            "alpha": self.alpha,
            "objective": self.objective,
            "algorithm": self.algorithm,
            "tie_breaks": self.tie_breaks,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Schedule":
        return cls(
            indices=tuple(obj["indices"]),
            gammas=np.asarray(obj["gammas"], dtype=float),
            objective=float(obj["objective"]),
            algorithm=str(obj["algorithm"]),
            K=int(obj["K"]),
            lam=float(obj["lambda"]),
            alpha=float(obj["alpha"]),
            tie_breaks=int(obj.get("tie_breaks", 0)),
        )


def schedule_objective(cands: CandidateSet, indices, lam: float, alpha: float) -> float:
    """Surrogate objective of an index sequence over the candidate set."""
    idx = np.asarray(indices, dtype=int)
    eta = cands.eta(lam)[idx]
    base = float(np.diff(eta) @ cands.risks[idx[:-1]])
    if alpha == 0 or idx.size < 3:
        return base
    h = np.diff(cands.ell[idx])
    return base + alpha * float((np.diff(h) ** 2).sum())


def _feasible(cands: CandidateSet, K: int) -> None:
    if K > cands.n - 1:
        raise InfeasibleError(f"K = {K} needs at least K + 1 = {K + 1} candidates, got {cands.n}")


def _make_schedule(cands, indices, cfg, algorithm, tie_breaks=0) -> Schedule:
    return Schedule(
        indices=tuple(indices),
        gammas=cands.gammas[np.asarray(indices, dtype=int)],
        objective=schedule_objective(cands, indices, cfg.lam, cfg.alpha),
        algorithm=algorithm,
        K=cfg.K,
        lam=cfg.lam,
        alpha=cfg.alpha,
        tie_breaks=tie_breaks,
    )


def las_exact(cands: CandidateSet, cfg: LasConfig) -> Schedule:
    """Globally optimal first-order schedule by dynamic programming.

    Requires cfg.alpha == 0. dp[k, j] is the best cost of reaching candidate
    j in exactly k transitions from candidate 0. Predecessors are smaller
    than j, so one ascending pass over j fills column j from one (stages, j)
    block of costs dp[k - 1, i] + (eta_j - eta_i) L_i in a reused buffer:
    the live stages, which can still reach the pinned endpoint n - 1, and
    stage K at j = n - 1. The path is read back by recomputing those costs
    at each of the K steps. Ties go to the smallest predecessor (the first
    minimum); ``tie_breaks`` counts the extra equal-cost predecessors.
    """
    if cfg.alpha != 0:
        raise ValueError("las_exact requires alpha = 0; use las_beam for alpha > 0")
    K = cfg.K
    _feasible(cands, K)
    n = cands.n
    end = n - 1
    eta = cands.eta(cfg.lam)
    L = cands.risks
    dp = np.full((K + 1, n), np.inf)
    dp[0, 0] = 0.0
    block = np.empty((K, n))
    ties = 0
    for j in range(1, n):
        lo, hi = max(1, K - (end - j)), K if j == end else min(j, K - 1)
        cost = block[: hi - lo + 1, :j]
        np.add(dp[lo - 1 : hi, :j], (eta[j] - eta[:j]) * L[:j], out=cost)
        dp[lo : hi + 1, j] = best = cost.min(axis=1)
        ties += int(np.count_nonzero(cost == best[:, None])) - best.size

    indices = [end]
    for k in range(K, 0, -1):
        j = indices[-1]
        indices.append(int(np.argmin(dp[k - 1, :j] + (eta[j] - eta[:j]) * L[:j])))
    indices.reverse()
    return _make_schedule(cands, indices, cfg, "exact", tie_breaks=ties)


def las_beam(cands: CandidateSet, cfg: LasConfig) -> Schedule:
    """Globally optimal second-order schedule by a DP over index pairs.

    Requires cfg.alpha > 0. V[a, b] is the best cost of reaching candidate b
    with previous candidate a; stage 1 fills (0, b), and each later stage
    extends every pair by c > b,

        V'[b, c] = min_a V[a, b] + (eta_c - eta_b) L_b
                   + alpha ((ell_c - ell_b) - (ell_b - ell_a))^2,

    with numpy over (a, c) for one b at a time, so no n^3 temporary is built.
    Stage K is the same step with c pinned to the endpoint, so K = 1 needs
    no case of its own. Every pair is kept, so the result is exact. Ties go
    to the smallest a, and in the final pick over V[:, end] to the smallest
    b. Time is O(K n^3) and memory O(K n^2) (int32 predecessors): about
    0.1 s at n = 128 and 20 s at n = 1024 with K = 20. The name and the
    "beam" label are kept for existing callers and schedule files.
    """
    if not cfg.alpha > 0:
        raise ValueError("las_beam requires alpha > 0; use las_exact for alpha = 0")
    K = cfg.K
    _feasible(cands, K)
    n = cands.n
    end = n - 1
    eta = cands.eta(cfg.lam)
    ell = cands.ell
    L = cands.risks
    alpha = cfg.alpha

    # stage k holds pairs (a, b) at positions (k - 1, k); loop bounds keep
    # every pair extendable to the pinned endpoint
    V = np.full((n, n), np.inf)
    V[0, 1 : end - (K - 1) + 1] = (eta[1 : end - (K - 1) + 1] - eta[0]) * L[0]
    par = np.zeros((K + 1, n, n), dtype=np.int32)
    for k in range(2, K + 1):
        hi_c = end - (K - k)
        nxt = np.full((n, n), np.inf)
        for b in range(k - 1, hi_c):
            a, c = slice(k - 2, b), slice(end if k == K else b + 1, hi_c + 1)
            cost = V[a, b, None] + (eta[c] - eta[b]) * L[b] + alpha * (
                (ell[c] - ell[b])[None, :] - (ell[b] - ell[a])[:, None]
            ) ** 2
            nxt[b, c] = cost.min(axis=0)
            par[k, b, c] = np.argmin(cost, axis=0) + (k - 2)  # first minimum = smallest a
        V = nxt

    b, c = int(np.argmin(V[:, end])), end
    indices = [end, b]
    for k in range(K, 1, -1):
        b, c = int(par[k, b, c]), b
        indices.append(b)
    indices.reverse()
    return _make_schedule(cands, indices, cfg, "beam")
