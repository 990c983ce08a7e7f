"""Discretization and approximation error functionals for reverse-SDE samplers.

The reverse process is discretized on SNR knots gamma_0 < ... < gamma_K with
the denoiser frozen at the left endpoint of each interval. The pathwise KL
divergence between the exact and the discretized reverse process splits
exactly into a discretization part and a model-approximation part:

    KL = (E_disc + E_apx) / 2,

    E_disc = sum_k  integral_{gamma_{k-1}}^{gamma_k}
             ( mmse(gamma_{k-1}) - mmse(gamma) ) d gamma       (area gap),

    E_apx  = sum_k (gamma_k - gamma_{k-1}) *
             ( L_x0(gamma_{k-1}) - mmse(gamma_{k-1}) ),

where L_x0 is the model's x0-prediction risk at a given SNR. Both are
computed here in the MMSE-functional form, and E_disc additionally via a
direct Monte-Carlo estimate of the Girsanov drift-mismatch integral
(:func:`pathwise_kl_mc`), so each route can serve as the other's oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import MmseCurve, _mean_se, posterior_mean
from .sampler import reverse_step
from .targets import TargetDistribution

__all__ = [
    "SnrGrid",
    "LossProfile",
    "ErrorReport",
    "eps_to_x0",
    "disc_error",
    "apx_error",
    "combined_objective",
    "final_bounds",
    "pathwise_kl_mc",
    "error_report",
]


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing SNR knots gamma_0 < ... < gamma_K.

    The endpoint data follow from the knots: T = 1/gamma_0, delta = 1/gamma_K,
    Lambda = gamma_K/gamma_0, and the reverse-time grid s_k = T - 1/gamma_k
    with s_0 = 0 and s_K = T - delta.
    """

    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("an SNR grid needs at least two knots")
        if not np.all(np.isfinite(g)):
            raise ValueError("SNR knots must be finite")
        if not g[0] > 0:
            raise ValueError("gamma_0 must be positive")
        if not np.all(np.diff(g) > 0):
            raise ValueError("SNR knots must be strictly increasing")
        object.__setattr__(self, "gammas", g)

    @property
    def K(self) -> int:
        return self.gammas.size - 1

    @property
    def T(self) -> float:
        return 1.0 / self.gammas[0]

    @property
    def delta(self) -> float:
        return 1.0 / self.gammas[-1]

    @property
    def Lambda(self) -> float:
        return self.gammas[-1] / self.gammas[0]

    @property
    def ratios(self) -> np.ndarray:
        """Step ratios r_k = gamma_k / gamma_{k-1}, length K."""
        return self.gammas[1:] / self.gammas[:-1]

    @property
    def log_steps(self) -> np.ndarray:
        """Log-SNR steps h_k = log r_k, length K."""
        return np.log(self.ratios)

    @property
    def times(self) -> np.ndarray:
        """Reverse-time knots s_k = T - 1/gamma_k, ascending from 0 to T - delta."""
        return self.T - 1.0 / self.gammas

    def is_geometric(self) -> bool:
        """True when every step ratio is within 1e-9 relative of their mean."""
        r = self.ratios
        return bool(np.all(np.abs(r - r.mean()) <= 1e-9 * r.mean()))


_KINDS = ("x0", "eps")


def eps_to_x0(loss_eps, gamma):
    """Convert an eps-prediction MSE to the x0-prediction MSE at SNR gamma.

    The two risks differ by the channel's SNR factor:
    ||x0 error||^2 = ||eps error||^2 / gamma. Accepts scalars or arrays.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise ValueError("gamma must be positive")
    out = np.asarray(loss_eps, dtype=float) / gamma
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LossProfile:
    """Per-SNR model risk knots; the sole input the schedule optimizer needs.

    Each knot is (gamma, loss, kind) with kind "x0" or "eps". eps-kind rows
    are converted to x0 risks by the SNR factor on access. Between knots the
    x0 risk is interpolated linearly in log(gamma); no extrapolation outside
    the knot range is ever performed.
    """

    gammas: np.ndarray
    losses: np.ndarray
    kinds: tuple = ()

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        lo = np.asarray(self.losses, dtype=float)
        kinds = tuple(self.kinds) if self.kinds else ("x0",) * g.size
        if g.ndim != 1 or g.size < 1 or lo.shape != g.shape or len(kinds) != g.size:
            raise ValueError("gammas, losses and kinds must be 1-d and the same length")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(lo))):
            raise ValueError("loss-profile gammas and losses must be finite")
        if np.any(g <= 0) or not np.all(np.diff(g) > 0):
            raise ValueError("loss-profile gammas must be positive and strictly increasing")
        if np.any(lo < 0):
            raise ValueError("losses must be nonnegative")
        for k in kinds:
            if k not in _KINDS:
                raise ValueError(f"unknown loss kind {k!r}; expected one of {_KINDS}")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "losses", lo)
        object.__setattr__(self, "kinds", kinds)

    @property
    def x0_losses(self) -> np.ndarray:
        is_eps = np.array(self.kinds) == "eps"
        return np.where(is_eps, eps_to_x0(self.losses, self.gammas), self.losses)

    def x0_at(self, gamma):
        """x0 risk at gamma, interpolated linearly in log(gamma) between knots."""
        g = np.asarray(gamma, dtype=float)
        if np.any(g < self.gammas[0] * (1 - 1e-12)) or np.any(g > self.gammas[-1] * (1 + 1e-12)):
            raise ValueError(
                f"gamma outside profile range [{self.gammas[0]:g}, {self.gammas[-1]:g}]; "
                "no extrapolation"
            )
        out = np.interp(np.log(g), np.log(self.gammas), self.x0_losses)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_curve(cls, curve: MmseCurve, gammas) -> "LossProfile":
        """Exact-denoiser profile: x0 risk equal to mmse at each knot."""
        gammas = np.asarray(gammas, dtype=float)
        vals = np.array([curve.mmse(g)[0] for g in gammas])
        return cls(gammas=gammas, losses=vals)

    @classmethod
    def from_csv(cls, path) -> "LossProfile":
        gammas, losses, kinds = [], [], []
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
        if not rows or [c.strip() for c in rows[0]] != ["gamma", "loss", "kind"]:
            raise ValueError(f"{path}: expected header 'gamma,loss,kind'")
        for r in rows[1:]:
            if len(r) != 3:
                raise ValueError(f"{path}: malformed row {r!r}")
            gammas.append(float(r[0]))
            losses.append(float(r[1]))
            kinds.append(r[2].strip())
        return cls(gammas=np.array(gammas), losses=np.array(losses), kinds=tuple(kinds))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("gamma,loss,kind\n")
            for g, lo, k in zip(self.gammas, self.losses, self.kinds):
                fh.write(f"{g:.17g},{lo:.17g},{k}\n")


def _as_curve(dist_or_curve) -> MmseCurve:
    if isinstance(dist_or_curve, MmseCurve):
        return dist_or_curve
    return MmseCurve(dist_or_curve)


def disc_error(dist_or_curve, grid: SnrGrid) -> float:
    """Discretization error E_disc = sum of per-interval mmse area gaps.

    Computed as sum_k (gamma_k - gamma_{k-1}) mmse(gamma_{k-1}) minus the
    integral of mmse over [gamma_0, gamma_K] (:meth:`MmseCurve.integral`).
    Exact for closed-form curves and accurate to the quadrature error for
    quadrature ones; under Monte Carlo it carries the noise of the K mmse
    estimates and of the two I estimates, and no stderr is returned.
    """
    curve = _as_curve(dist_or_curve)
    g = grid.gammas
    riemann = float(np.diff(g) @ np.array([curve.mmse(x)[0] for x in g[:-1]]))
    return riemann - curve.integral(g[0], g[-1])


def apx_error(loss: LossProfile, dist_or_curve, grid: SnrGrid, *, detail: bool = False):
    """Approximation error E_apx from a loss profile and an mmse oracle.

    E_apx = sum_k (gamma_k - gamma_{k-1}) * max(0, L_x0(gamma_{k-1}) -
    mmse(gamma_{k-1})). Negative excesses (possible when the profile was
    estimated by Monte Carlo) are clamped at zero and counted. With
    ``detail=True`` also reports the per-level terms eps_k = gamma_{k-1} *
    excess and, on geometric grids, the equivalent form
    (Lambda^{1/K} - 1) * sum_k eps_k.
    """
    curve = _as_curve(dist_or_curve)
    g = grid.gammas
    excess = np.array([loss.x0_at(x) - curve.mmse(x)[0] for x in g[:-1]])
    clamped = int((excess < 0).sum())
    excess = np.maximum(excess, 0.0)
    value = float(np.diff(g) @ excess)
    if not detail:
        return value
    eps_terms = g[:-1] * excess
    geo = None
    if grid.is_geometric():
        geo = float((grid.Lambda ** (1.0 / grid.K) - 1.0) * eps_terms.sum())
    return {
        "value": value,
        "eps_terms": eps_terms,
        "geometric_form": geo,
        "n_clamped": clamped,
    }


def combined_objective(loss: LossProfile, grid: SnrGrid) -> float:
    """Schedule-dependent part of E_disc + E_apx: sum_k (Delta gamma_k) L_x0(gamma_{k-1}).

    The remaining term, the integral of mmse over [gamma_0, gamma_K], depends
    only on the endpoints and is omitted here.
    """
    g = grid.gammas
    return float(np.diff(g) @ np.array([loss.x0_at(x) for x in g[:-1]]))


def _check_bound_constants(**constants) -> None:
    """Raise ValueError unless every given bound constant is finite and >= 0."""
    for name, v in constants.items():
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


def final_bounds(grid: SnrGrid, H: float, C_fit: float, eps_bar: float) -> dict:
    """Closed-form discretization/KL upper bounds for a grid.

    Returns the ratio-sum discretization bound (C^2 H^2 / 2) sum_k
    (Delta gamma_k / gamma_{k-1})^2, its geometric-grid value
    (C^2 H^2 / 2) K (Lambda^{1/K} - 1)^2, and the two-term KL control
    log(Lambda) (C^2 H^2 log(Lambda)/K + eps_bar), which requires
    K >= log(Lambda) to be applicable. H and C_fit must be finite and >= 0.
    """
    _check_bound_constants(H=H, C_fit=C_fit)
    g = grid.gammas
    K = grid.K
    c2h2 = (C_fit * H) ** 2
    ratio_sq = float((((np.diff(g)) / g[:-1]) ** 2).sum())
    log_lambda = math.log(grid.Lambda)
    kl_total = log_lambda * (c2h2 * log_lambda / K + eps_bar)
    return {
        "disc_bound": 0.5 * c2h2 * ratio_sq,
        "geo_disc_bound": 0.5 * c2h2 * K * (grid.Lambda ** (1.0 / K) - 1.0) ** 2,
        "kl_total": kl_total,
        "kl_total_applicable": K >= log_lambda,
    }


_PATH_CHUNK = 20_000


def pathwise_kl_mc(
    dist: TargetDistribution,
    grid: SnrGrid,
    n_paths: int,
    substeps: int = 16,
    seed=0,
):
    """Monte-Carlo estimate of the pathwise KL bound (1/2) E int ||delta_s||^2 ds.

    delta_s is the drift mismatch between the exact reverse process and the
    frozen-denoiser process, evaluated with the exact denoiser, so the
    estimate converges to E_disc / 2. Per path the exact reverse trajectory
    is simulated at ``substeps`` equally spaced sub-times per grid interval.
    Given the sampled Z it is the Brownian bridge back to Z, whose transition
    is the frozen-anchor step :func:`snrsched.sampler.reverse_step` with
    anchor Z. The time integral is taken by the trapezoid rule (the
    integrand vanishes exactly at each interval's left endpoint).

    Returns (value, stderr). Deterministic given (seed, n_paths): paths are
    drawn in chunks of 20 000 whose seeds are spawned from the root seed
    via SeedSequence.spawn.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if substeps < 4:
        raise ValueError("substeps must be >= 4")
    T = grid.T
    s_knots = grid.times
    t_knots = 1.0 / grid.gammas  # descending from T to delta
    K = grid.K

    n_chunks = -(-n_paths // _PATH_CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    totals = np.empty(n_paths)
    done = 0
    for ss in seeds:
        m = min(_PATH_CHUNK, n_paths - done)
        rng = np.random.default_rng(ss)
        Z = dist.sample(m, rng)
        X = Z + math.sqrt(T) * rng.standard_normal(Z.shape)
        t_cur = T
        acc = np.zeros(m)
        for k in range(1, K + 1):
            ds = (s_knots[k] - s_knots[k - 1]) / substeps
            anchor = posterior_mean(dist, t_cur, X)
            for j in range(1, substeps + 1):
                s = s_knots[k - 1] + j * ds
                t_next = T - s
                X = reverse_step(X, t_cur, t_next, Z, rng.standard_normal(X.shape))
                t_cur = t_next
                f = ((posterior_mean(dist, t_cur, X) - anchor) ** 2).sum(axis=1) / t_cur**2
                weight = 0.5 if j == substeps else 1.0  # f = 0 at j = 0
                acc += weight * ds * f
        totals[done : done + m] = acc
        done += m

    value, se = _mean_se(totals)
    return 0.5 * value, 0.5 * se


@dataclass
class ErrorReport:
    """E_disc, E_apx and the derived KL bound for one (target, grid, loss) triple."""

    e_disc: float
    e_apx: float
    kl_path_bound: float
    two_term: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    _bounds: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "e_disc": self.e_disc,
            "e_apx": self.e_apx,
            "kl_path_bound": self.kl_path_bound,
            "two_term": self.two_term,
            "provenance": self.provenance,
        }
        if self._bounds:
            out["bounds"] = self._bounds
        return out


def error_report(
    dist_or_curve,
    grid: SnrGrid,
    loss: LossProfile | None = None,
    *,
    H: float | None = None,
    C_fit: float = 1.0,
) -> ErrorReport:
    """Assemble an :class:`ErrorReport` in the MMSE-functional route.

    Without a loss profile the model is taken to be the exact denoiser, so
    E_apx = 0. When the target's Shannon entropy ``H`` is supplied, the
    two-term KL control from :func:`final_bounds` is attached, with eps_bar
    the mean of the per-level excess terms, and the full :func:`final_bounds`
    result is written under ``"bounds"`` by :meth:`ErrorReport.to_json_dict`.
    ``C_fit``, and ``H`` when given, must be finite and >= 0; they are checked
    before any oracle work.
    """
    _check_bound_constants(C_fit=C_fit)
    if H is not None:
        _check_bound_constants(H=H)
    curve = _as_curve(dist_or_curve)
    e_disc = disc_error(curve, grid)
    if loss is None:
        e_apx = 0.0
        eps_bar = 0.0
        apx_prov = "exact_denoiser"
    else:
        det = apx_error(loss, curve, grid, detail=True)
        e_apx = det["value"]
        eps_bar = float(np.mean(det["eps_terms"]))
        apx_prov = "loss_profile"
    two_term, bounds = {}, {}
    if H is not None:
        bounds = final_bounds(grid, H, C_fit, eps_bar)
        two_term = {
            "disc_term": math.log(grid.Lambda) ** 2 * (C_fit * H) ** 2 / grid.K,
            "stat_term": math.log(grid.Lambda) * eps_bar,
            "kl_total": bounds["kl_total"],
            "applicable": bounds["kl_total_applicable"],
        }
    return ErrorReport(
        e_disc=e_disc,
        e_apx=e_apx,
        kl_path_bound=0.5 * (e_disc + e_apx),
        two_term=two_term,
        provenance={"e_disc": "mmse_functional", "e_apx": apx_prov},
        _bounds=bounds,
    )
