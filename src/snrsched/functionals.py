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
computed here in the MMSE-functional form. The second, Monte-Carlo route to
E_disc / 2, which integrates the Girsanov drift mismatch along simulated
reverse paths, is the test oracle ``pathwise_kl`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import MmseCurve

# unused here; perfbench/selftest.py checks that the tracer wraps this binding
from .channel import posterior_mean

__all__ = [
    "SnrGrid",
    "LossProfile",
    "eps_to_x0",
    "disc_error",
    "apx_error",
    "combined_objective",
    "final_bounds",
    "error_report",
]


def _knots(gammas, what: str) -> np.ndarray:
    """``gammas`` as a float array: 1-d, at least 2 finite, positive, strictly increasing values."""
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError(f"{what} needs at least two knots")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{what} needs finite knots")
    if not (g[0] > 0 and np.all(np.diff(g) > 0)):
        raise ValueError(f"{what} needs positive, strictly increasing knots")
    return g


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing SNR knots gamma_0 < ... < gamma_K.

    The endpoint data follow from the knots: T = 1/gamma_0, delta = 1/gamma_K
    and Lambda = gamma_K/gamma_0. A first knot whose 1/gamma_0 overflows
    (gamma_0 below about 5.6e-309) is rejected, so every noise scale 1/gamma_k
    of the grid is finite. A knot gamma_k whose noise scale 1/gamma_k rounds
    to 1/gamma_{k-1}, as it can where 1/gamma is subnormal or for knots one
    unit in the last place apart, is rejected too, naming k, so every step of
    the sampler has 0 < t_next < t_prev.
    """

    gammas: np.ndarray

    def __post_init__(self):
        g = _knots(self.gammas, "an SNR grid")
        g0 = float(g[0])
        if math.isinf(1.0 / g0):  # Python floats overflow without a warning
            raise ValueError(f"an SNR grid's first knot gamma_0 = {g0!r} puts T = 1/gamma_0 at inf")
        t = 1.0 / g
        same = np.flatnonzero(t[1:] >= t[:-1])
        if same.size:
            k = int(same[0]) + 1
            raise ValueError(f"an SNR grid's knots gamma_{k - 1} = {float(g[k - 1])!r} and "
                             f"gamma_{k} = {float(g[k])!r} have the same noise scale "
                             f"1/gamma = {float(t[k])!r}, so step {k} of the grid is empty")
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


def eps_to_x0(loss_eps, gamma):
    """Convert an eps-prediction MSE to the x0-prediction MSE at SNR gamma.

    The two risks differ by the channel's SNR factor:
    ||x0 error||^2 = ||eps error||^2 / gamma. Accepts scalars or arrays;
    every gamma must be positive and finite.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma > 0) & np.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    out = np.asarray(loss_eps, dtype=float) / gamma
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LossProfile:
    """Model x0 risk at SNR knots; the sole input the schedule optimizer needs.

    Needs at least 2 finite, positive, strictly increasing knots and finite,
    nonnegative losses. Between knots the x0 risk is interpolated linearly
    in log(gamma); no extrapolation outside the knot range is ever performed.
    """

    gammas: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        g = _knots(self.gammas, "a loss profile")
        lo = np.asarray(self.losses, dtype=float)
        if lo.shape != g.shape or not np.all(np.isfinite(lo)) or np.any(lo < 0):
            raise ValueError("losses must be finite, nonnegative and one per knot")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "losses", lo)

    @property
    def n(self) -> int:
        return self.gammas.size

    def x0_at(self, gamma):
        """x0 risk at gamma, interpolated linearly in log(gamma) between knots."""
        g = np.asarray(gamma, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        if np.any(g < self.gammas[0] * (1 - 1e-12)) or np.any(g > self.gammas[-1] * (1 + 1e-12)):
            raise ValueError(
                f"gamma outside profile range [{self.gammas[0]:g}, {self.gammas[-1]:g}]; "
                "no extrapolation"
            )
        out = np.interp(np.log(g), np.log(self.gammas), self.losses)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_curve(cls, curve: MmseCurve, gammas) -> "LossProfile":
        """Exact-denoiser profile: x0 risk equal to mmse at each knot."""
        gammas = np.asarray(gammas, dtype=float)
        vals = np.array([curve.mmse(g)[0] for g in gammas])
        return cls(gammas=gammas, losses=vals)

    @classmethod
    def from_csv(cls, path) -> "LossProfile":
        """Read a ``gamma,loss,kind`` CSV; rows of kind eps become x0 risks loss / gamma."""
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
        for k in kinds:
            if k not in ("x0", "eps"):
                raise ValueError(f"unknown loss kind {k!r}; expected one of ('x0', 'eps')")
        g = _knots(gammas, "a loss profile")
        lo = np.array(losses)
        # dividing only the eps rows keeps large x0 losses from overflowing
        eps = np.array(kinds) == "eps"
        lo[eps] = eps_to_x0(lo[eps], g[eps])
        return cls(gammas=g, losses=lo)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("gamma,loss,kind\n")
            for g, lo in zip(self.gammas, self.losses):
                fh.write(f"{g:.17g},{lo:.17g},x0\n")


def disc_error(curve: MmseCurve, grid: SnrGrid) -> float:
    """Discretization error E_disc = sum of per-interval mmse area gaps.

    Computed as sum_k (gamma_k - gamma_{k-1}) mmse(gamma_{k-1}) minus the
    integral of mmse over [gamma_0, gamma_K] (:meth:`MmseCurve.integral`).
    Exact for closed-form curves and accurate to the quadrature error for
    quadrature ones; under Monte Carlo it carries the noise of the K mmse
    estimates and of the two I estimates, and no stderr is returned.
    """
    g = grid.gammas
    riemann = float(np.diff(g) @ np.array([curve.mmse(x)[0] for x in g[:-1]]))
    return riemann - curve.integral(g[0], g[-1])


def _excess(loss: LossProfile, curve: MmseCurve, g: np.ndarray) -> np.ndarray:
    """Per-level excess max(0, L_x0(gamma_{k-1}) - mmse(gamma_{k-1})), length K."""
    return np.maximum([loss.x0_at(x) - curve.mmse(x)[0] for x in g[:-1]], 0.0)


def apx_error(loss: LossProfile, curve: MmseCurve, grid: SnrGrid) -> float:
    """Approximation error E_apx from a loss profile and an mmse oracle.

    E_apx = sum_k (gamma_k - gamma_{k-1}) * max(0, L_x0(gamma_{k-1}) -
    mmse(gamma_{k-1})). Negative excesses (possible when the profile was
    estimated by Monte Carlo) are clamped at zero.
    """
    g = grid.gammas
    return float(np.diff(g) @ _excess(loss, curve, g))


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

    Returns the ratio-sum discretization bound ``disc_bound`` = (C^2 H^2 / 2)
    sum_k (Delta gamma_k / gamma_{k-1})^2, its geometric-grid value
    ``geo_disc_bound`` = (C^2 H^2 / 2) K (Lambda^{1/K} - 1)^2, and the
    two-term KL control ``kl_total`` = log(Lambda) (C^2 H^2 log(Lambda)/K +
    eps_bar) with its two terms, ``kl_disc_term`` = log(Lambda)^2 C^2 H^2 / K
    and ``kl_stat_term`` = log(Lambda) eps_bar. The control needs
    K >= log(Lambda), which ``kl_total_applicable`` records. H, C_fit and
    eps_bar must be finite and >= 0, and a bound or term that overflows
    raises ValueError naming it.
    """
    _check_bound_constants(H=H, C_fit=C_fit, eps_bar=eps_bar)
    g = grid.gammas
    K = grid.K
    try:
        c2h2 = (C_fit * H) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        c2h2 = math.inf
    log_lambda = math.log(grid.Lambda)
    with np.errstate(over="ignore"):
        ratio_sq = float((((np.diff(g)) / g[:-1]) ** 2).sum())
        out = {
            "disc_bound": 0.5 * c2h2 * ratio_sq,
            "geo_disc_bound": 0.5 * c2h2 * K * (grid.Lambda ** (1.0 / K) - 1.0) ** 2,
            "kl_total": log_lambda * (c2h2 * log_lambda / K + eps_bar),
            "kl_disc_term": log_lambda**2 * c2h2 / K,
            "kl_stat_term": log_lambda * eps_bar,
            "kl_total_applicable": K >= log_lambda,
        }
    for name in ("disc_bound", "geo_disc_bound", "kl_total", "kl_disc_term", "kl_stat_term"):
        if not math.isfinite(out[name]):
            raise ValueError(f"{name} is not finite with C_fit = {C_fit!r} and H = {H!r}")
    return out


def error_report(
    curve: MmseCurve,
    grid: SnrGrid,
    loss: LossProfile | None = None,
    *,
    H: float | None = None,
    C_fit: float = 1.0,
) -> dict:
    """E_disc, E_apx and the derived KL bound for one (curve, grid, loss) triple.

    Returns the ``report.json`` entry: ``e_disc``, ``e_apx``,
    ``kl_path_bound`` = (E_disc + E_apx) / 2 and ``provenance``, all in the
    MMSE-functional route. Without a loss profile the model is taken to be
    the exact denoiser, so E_apx = 0. When the target's Shannon entropy ``H``
    is supplied, the :func:`final_bounds` result is added under ``"bounds"``,
    with eps_bar the mean of the per-level excess terms
    eps_k = gamma_{k-1} * excess. ``C_fit``, and ``H`` when given, must be
    finite and >= 0; they are checked before any oracle work.
    """
    _check_bound_constants(C_fit=C_fit)
    if H is not None:
        _check_bound_constants(H=H)
    g = grid.gammas
    e_disc = disc_error(curve, grid)
    if loss is None:
        e_apx = 0.0
        eps_bar = 0.0
        apx_prov = "exact_denoiser"
    else:
        excess = _excess(loss, curve, g)
        e_apx = float(np.diff(g) @ excess)
        eps_bar = float(np.mean(g[:-1] * excess))
        apx_prov = "loss_profile"
    out = {
        "e_disc": e_disc,
        "e_apx": e_apx,
        "kl_path_bound": 0.5 * (e_disc + e_apx),
        "provenance": {"e_disc": "mmse_functional", "e_apx": apx_prov},
    }
    if H is not None:
        out["bounds"] = final_bounds(grid, H, C_fit, eps_bar)
    return out
