"""Reverse-process sampler with frozen-denoiser exact Gaussian transitions.

Over each grid interval the reverse SDE

    dY = (c - Y) / (T - s) ds + dB,     c frozen at the interval's start,

is a linear SDE whose transition is Gaussian and known in closed form, so
each step samples the interval law exactly rather than Euler-discretizing
it. Writing t = T - s for the remaining noise scale, a step from t_prev down
to t_next with anchor c maps

    Y  ->  c + (t_next / t_prev) (Y - c)
             + sqrt( t_next (t_prev - t_next) / t_prev ) * xi.

With the exact denoiser and an exact-forward initialization the chain's only
defect is the freezing itself, which is what the discretization-error
functionals measure. A second-order multistep variant extrapolates the
anchor linearly in log-SNR from the two most recent denoiser evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _mean_se, posterior_mean
from .targets import GaussianMixture, TargetDistribution

__all__ = [
    "SamplerConfig",
    "SampleReport",
    "reverse_step",
    "sample",
]

_ORDERS = ("first", "second")
_INITS = ("exact_forward", "gaussian_prior")


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler settings.

    order : "first" freezes the newest denoiser value; "second" extrapolates
        the anchor linearly in log-SNR from the last two evaluations.
    init : "exact_forward" draws Z ~ p and adds variance-T noise (isolates
        discretization error); "gaussian_prior" draws N(0, T + prior
        per-axis variance) and adds a prior-approximation error on top.
    sigma_err : with sigma_err > 0 the denoiser is the oracle plus isotropic
        N(0, sigma_err^2 I) noise on each evaluation; 0 is the exact oracle.
    final_denoise : also report the NLL after a terminal jump to the
        posterior mean at t = delta; the returned samples stay noisy.
    """

    n_samples: int
    seed: int = 0
    order: str = "first"
    init: str = "exact_forward"
    sigma_err: float = 0.0
    final_denoise: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        if not (math.isfinite(self.sigma_err) and self.sigma_err >= 0):
            raise ValueError("sigma_err must be finite and nonnegative")


@dataclass
class SampleReport:
    """Sampling outcome: mean NLL under the true target density, with stderr."""

    nll_mean: float
    nll_stderr: float
    n_samples: int
    gammas: list
    config: dict
    denoised_nll_mean: float | None = None
    denoised_nll_stderr: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "nll_mean": self.nll_mean,
            "nll_stderr": self.nll_stderr,
            "n_samples": self.n_samples,
            "gammas": self.gammas,
            "config": self.config,
            "denoised_nll_mean": self.denoised_nll_mean,
            "denoised_nll_stderr": self.denoised_nll_stderr,
        }


def reverse_step(state, t_prev: float, t_next: float, anchor, noise):
    """One exact frozen-drift transition from noise scale t_prev down to t_next.

    ``state``, ``anchor`` and ``noise`` broadcast together; ``noise`` should
    be standard normal. Requires 0 < t_next < t_prev.
    """
    if not 0 < t_next < t_prev:
        raise ValueError("need 0 < t_next < t_prev")
    state = np.asarray(state, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    noise = np.asarray(noise, dtype=float)
    shrink = t_next / t_prev
    std = math.sqrt(t_next * (t_prev - t_next) / t_prev)
    return anchor + shrink * (state - anchor) + std * noise


def _nll_stats(dist, samples):
    if not isinstance(dist, GaussianMixture):
        return float("nan"), float("nan")
    return _mean_se(-dist.log_prob(samples))


def _init_state(dist, T: float, cfg: SamplerConfig, rng) -> np.ndarray:
    d = dist.dim
    if cfg.init == "exact_forward":
        Z = dist.sample(cfg.n_samples, rng)
        return Z + math.sqrt(T) * rng.standard_normal((cfg.n_samples, d))
    std = np.sqrt(T + dist.axis_variances())
    return std[None, :] * rng.standard_normal((cfg.n_samples, d))


def _oracle(dist, t, Y, cfg: SamplerConfig, err_rng):
    m = posterior_mean(dist, t, Y)
    if cfg.sigma_err > 0:
        m = m + cfg.sigma_err * err_rng.standard_normal(m.shape)
    return m


def _run(dist: TargetDistribution, grid: SnrGrid, cfg: SamplerConfig):
    t = 1.0 / grid.gammas  # descending from T to delta
    ell = np.log(grid.gammas)  # ascending log-SNR along the run
    K = grid.K
    if cfg.order == "second" and K < 2:
        raise ValueError("the second-order sampler needs K >= 2")
    # fixed stream split: 0 = initialization, 1 = step noise, 2 = denoiser error
    init_rng, step_rng, err_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    Y = _init_state(dist, grid.T, cfg, init_rng)
    prev_eval = None
    for k in range(1, K + 1):
        cur_eval = _oracle(dist, t[k - 1], Y, cfg, err_rng)
        anchor = cur_eval
        if cfg.order == "second" and prev_eval is not None:
            # extrapolate to the interval midpoint in log-SNR
            slope = (cur_eval - prev_eval) / (ell[k - 1] - ell[k - 2])
            anchor = cur_eval + slope * (0.5 * (ell[k] + ell[k - 1]) - ell[k - 1])
        noise = step_rng.standard_normal(Y.shape)
        Y = reverse_step(Y, t[k - 1], t[k], anchor, noise)
        prev_eval = cur_eval
    return Y


def _report(dist, grid, cfg, samples):
    nll, se = _nll_stats(dist, samples)
    report = SampleReport(
        nll_mean=nll,
        nll_stderr=se,
        n_samples=cfg.n_samples,
        gammas=[float(g) for g in grid.gammas],
        config={
            "order": cfg.order,
            "init": cfg.init,
            "sigma_err": cfg.sigma_err,
            "seed": cfg.seed,
            "final_denoise": cfg.final_denoise,
        },
    )
    if cfg.final_denoise:
        denoised = posterior_mean(dist, grid.delta, samples)
        dn, dse = _nll_stats(dist, denoised)
        report.denoised_nll_mean = dn
        report.denoised_nll_stderr = dse
    return report


def sample(dist: TargetDistribution, grid: SnrGrid, cfg: SamplerConfig):
    """Run the sampler over the grid; returns (samples at t = delta, report).

    Deterministic given (cfg, seed): all randomness flows from
    SeedSequence(cfg.seed) through three fixed substreams. cfg.order picks
    the first-order or the second-order scheme; the second order falls back
    to first order on its first step and draws the same noise, so runs with
    equal seeds differ only in their anchors.
    """
    samples = _run(dist, grid, cfg)
    return samples, _report(dist, grid, cfg, samples)
