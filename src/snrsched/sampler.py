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
from .functionals import SnrGrid
from .targets import GaussianMixture, TargetDistribution, _row_blocks

__all__ = [
    "SamplerConfig",
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


def reverse_step(state, t_prev: float, t_next: float, anchor, noise, out=None):
    """One exact frozen-drift transition from noise scale t_prev down to t_next.

    ``state``, ``anchor`` and an array ``noise`` broadcast together; ``noise``
    should be standard normal. ``noise`` may instead be a
    ``numpy.random.Generator``, which advances by ``out.size`` draws: each row
    block draws its normals in C order into one block buffer, reused across
    the call, so the values and the generator's end state are those of
    ``noise.standard_normal(out.shape)``. Requires 0 < t_next < t_prev. The
    result anchor + (t_next / t_prev) (state - anchor) + std * noise is built
    by the operations of that expression in its order, in ``out``: by default
    a new C-ordered array of the broadcast shape of the inputs, else a float
    array of that shape, which is returned. ``out`` may be ``state`` itself
    (an in-place step) but must not overlap ``anchor`` or ``noise``; no input
    other than ``out`` is modified. The only temporary is std * noise, one
    row block of :func:`snrsched.targets._row_blocks` at a time. The
    operations run in the memory order of ``out``, so a C-ordered noise block
    steps a column-major state along its columns.
    """
    if not 0 < t_next < t_prev:
        raise ValueError("need 0 < t_next < t_prev")
    state = np.asarray(state, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    draw = isinstance(noise, np.random.Generator)
    if not draw:
        noise = np.asarray(noise, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(state.shape, anchor.shape, () if draw else noise.shape))
    order = "F" if out.flags.f_contiguous else "K"
    np.subtract(state, anchor, out=out, order=order)
    np.multiply(out, t_next / t_prev, out=out, order=order)
    np.add(out, anchor, out=out, order=order)
    # std * noise one row block at a time, so the temporary stays small and in cache
    std = _step_std(t_prev, t_next)
    blocks = list(_row_blocks(out.shape[0], math.prod(out.shape[1:]))) if out.ndim else [...]
    if draw:  # one C-ordered buffer for the largest block
        buf = np.empty(max(out[rows].size for rows in blocks))
    else:
        noise = np.broadcast_to(noise, out.shape)
    for rows in blocks:
        if draw:  # the block's normals in the C order of standard_normal(out.shape)
            term = buf[: out[rows].size].reshape(out[rows].shape)
            noise.standard_normal(out=term)
            term *= std
        else:
            term = std * noise[rows]
        np.add(out[rows], term, out=out[rows], order=order)
    return out


def _step_std(t_prev: float, t_next: float) -> float:
    """Noise std of the step from t_prev down to t_next, sqrt(t_next (t_prev - t_next) / t_prev).

    Where t_next (t_prev - t_next) overflows, the ratio t_next / t_prev is
    taken first, so the std is finite for every finite 0 < t_next < t_prev;
    elsewhere the product is taken first, as every written sample was.
    """
    t_prev, t_next = float(t_prev), float(t_next)  # Python floats overflow without a warning
    prod = t_next * (t_prev - t_next)
    if math.isinf(prod):
        return math.sqrt((t_next / t_prev) * (t_prev - t_next))
    return math.sqrt(prod / t_prev)


def _nll_stats(dist, samples, what: str):
    """Mean NLL under the target density and its stderr; (None, None) without a density.

    Raises ValueError naming ``what`` if a sample's NLL is not finite (a state
    so far out that its log-density is -inf, or a nan state), whose mean and
    stderr would be meaningless.
    """
    if not isinstance(dist, GaussianMixture):
        return None, None
    nll = -dist.log_prob(samples)
    bad = int(np.count_nonzero(~np.isfinite(nll)))
    if bad:
        raise ValueError(f"the {what} is not finite at {bad} of {nll.size} samples")
    return _mean_se(nll)


def _init_state(dist, T: float, cfg: SamplerConfig, rng) -> np.ndarray:
    d = dist.dim
    if cfg.init == "exact_forward":
        Y = dist.sample(cfg.n_samples, rng)
        noise = rng.standard_normal((cfg.n_samples, d))
        noise *= math.sqrt(T)
        Y += noise
        return Y
    Y = rng.standard_normal((cfg.n_samples, d))
    Y *= np.sqrt(T + dist.axis_variances())
    return Y


def _run(dist: TargetDistribution, grid: SnrGrid, cfg: SamplerConfig):
    """The chain's (m, d) state at t = delta, column-major.

    Each step passes the step generator to :func:`reverse_step` as its noise,
    which advances it by m d draws; the (m, d) error buffer exists only when
    ``cfg.sigma_err > 0``.
    """
    t = 1.0 / grid.gammas  # descending from T to delta
    ell = np.log(grid.gammas)  # ascending log-SNR along the run
    K = grid.K
    if cfg.order == "second" and K < 2:
        raise ValueError("the second-order sampler needs K >= 2")
    # fixed stream split: 0 = initialization, 1 = step noise, 2 = denoiser error
    init_rng, step_rng, err_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    # column-major, so the denoiser's row blocks transpose to contiguous
    # (d, rows) arrays; the error buffer is C-ordered, so draws keep their values
    Y = np.asfortranarray(_init_state(dist, grid.T, cfg, init_rng))
    err = np.empty(Y.shape) if cfg.sigma_err > 0 else None
    # denoiser values; the second order keeps the previous one in the other
    # buffer and writes its extrapolated anchor over it
    evals = [np.empty_like(Y) for _ in range(2 if cfg.order == "second" else 1)]
    for k in range(1, K + 1):
        anchor = cur = posterior_mean(dist, t[k - 1], Y, out=evals[k % len(evals)])
        if err is not None:
            err_rng.standard_normal(out=err)
            err *= cfg.sigma_err
            np.add(cur, err, out=cur, order="F")  # along cur's columns
        if cfg.order == "second" and k > 1:
            # extrapolate to the interval midpoint in log-SNR: the slope,
            # times the step to the midpoint, plus cur, built over the
            # previous evaluation, which no later step reads
            prev = evals[(k - 1) % 2]
            anchor = np.subtract(cur, prev, out=prev)
            anchor /= ell[k - 1] - ell[k - 2]
            anchor *= 0.5 * (ell[k] + ell[k - 1]) - ell[k - 1]
            anchor += cur
        reverse_step(Y, t[k - 1], t[k], anchor, step_rng, out=Y)
    return Y


def _report(dist, grid, cfg, samples) -> dict:
    nll, se = _nll_stats(dist, samples, "sample NLL")
    dn = dse = None
    if cfg.final_denoise:
        dn, dse = _nll_stats(dist, posterior_mean(dist, grid.delta, samples), "denoised NLL")
    return {
        "nll_mean": nll,
        "nll_stderr": se,
        "denoised_nll_mean": dn,
        "denoised_nll_stderr": dse,
        "n_samples": cfg.n_samples,
        "gammas": [float(g) for g in grid.gammas],
        "config": {
            "order": cfg.order,
            "init": cfg.init,
            "sigma_err": cfg.sigma_err,
            "seed": cfg.seed,
            "final_denoise": cfg.final_denoise,
        },
    }


def sample(dist: TargetDistribution, grid: SnrGrid, cfg: SamplerConfig):
    """Run the sampler over the grid; returns (samples at t = delta, report).

    ``report`` is the ``sample_report.json`` object: ``nll_mean`` and
    ``nll_stderr`` under the target density, ``denoised_nll_mean`` and
    ``denoised_nll_stderr`` after the terminal jump of ``cfg.final_denoise``,
    ``n_samples``, ``gammas`` and ``config``. An NLL that does not apply (a
    target without a density, or no final denoise) is None.

    Deterministic given (cfg, seed): all randomness flows from
    SeedSequence(cfg.seed) through three fixed substreams. cfg.order picks
    the first-order or the second-order scheme; the second order falls back
    to first order on its first step and draws the same noise, so runs with
    equal seeds differ only in their anchors. Raises ValueError after the run
    if any sample is not finite.

    The (m, d) state is column-major (Fortran order) for the whole run, and
    so are the returned samples. Each step fills buffers made once per run:
    the denoiser writes the anchor through ``posterior_mean(..., out=)``, and
    ``reverse_step(..., out=Y)`` steps the state in place, drawing its noise
    from the step generator, which advances by m d draws per step, one row
    block at a time. Each step's noise, and the denoiser error of
    ``cfg.sigma_err`` (drawn into one C-ordered buffer), has the values of a
    fresh ``standard_normal((m, d))``, so the samples are bit for bit those
    of the same chain run on fresh C-ordered arrays.
    """
    samples = _run(dist, grid, cfg)
    if not np.all(np.isfinite(samples)):
        raise ValueError("the sampler produced non-finite samples")
    return samples, _report(dist, grid, cfg, samples)
