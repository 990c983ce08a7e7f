"""Loss-adaptive SNR schedules for diffusion samplers.

Exact denoiser/MMSE oracles for tractable targets under the Brownian forward
process, discretization/approximation error functionals in MMSE form (their
pathwise KL Monte-Carlo cross-check is a test oracle, ``tests/oracles.py``),
schedule optimization (baseline grids and the loss-adaptive dynamic
programs), and an exact-transition reverse sampler.
"""

from .channel import (
    MmseCurve,
    mmse,
    mmse_derivative,
    posterior_fourth_moment,
    posterior_mean,
    derivative_ratio_constant,
)
from .functionals import (
    LossProfile,
    SnrGrid,
    apx_error,
    combined_objective,
    disc_error,
    eps_to_x0,
    error_report,
    final_bounds,
)
from .sampler import SamplerConfig, reverse_step, sample
from .schedules import (
    InfeasibleError,
    LasConfig,
    Schedule,
    eta_axis,
    grid_edm,
    grid_geometric,
    grid_time_uniform,
    las_beam,
    las_exact,
    schedule_objective,
)
from .targets import (
    FiniteDiscrete,
    GaussianMixture,
    TargetDistribution,
    fit_subexponential,
    renyi_half_entropy,
    shannon_entropy,
    target_from_json,
    target_to_json,
)

# perfbench/selftest.py still builds the DP input as CandidateSet(gammas, risks)
CandidateSet = LossProfile

__version__ = "0.1.0"
