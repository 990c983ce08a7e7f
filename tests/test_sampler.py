"""Reverse-process simulation: per-step law, marginals, NLL behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import em_reverse_moments, gauss_terminal_variance
from snrsched import FiniteDiscrete, GaussianMixture, targets
from snrsched.channel import posterior_mean
from snrsched.functionals import SnrGrid
from snrsched.sampler import (
    SamplerConfig,
    _step_std,
    reverse_step,
    sample,
)
from snrsched.schedules import grid_geometric
from snrsched.targets import build_toy


def single_gauss(sigma0=1.0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


GRID8 = GaussianMixture(
    weights=np.arange(8, 0, -1) / 36.0,
    means=[[x, y] for x in (-3.0, -1.0, 1.0, 3.0) for y in (-2.0, 2.0)][:8],
    sigmas=[0.25] * 8,
)


# ---------------------------------------------------------------------------
# one interval


def test_reverse_step_example_mean_and_std():
    out = reverse_step(np.array([2.0]), 1.0, 0.5, np.array([0.0]), np.array([0.0]))
    assert out[0] == pytest.approx(1.0, rel=1e-15)
    out = reverse_step(np.array([2.0]), 1.0, 0.5, np.array([0.0]), np.array([1.0]))
    assert out[0] == pytest.approx(1.0 + 0.5, rel=1e-15)  # std sqrt(0.25)


def test_reverse_step_matches_euler_maruyama():
    for t_prev, t_next, c, y0 in ((1.0, 0.5, 0.0, 2.0), (0.8, 0.1, -1.3, 0.4)):
        mean, var = em_reverse_moments(t_prev, t_next, c, y0)
        got_mean = reverse_step(
            np.array([y0]), t_prev, t_next, np.array([c]), np.array([0.0])
        )[0]
        got_var = (
            reverse_step(np.array([y0]), t_prev, t_next, np.array([c]), np.array([1.0]))[0]
            - got_mean
        ) ** 2
        assert got_mean == pytest.approx(mean, abs=1e-3)
        assert got_var == pytest.approx(var, abs=1e-3)


def test_reverse_step_degenerate_interval_returns_state():
    y = np.array([0.7, -0.2])
    out = reverse_step(y, 0.5, 0.5 * (1.0 - 1e-16), y * 0 + 1.0, np.zeros(2))
    # not an API case (t_next < t_prev strictly) but the limit must be benign
    np.testing.assert_allclose(out, [1.0 + (0.7 - 1.0), 1.0 + (-0.2 - 1.0)], atol=1e-9)


def test_reverse_step_anchor_fixed_point():
    y = np.array([1.5, 1.5])
    out = reverse_step(y, 2.0, 0.3, y, np.zeros(2))
    np.testing.assert_allclose(out, y, rtol=1e-15)


def test_reverse_step_rejects_bad_times():
    with pytest.raises(ValueError):
        reverse_step(np.zeros(1), 0.5, 0.5, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        reverse_step(np.zeros(1), 0.5, 0.9, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        reverse_step(np.zeros(1), 0.5, -0.1, np.zeros(1), np.zeros(1))


_TIMES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@given(a=_TIMES, b=_TIMES)
@example(a=1e200, b=1e199)
@example(a=1e308, b=3.0e307)
@example(a=1.7976931348623157e308, b=1e-300)
def test_step_std_keeps_its_bits_and_is_finite_where_the_product_overflows(a, b):
    t_next, t_prev = sorted((a, b))
    if not t_next < t_prev:
        return
    got = _step_std(t_prev, t_next)
    plain = math.sqrt(t_next * (t_prev - t_next) / t_prev)
    if math.isfinite(plain):
        assert got == plain
    else:  # within a few ulps of the exact std
        exact = math.sqrt(float(Fraction(t_next) * (Fraction(t_prev) - Fraction(t_next)) / Fraction(t_prev)))
        assert math.isfinite(got) and got == pytest.approx(exact, rel=1e-15, abs=0)


def test_reverse_step_empirical_moments():
    rng = np.random.default_rng(0)
    t_prev, t_next, c, y0 = 1.0, 0.35, 0.4, 1.1
    n = 1_000_000
    noise = rng.standard_normal(n)
    out = reverse_step(np.full(n, y0), t_prev, t_next, np.full(n, c), noise)
    mean = c + (t_next / t_prev) * (y0 - c)
    var = t_next * (t_prev - t_next) / t_prev
    assert abs(out.mean() - mean) <= 4.0 * math.sqrt(var / n)
    assert abs(out.var() - var) <= 4.0 * var * math.sqrt(2.0 / n)


@pytest.mark.parametrize("state_shape", [(), (1, 3), (4, 3)])
@pytest.mark.parametrize("anchor_shape", [(), (1, 3), (4, 3)])
def test_reverse_step_broadcasts_and_leaves_its_inputs(state_shape, anchor_shape):
    rng = np.random.default_rng(9)
    state = rng.normal(size=state_shape)
    anchor = rng.normal(size=anchor_shape)
    noise = rng.normal(size=(4, 3))
    before = [state.copy(), anchor.copy(), noise.copy()]
    t_prev, t_next = 0.9, 0.35
    out = reverse_step(state, t_prev, t_next, anchor, noise)
    for arr, orig in zip((state, anchor, noise), before):
        assert np.array_equal(arr, orig)
    assert out.shape == (4, 3)
    std = math.sqrt(t_next * (t_prev - t_next) / t_prev)
    assert np.array_equal(out, anchor + (t_next / t_prev) * (state - anchor) + std * noise)


@pytest.mark.parametrize("budget", [1 << 17, 12])  # one row block, or blocks of 4 rows
@pytest.mark.parametrize("order", ["C", "F"])
def test_reverse_step_in_place_and_in_row_blocks_matches_the_formula(monkeypatch, order, budget):
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", budget)
    rng = np.random.default_rng(13)
    state = np.asarray(rng.normal(size=(11, 3)), order=order)
    anchor = np.asarray(rng.normal(size=(11, 3)), order=order)
    noise = rng.normal(size=(11, 3))  # C-ordered, as the sampler draws it
    std = math.sqrt(0.35 * (0.9 - 0.35) / 0.9)
    want = anchor + (0.35 / 0.9) * (state - anchor) + std * noise
    assert np.array_equal(reverse_step(state, 0.9, 0.35, anchor, noise), want)
    got = reverse_step(state, 0.9, 0.35, anchor, noise, out=state)
    assert got is state
    assert np.array_equal(state, want)


@pytest.mark.parametrize("shape, budget", [
    ((11, 3), 1 << 17),  # one row block
    ((11, 3), 12),  # blocks of 4, 4 and 3 rows
    ((7,), 2),  # blocks of 2, 2, 2 and 1
    ((), 1 << 17),
], ids=["2d", "2d-blocks", "1d-blocks", "0d"])
@pytest.mark.parametrize("out_kind", ["new", "like", "state"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_reverse_step_draws_from_a_generator_as_from_its_array(monkeypatch, shape, budget, out_kind, order):
    # a Generator as noise gives the bits of the array call on
    # standard_normal(out.shape) from the same seed, and leaves the generator
    # where that draw leaves it
    monkeypatch.setattr(targets, "_BLOCK_ELEMS", budget)
    rng = np.random.default_rng(13)
    state = np.asarray(rng.normal(size=shape), order=order)
    anchor = np.asarray(rng.normal(size=shape), order=order)
    reference = np.random.default_rng(5)
    want = reverse_step(state, 0.9, 0.35, anchor, reference.standard_normal(shape))
    out = {"new": None, "like": np.empty_like(state), "state": state}[out_kind]
    gen = np.random.default_rng(5)
    got = reverse_step(state, 0.9, 0.35, anchor, gen, out=out)
    assert got.shape == shape
    if out is not None:
        assert got is out
    assert np.array_equal(got, want)
    assert gen.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# whole chains


def test_non_finite_nll_is_refused_by_name():
    # a denoiser error of 1e300 drives the states near 1e300, where log_prob
    # is -inf; the report names the NLL rather than take the std of infinities
    grid = grid_geometric(1.0, 1e-3, 32)
    cfg = SamplerConfig(n_samples=10, sigma_err=1e300)
    with pytest.raises(ValueError, match=r"^the sample NLL is not finite at 10 of 10 samples$"):
        sample(build_toy("circle8"), grid, cfg)


def test_point_mass_contracts_to_atom():
    z0 = np.array([0.3, -1.2])
    pm = FiniteDiscrete(points=[z0], probs=[1.0])
    grid = grid_geometric(1.0, 1e-4, 12)
    out, _ = sample(pm, grid, SamplerConfig(n_samples=400, seed=1))
    dist = np.linalg.norm(out - z0, axis=1).mean()
    assert dist <= 3.0 * math.sqrt(2 * 1e-4)


def test_single_gaussian_terminal_variance_k64():
    grid = grid_geometric(1.0, 1e-3, 64)
    out, _ = sample(single_gauss(), grid, SamplerConfig(n_samples=100_000, seed=9))
    want = gauss_terminal_variance(1.0, grid.gammas)
    got = out.var()
    # var of sample variance ~ 2 sigma^4 / n
    assert abs(got - want) <= 3.0 * want * math.sqrt(2.0 / out.size)


def test_single_gaussian_marginal_exact_in_law_k8():
    grid = grid_geometric(1.0, 1e-3, 8)
    out, _ = sample(single_gauss(), grid, SamplerConfig(n_samples=200_000, seed=3))
    want = gauss_terminal_variance(1.0, grid.gammas)
    assert abs(out.var() - want) <= 3.0 * want * math.sqrt(2.0 / out.size)


def test_nll_converges_on_fine_grids():
    """Coarse-to-fine NLL profile on a leak-dominated mixture.

    With a wide noise range the dominant coarse-grid failure is samples
    stranded between modes, so refining the grid lowers the NLL.
    """
    nll = []
    for K in (5, 10, 20, 40):
        grid = grid_geometric(1024.0, 2e-5, K)
        _, rep = sample(GRID8, grid, SamplerConfig(n_samples=6000, seed=7))
        nll.append((rep["nll_mean"], rep["nll_stderr"]))
    for (a, sa), (b, sb) in zip(nll, nll[1:]):
        assert b <= a + 3.0 * math.hypot(sa, sb)


def test_seed_determinism_bitwise():
    grid = grid_geometric(1.0, 1e-3, 6)
    cfg = SamplerConfig(n_samples=500, seed=12345)
    out1, rep1 = sample(GRID8, grid, cfg)
    out2, rep2 = sample(GRID8, grid, cfg)
    np.testing.assert_array_equal(out1, out2)
    assert rep1["nll_mean"] == rep2["nll_mean"]
    out3, _ = sample(GRID8, grid, SamplerConfig(n_samples=500, seed=54321))
    assert not np.array_equal(out1, out3)


@pytest.mark.parametrize("order, final_denoise, arrays",
                         [("first", False, 3.25), ("second", False, 4.25), ("first", True, 3.5)],
                         ids=["first", "second", "first-final_denoise"])
def test_sample_peak_memory_is_a_few_state_arrays(order, final_denoise, arrays):
    # the run's peak is a denoiser call's: the state, the anchor it writes,
    # plus the previous evaluation for the second order, and one row block of
    # the kernel, the (8, 10,922) numerators of a block with its (2, rows)
    # terms and the call's (4, rows) sums, about 0.77 of an (m, d) array more
    # (2.77 and 3.77 arrays in all). reverse_step works in place and draws one
    # row block of noise at a time; an (m, d) noise buffer would add one
    # array, and an un-blocked kernel would hold (m, 8) logits, four arrays
    # more. The final denoise's peak is the NLL of the denoised samples: the
    # samples, the denoised samples, the (m,) NLL and its negation, and one
    # block of log_prob's (8, rows) logits and (2, rows) centered points
    # (3.29 arrays)
    import tracemalloc

    m = 100_000
    dist = build_toy("circle8")
    grid = grid_geometric(1.0, 1e-3, 8)
    cfg = {"order": order, "final_denoise": final_denoise}
    sample(dist, grid, SamplerConfig(n_samples=10, **cfg))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        sample(dist, grid, SamplerConfig(n_samples=m, seed=11, **cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * m * dist.dim * 8


def _reference_chain(dist, grid, cfg):
    """The sampler's chain from the public kernels, on fresh C-ordered arrays."""
    t, ell = 1.0 / grid.gammas, np.log(grid.gammas)
    init_rng, step_rng, err_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    shape = (cfg.n_samples, dist.dim)
    if cfg.init == "exact_forward":
        Y = dist.sample(cfg.n_samples, init_rng) + math.sqrt(grid.T) * init_rng.standard_normal(shape)
    else:
        Y = init_rng.standard_normal(shape) * np.sqrt(grid.T + dist.axis_variances())
    prev = None
    for k in range(1, grid.K + 1):
        cur = posterior_mean(dist, t[k - 1], Y)
        if cfg.sigma_err > 0:
            cur = cur + cfg.sigma_err * err_rng.standard_normal(shape)
        anchor = cur
        if cfg.order == "second" and prev is not None:
            slope = (cur - prev) / (ell[k - 1] - ell[k - 2])
            anchor = slope * (0.5 * (ell[k] + ell[k - 1]) - ell[k - 1]) + cur
        prev = cur
        Y = reverse_step(Y, t[k - 1], t[k], anchor, step_rng.standard_normal(shape))
    return Y


def _wide_mixture(n, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n)
    return GaussianMixture(w / w.sum(), rng.normal(0.0, 1.5, (n, d)), rng.uniform(0.5, 1.0, n))


# d = 1, d = 2 in two row blocks of the kernel (16,384 + 3,616 rows), and
# d = 64 in two blocks (2,048 + 552 rows)
CHAIN_CASES = [
    (_wide_mixture(3, 1, 0), 500),
    (build_toy("circle8"), 20_000),
    (_wide_mixture(64, 64, 1), 2600),
]


@pytest.mark.parametrize("init", ["exact_forward", "gaussian_prior"])
@pytest.mark.parametrize("sigma_err", [0.0, 0.3])
@pytest.mark.parametrize("order", ["first", "second"])
@pytest.mark.parametrize("case", CHAIN_CASES, ids=["d1", "d2", "d64"])
def test_buffered_sampler_matches_the_reference_chain(case, order, sigma_err, init):
    # the sampler keeps a column-major state and reuses its buffers; every
    # draw keeps the values of a fresh C-ordered one, and the kernels give
    # the same bits for either memory order, so the chain is bit for bit the
    # one built from fresh arrays
    dist, m = case
    grid = grid_geometric(1.0, 1e-3, 5)
    cfg = SamplerConfig(n_samples=m, seed=17, order=order, sigma_err=sigma_err, init=init)
    out, _ = sample(dist, grid, cfg)
    assert out.flags.f_contiguous
    assert np.array_equal(out, _reference_chain(dist, grid, cfg))


# ---------------------------------------------------------------------------
# second order


def test_second_order_differs_for_state_dependent_denoiser():
    """Even a linear posterior mean gives different anchors across orders.

    The two stored denoiser values sit at different states, so the
    log-SNR-extrapolated anchor is not the frozen one; only a constant
    denoiser (point mass) makes the orders coincide. Both runs still share
    one noise stream, so the gap is pure anchor effect, and the
    second-order chain tracks the true marginal better (variance test
    below).
    """
    grid = grid_geometric(1.0, 1e-3, 8)
    cfg1 = SamplerConfig(n_samples=2000, seed=21, order="first")
    cfg2 = SamplerConfig(n_samples=2000, seed=21, order="second")
    out1, _ = sample(single_gauss(), grid, cfg1)
    out2, _ = sample(single_gauss(), grid, cfg2)
    assert out1.shape == out2.shape
    assert np.max(np.abs(out2 - out1)) > 1e-3


def test_second_order_point_mass_identical_to_first():
    pm = FiniteDiscrete(points=[[0.5, -0.5]], probs=[1.0])
    grid = grid_geometric(1.0, 1e-3, 5)
    out1, _ = sample(pm, grid, SamplerConfig(n_samples=300, seed=4, order="first"))
    out2, _ = sample(pm, grid, SamplerConfig(n_samples=300, seed=4, order="second"))
    np.testing.assert_array_equal(out1, out2)


def test_second_order_k2_runs_and_differs_on_mixture():
    grid = grid_geometric(1.0, 1e-2, 2)
    out1, _ = sample(GRID8, grid, SamplerConfig(n_samples=200, seed=6, order="first"))
    out2, _ = sample(GRID8, grid, SamplerConfig(n_samples=200, seed=6, order="second"))
    assert out1.shape == out2.shape == (200, 2)
    assert not np.allclose(out1, out2)


def test_second_order_requires_two_intervals():
    grid = SnrGrid([1.0, 100.0])
    with pytest.raises(ValueError):
        sample(single_gauss(), grid, SamplerConfig(n_samples=10, order="second"))


def test_second_order_terminal_variance_is_law_faithful():
    """Where the anchors are exact (linear denoiser) the second-order chain
    keeps the terminal variance near truth; the first-order chain contracts."""
    grid = grid_geometric(1.0, 1e-3, 8)
    true_var = 1.0 + 1e-3  # X_delta = Z + W_delta, sigma0^2 + delta
    out2, _ = sample(
        single_gauss(), grid, SamplerConfig(n_samples=200_000, seed=3, order="second")
    )
    frozen_var = gauss_terminal_variance(1.0, grid.gammas)
    got = out2.var()
    assert abs(got - true_var) < abs(frozen_var - true_var)
    assert got == pytest.approx(true_var, rel=0.05)


# ---------------------------------------------------------------------------
# config and report plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, order="third")
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, init="warm")
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=10, sigma_err=bad)


def test_report_fields_and_json():
    grid = grid_geometric(1.0, 1e-3, 6)
    _, rep = sample(GRID8, grid, SamplerConfig(n_samples=800, seed=2))
    assert rep["n_samples"] == 800
    assert math.isfinite(rep["nll_mean"])
    assert rep["nll_stderr"] >= 0.0
    assert len(rep["gammas"]) == 7
    assert rep["config"]["seed"] == 2
    assert rep["denoised_nll_mean"] is None


def test_final_denoise_reports_second_nll():
    grid = grid_geometric(1.0, 1e-3, 6)
    _, rep = sample(
        GRID8, grid, SamplerConfig(n_samples=800, seed=2, final_denoise=True)
    )
    assert rep["denoised_nll_mean"] is not None
    assert math.isfinite(rep["denoised_nll_mean"])
    assert rep["denoised_nll_stderr"] >= 0.0


def test_nll_absent_for_discrete_targets():
    pm = FiniteDiscrete(points=[[0.0]], probs=[1.0])
    grid = grid_geometric(1.0, 1e-3, 4)
    _, rep = sample(pm, grid, SamplerConfig(n_samples=50, seed=1))
    assert rep["nll_mean"] is rep["nll_stderr"] is None


def test_noisy_denoiser_degrades_gracefully():
    grid = grid_geometric(1.0, 1e-3, 8)
    _, clean = sample(GRID8, grid, SamplerConfig(n_samples=4000, seed=5))
    _, noisy = sample(
        GRID8,
        grid,
        SamplerConfig(n_samples=4000, seed=5, sigma_err=0.3),
    )
    assert math.isfinite(noisy["nll_mean"])
    assert noisy["nll_mean"] > clean["nll_mean"]


def test_gaussian_prior_init_runs():
    grid = grid_geometric(1.0, 1e-3, 6)
    out, rep = sample(
        single_gauss(), grid, SamplerConfig(n_samples=2000, seed=10, init="gaussian_prior")
    )
    assert out.shape == (2000, 1)
    assert math.isfinite(rep["nll_mean"])
