"""Baseline grids and the two schedule DPs."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_first_order,
    brute_second_order,
    dp_minimal_paths,
    eta_of,
    first_order_dp,
    first_order_objective,
    first_order_path,
    first_order_table,
    pair_dp,
    pair_dp_optimum,
    random_candidates,
    second_order_objective,
)
from snrsched import schedules
from snrsched.functionals import LossProfile
from snrsched.schedules import (
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


# ---------------------------------------------------------------------------
# regularized axis


def test_eta_examples():
    assert eta_axis(1.0, 1.5) == pytest.approx(1.0 / 3.25, rel=1e-12)
    assert eta_axis(1.0, 1.5) == pytest.approx(0.307692, abs=1e-6)
    assert eta_axis(0.0, 1.5) == 0.0
    assert eta_axis(1e12, 1.5) == pytest.approx(1.0 / 2.25, rel=1e-6)
    assert eta_axis(1e12, 1.5) == pytest.approx(0.444444, abs=1e-6)


def test_eta_strictly_increasing_and_saturating():
    g = np.geomspace(1e-3, 1e9, 200)
    e = eta_axis(g, 0.7)
    assert np.all(np.diff(e) > 0)
    assert np.all(e < 1.0 / 0.49)


def test_eta_lambda_zero_is_identity():
    # degenerate but useful: lam=0 must be rejected (objective would be
    # the unregularized one whose axis is gamma itself)
    with pytest.raises(ValueError):
        eta_axis(1.0, 0.0)


@pytest.mark.parametrize("lam", [1e300, np.float64(1e300), 1.5e154, math.inf])
def test_lambda_whose_square_overflows_is_rejected(lam):
    # eta's lam**2 would overflow: a Python float raises OverflowError, numpy warns
    with pytest.raises(ValueError, match="lambda"):
        LasConfig(K=3, lam=lam)
    with pytest.raises(ValueError, match="lambda"):
        eta_axis(1.0, lam)
    assert eta_axis(1.0, 1.3e154) > 0.0


def test_eta_rejects_negative_gamma():
    # and a non-finite one, for which eta would be nan (inf also warned)
    for gamma in (-0.5, math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(ValueError, match="gamma"):
            eta_axis(gamma, 1.0)


@pytest.mark.parametrize("K", [2.5, np.float64(3.0), True])
def test_counts_must_be_integers(K):
    with pytest.raises(ValueError, match="K"):
        LasConfig(K=K)
    with pytest.raises(ValueError, match="K"):
        grid_geometric(1.0, 1e-3, K)
    assert LasConfig(K=np.int64(3)).K == 3


# ---------------------------------------------------------------------------
# baseline grid builders


def test_time_uniform_example():
    g = grid_time_uniform(1.0, 0.2, 2)
    np.testing.assert_allclose(g.gammas, [1.0, 1.0 / 0.6, 5.0], rtol=1e-12)


def test_time_uniform_k1_endpoints():
    g = grid_time_uniform(3.0, 0.5, 1)
    np.testing.assert_allclose(g.gammas, [1.0 / 3.0, 2.0], rtol=1e-12)


def test_time_uniform_endpoints_always_exact():
    g = grid_time_uniform(2.0, 1e-3, 9)
    assert g.gammas[0] == pytest.approx(0.5, rel=1e-14)
    assert g.gammas[-1] == pytest.approx(1e3, rel=1e-14)


def test_time_uniform_delta_below_half_an_ulp_of_t():
    # T - s_K rounds to 0 here; the reciprocal must skip the endpoints it overwrites
    g = grid_time_uniform(1.0, 1e-20, 4)
    np.testing.assert_array_equal(g.gammas, [1.0, 4.0 / 3.0, 2.0, 4.0, 1e20])
    for T, delta, K in ((2.0, 1e-3, 9), (1.0, 0.01, 1), (3.0, 0.7, 5)):
        s = np.linspace(0.0, T - delta, K + 1)
        want = 1.0 / (T - s)
        want[0], want[-1] = 1.0 / T, 1.0 / delta
        np.testing.assert_array_equal(grid_time_uniform(T, delta, K).gammas, want)


def test_time_uniform_rejects_bad_order():
    with pytest.raises(ValueError):
        grid_time_uniform(0.25, 1.0, 4)


def test_geometric_example():
    g = grid_geometric(1.0, 0.01, 2)
    np.testing.assert_allclose(g.gammas, [1.0, 10.0, 100.0], rtol=1e-12)


def test_geometric_equal_log_steps():
    g = grid_geometric(4.0, 1e-3, 13)
    h = np.log(g.gammas[1:] / g.gammas[:-1])
    np.testing.assert_allclose(h, h[0], rtol=1e-12)


def test_geometric_k1():
    g = grid_geometric(2.0, 0.5, 1)
    np.testing.assert_allclose(g.gammas, [0.5, 2.0], rtol=1e-14)


def test_edm_rho1_linear_in_sigma():
    g = grid_edm(1.0, 0.04, 4, rho=1.0)
    sig = np.sort(1.0 / np.sqrt(g.gammas))
    np.testing.assert_allclose(np.diff(sig), np.diff(sig)[0], rtol=1e-9)


def test_edm_rho7_ascending_with_exact_endpoints():
    g = grid_edm(1.0, 0.01, 4, rho=7.0)
    assert np.all(np.diff(g.gammas) > 0)
    assert g.gammas[0] == pytest.approx(1.0, rel=1e-12)
    assert g.gammas[-1] == pytest.approx(100.0, rel=1e-12)


def test_edm_k1_endpoints_only():
    g = grid_edm(1.0, 0.01, 1)
    np.testing.assert_allclose(g.gammas, [1.0, 100.0], rtol=1e-12)


def test_edm_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        grid_edm(1.0, 0.01, 4, rho=0.0)


def test_edm_small_rho_computes_interior_knots_only():
    # the last sigma rounds to 0 below rho ~ 0.09 here; 1/0 would warn, and
    # the suite turns RuntimeWarning into an error
    g = grid_edm(1.0, 1e-3, 4, rho=0.05)
    assert g.gammas[0] == 1.0 and g.gammas[-1] == 1e3
    assert np.all(np.diff(g.gammas) > 0)
    for T, delta, K, rho in ((1.0, 1e-3, 8, 7.0), (2.0, 1e-4, 9, 3.0), (1.0, 0.01, 5, 7.5)):
        smax, smin = math.sqrt(T), math.sqrt(delta)
        ramp = np.arange(K + 1) / K
        want = 1.0 / ((smax ** (1 / rho) + ramp * (smin ** (1 / rho) - smax ** (1 / rho))) ** rho) ** 2
        want[0], want[-1] = 1.0 / T, 1.0 / delta
        np.testing.assert_array_equal(grid_edm(T, delta, K, rho).gammas, want)


@pytest.mark.parametrize("rho", [1e-4, 1e-320])
def test_edm_rejects_rho_whose_power_overflows(rho):
    with pytest.raises(ValueError, match="rho"):
        grid_edm(4.0, 1e-3, 4, rho=rho)


def test_edm_default_rho_is_seven():
    np.testing.assert_allclose(
        grid_edm(1.0, 0.01, 6).gammas, grid_edm(1.0, 0.01, 6, rho=7.0).gammas
    )


# ---------------------------------------------------------------------------
# exact first-order DP


def test_las_exact_constant_loss():
    gam = np.geomspace(1.0, 50.0, 8)
    cands = LossProfile(gammas=gam, losses=np.full(8, 0.42))
    cfg = LasConfig(K=3, lam=1.1)
    sched = las_exact(cands, cfg)
    assert tuple(sched.indices) == (0, 1, 2, 7)
    want = 0.42 * (eta_of(gam[-1], 1.1) - eta_of(gam[0], 1.1))
    assert sched.objective == pytest.approx(want, rel=1e-12)


def test_las_exact_k_equals_n_minus_1_forced():
    gam = np.geomspace(0.5, 20.0, 5)
    cands = LossProfile(gammas=gam, losses=np.array([1.0, 0.7, 0.4, 0.2, 0.1]))
    sched = las_exact(cands, LasConfig(K=4, lam=1.5))
    assert tuple(sched.indices) == (0, 1, 2, 3, 4)


def test_las_exact_matches_exhaustive_100_instances():
    rng = np.random.default_rng(23)
    for _ in range(100):
        gam, risks = random_candidates(rng, 6)
        cands = LossProfile(gammas=gam, losses=risks)
        lam = float(rng.uniform(0.3, 2.5))
        sched = las_exact(cands, LasConfig(K=3, lam=lam))
        best_idx, best_obj = brute_first_order(gam, risks, 3, lam)
        assert tuple(sched.indices) == best_idx
        assert sched.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-15)


def _tie_candidates(rng, n, case):
    """Knots and risks of seeded DP instance ``case``: half are tie-heavy.

    Cases 0 and 1 (mod 4) draw random candidates; case 2 puts risks in
    {0, 0.5, 1} and case 3 a constant risk on geometric knots, so equal-cost
    predecessors are common.
    """
    if case % 4 < 2:
        return random_candidates(rng, n)
    if case % 4 == 2:
        gam, _ = random_candidates(rng, n)
        return gam, rng.choice([0.0, 0.5, 1.0], size=n)
    gam = np.geomspace(float(rng.uniform(0.1, 2.0)), float(rng.uniform(5.0, 500.0)), n)
    return gam, np.full(n, float(rng.choice([0.0, 0.25, 1.0])))


def test_las_exact_matches_stage_major_dp_indices_and_ties():
    # tie_breaks sums the equal-cost predecessors along the chosen path
    rng = np.random.default_rng(8)
    for case in range(1200):
        n = int(rng.integers(2, 31))
        K = int(rng.integers(1, n))
        lam = float(rng.choice([0.3, 1.5, 4.0]))
        gam, risks = _tie_candidates(rng, n, case)
        sched = las_exact(LossProfile(gammas=gam, losses=risks), LasConfig(K=K, lam=lam))
        want_idx, want_ties = first_order_dp(gam, risks, K, lam)
        assert (tuple(sched.indices), sched.tie_breaks) == (want_idx, want_ties), (n, K, lam, case)


def test_las_exact_tie_breaks_flag_a_second_dp_minimal_path():
    # tie_breaks > 0 exactly when two index paths take a DP minimum at every
    # step, so a tied cell that no such path passes through does not count
    rng = np.random.default_rng(12)
    seen = set()
    for n in range(2, 11):
        for K in range(1, n):
            for case in range(8):
                lam = float(rng.choice([0.3, 1.5, 4.0]))
                gam, risks = _tie_candidates(rng, n, case)
                sched = las_exact(LossProfile(gammas=gam, losses=risks), LasConfig(K=K, lam=lam))
                several = dp_minimal_paths(gam, risks, K, lam) >= 2
                assert (sched.tie_breaks > 0) == several, (n, K, lam, case)
                seen.add(several)
    assert seen == {False, True}


def _block_candidates(rng, n, case):
    """Knots and risks of seeded multi-block instance ``case``, by case % 4.

    0: iid risks; 1: risks in {0, 0.5, 1}; 2: a constant risk on geometric
    knots (as :func:`_tie_candidates` draws them); 3: iid risks on knots
    inside [g0, g0 (1 + 1e-9)], g0 in {1e6, 1e10, 1e16}, where float
    eta = g / (1 + 1.5^2 g) decreases at 70, 173 and 158 of 399 steps of
    400 evenly spaced knots.
    """
    if case % 4 < 3:
        return _tie_candidates(rng, n, case % 4 + 1)
    g0 = [1e6, 1e10, 1e16][case // 4 % 3]
    return np.linspace(g0, g0 * (1 + 1e-9), n), rng.uniform(0.05, 2.0, size=n)


def test_first_order_table_matches_the_oracle_across_many_blocks(monkeypatch):
    # blocks of max(K, 32) targets, so n up to 200 spans up to 7 blocks and
    # the last 10 cases, at n >= 300 and K <= 8, at least 10; the table is
    # compared whole, inf cells included. The defaults gather about half of
    # the (block, stage) pairs and read the rest as a span, each in one chunk
    # at these sizes, so every third case also runs with blocks of K
    # targets, chunks of n cells and every stage gathered (even cases) or
    # read as a span (odd cases).
    rng = np.random.default_rng(26)
    eta_lt_prev = 0
    for case in range(160):
        n = int(rng.integers(40, 201) if case < 150 else rng.integers(300, 401))
        K = int(rng.integers(1, 12) if case < 150 else rng.integers(2, 9))
        lam = 1.5 if case % 4 == 3 else float(rng.choice([0.3, 1.5, 4.0]))
        gam, risks = _block_candidates(rng, n, case)
        eta = eta_axis(gam, lam)
        eta_lt_prev += int(np.sum(np.diff(eta) < 0))
        dp, par, extra = first_order_table(gam, risks, K, lam)
        want = np.array(dp)
        assert np.array_equal(schedules._first_order_table(eta, risks, K), want), (n, K, lam, case)
        if case % 3 == 0:
            with monkeypatch.context() as m:
                m.setattr(schedules, "_BLOCK_CELLS", 1)  # chunks hold max(_BLOCK_CELLS, n) cells
                m.setattr(schedules, "_MIN_TARGETS", 1)  # blocks of K targets
                m.setattr(schedules, "_GATHER_COST", math.inf if case % 2 else 0)
                got = schedules._first_order_table(eta, risks, K)
            assert np.array_equal(got, want), (n, K, lam, case)
        sched = las_exact(LossProfile(gammas=gam, losses=risks), LasConfig(K=K, lam=lam))
        assert (sched.indices, sched.tie_breaks) == first_order_path(par, extra), (n, K, lam, case)
    assert eta_lt_prev > 0  # float eta is not monotone on the narrow knots


_BENCH_N = 4096


def _bench_candidates(kind):
    knots = np.geomspace(0.01, 1e4, _BENCH_N)
    if kind == "noisy":
        return random_candidates(np.random.default_rng(5), _BENCH_N, gamma_lo=0.01, gamma_hi=1e4)
    if kind == "constant":
        return knots, np.full(_BENCH_N, 0.25)
    return knots, np.random.default_rng(1).choice([0.0, 0.5, 1.0], _BENCH_N)


@pytest.mark.parametrize("kind, indices, ties, objective", [
    ("noisy", (0, 1, 5, 6, 18, 147, 1570, 1574, 2912, 3726, 3927, 3965, 3970, 3986, 3988, 3992,
               3993, 4044, 4045, 4046, 4048, 4051, 4060, 4061, 4063, 4069, 4070, 4071, 4072,
               4073, 4091, 4092, 4095), 0, "0.02246246034371671"),
    ("constant", tuple(range(32)) + (4095,), 3494, "0.10866118528391402"),
    ("three", (0, 1, 4, 5, 8, 9, 12, 14, 18, 19, 25, 28, 29, 30, 33, 37, 39, 40, 42, 43, 46, 50,
               52, 55, 57, 58, 62, 63, 73, 79, 84, 87, 4095), 1302, "6.495614948468561e-05"),
], ids=["noisy", "constant", "three"])
def test_las_exact_keeps_its_results_at_benchmark_scale(kind, indices, ties, objective):
    # values of the one-pass full scan that the bounded block fill replaced
    gam, risks = _bench_candidates(kind)
    sched = las_exact(LossProfile(gammas=gam, losses=risks), LasConfig(K=32, lam=1.5))
    assert (sched.indices, sched.tie_breaks, repr(sched.objective)) == (indices, ties, objective)


@pytest.mark.parametrize("kind", ["noisy", "constant"])
def test_las_exact_memory_stays_near_its_tables(kind):
    # one (K + 1, n) cost table, one (max(K, 32), n) step block and two
    # buffers of 2^15 cells; a constant risk lets no predecessor be skipped,
    # so its spans are as long as they get. A fresh block per target, a
    # predecessor table, or spans and gathers built whole push the peak over
    # the bound
    n, K = _BENCH_N, 32
    gam, risks = _bench_candidates(kind)
    cands = LossProfile(gammas=gam, losses=risks)
    cfg = LasConfig(K=K, lam=1.5)
    tracemalloc.start()
    try:
        las_exact(cands, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (K + 1) * n * 8


def test_las_exact_objective_recomputes():
    rng = np.random.default_rng(3)
    gam, risks = random_candidates(rng, 9)
    cands = LossProfile(gammas=gam, losses=risks)
    sched = las_exact(cands, LasConfig(K=4, lam=0.9))
    redo = schedule_objective(cands, sched.indices, lam=0.9, alpha=0.0)
    assert sched.objective == pytest.approx(redo, rel=1e-12)


def test_las_exact_infeasible():
    gam = np.array([1.0, 2.0, 4.0])
    cands = LossProfile(gammas=gam, losses=np.ones(3))
    with pytest.raises(InfeasibleError):
        las_exact(cands, LasConfig(K=3, lam=1.0))


def test_las_exact_rejects_positive_alpha():
    cands = LossProfile(gammas=np.array([1.0, 2.0, 4.0]), losses=np.ones(3))
    with pytest.raises(ValueError):
        las_exact(cands, LasConfig(K=2, lam=1.0, alpha=0.5))


def test_las_exact_scale_equivariance():
    rng = np.random.default_rng(41)
    gam, risks = random_candidates(rng, 10)
    a = las_exact(LossProfile(gammas=gam, losses=risks), LasConfig(K=4, lam=1.5))
    b = las_exact(LossProfile(gammas=gam, losses=7.5 * risks), LasConfig(K=4, lam=1.5))
    assert tuple(a.indices) == tuple(b.indices)
    assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-12)


# ---------------------------------------------------------------------------
# second-order pair DP


def test_las_beam_tiny_alpha_recovers_exact():
    rng = np.random.default_rng(12)
    gam, risks = random_candidates(rng, 8)
    cands = LossProfile(gammas=gam, losses=risks)
    exact = las_exact(cands, LasConfig(K=3, lam=1.5))
    beam = las_beam(cands, LasConfig(K=3, lam=1.5, alpha=1e-12))
    assert beam.objective == pytest.approx(exact.objective, abs=1e-9)


def test_las_beam_exhaustive_small_instances():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(5, 11))
        K = int(rng.integers(2, min(5, n)))
        gam, risks = random_candidates(rng, n)
        cands = LossProfile(gammas=gam, losses=risks)
        lam = float(rng.uniform(0.4, 2.0))
        alpha = float(rng.choice([0.1, 1.0, 12.0]))
        sched = las_beam(cands, LasConfig(K=K, lam=lam, alpha=alpha))
        best_idx, best_obj = brute_second_order(gam, risks, K, lam, alpha)
        assert tuple(sched.indices) == best_idx
        assert sched.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-15)


def test_las_beam_default_config_matches_brute_force():
    # a windowed search misses this optimum: (0, 3, 32, 95) vs (0, 3, 48, 95)
    gam = np.geomspace(0.1, 1e4, 96)
    risks = np.random.default_rng(0).uniform(0.01, 3.0, 96)
    sched = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=3, alpha=1e-3))
    best_idx, best_obj = brute_second_order(gam, risks, 3, 1.5, 1e-3)
    assert tuple(sched.indices) == best_idx
    assert sched.objective == pytest.approx(best_obj, rel=1e-12)


def _pair_dp_instances(count):
    """``count`` seeded pair-DP instances (gammas, risks, K, lam, alpha).

    Half are tie-heavy (:func:`_tie_candidates`); 31 of the first 1000 have
    equal-cost final picks.
    """
    rng = np.random.default_rng(9)
    for case in range(count):
        n = int(rng.integers(2, 17))
        K = int(rng.integers(1, n))
        lam = float(rng.choice([0.3, 1.5, 4.0]))
        alpha = float(rng.choice([1e-3, 0.1, 1.0, 12.0]))
        yield (*_tie_candidates(rng, n, case), K, lam, alpha)


def test_las_beam_matches_stage_major_pair_dp_indices():
    for case, (gam, risks, K, lam, alpha) in enumerate(_pair_dp_instances(1000)):
        sched = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=K, lam=lam, alpha=alpha))
        want = pair_dp(gam, risks, K, lam, alpha)
        assert tuple(sched.indices) == want, (gam.size, K, lam, alpha, case)


@pytest.mark.parametrize("cells", [1, 7, 64, schedules._BLOCK_CELLS])
def test_las_beam_block_size_keeps_indices(monkeypatch, cells):
    # 1 makes every block one b; 7 splits stage K into several b per block
    # with a shorter last block, and 64 does so at the inner stages too;
    # n <= 16 puts a whole stage in one block at the default
    monkeypatch.setattr(schedules, "_BLOCK_CELLS", cells)
    for gam, risks, K, lam, alpha in _pair_dp_instances(200):
        sched = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=K, lam=lam, alpha=alpha))
        assert tuple(sched.indices) == pair_dp(gam, risks, K, lam, alpha), (cells, K, lam, alpha)


def test_las_beam_predecessors_past_255():
    # the optimum's first interior knot is 260, which a one-byte
    # predecessor table would wrap to 4; the table widens with n
    gam = np.geomspace(0.1, 10.0, 300)
    risks = np.where(np.arange(300) < 260, 2.0, 0.01)
    risks[0] = 0.01
    sched = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=3, alpha=1e-3))
    best_idx, best_obj = brute_second_order(gam, risks, 3, 1.5, 1e-3)
    assert best_idx[1] > 255
    assert tuple(sched.indices) == best_idx
    assert sched.objective == pytest.approx(best_obj, rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-3, 1.0])
def test_las_beam_reaches_pair_dp_optimum(alpha):
    gam = np.geomspace(0.1, 1e4, 128)
    risks = np.random.default_rng(2).uniform(0.01, 3.0, 128)
    sched = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=20, alpha=alpha))
    assert sched.objective == pytest.approx(pair_dp_optimum(gam, risks, 20, 1.5, alpha), rel=1e-12)


def test_las_beam_alpha12_smooths_u_shaped_profile():
    # risks dip sharply in the middle; alpha=0 chases the dip, alpha=12
    # must return a schedule whose log-step penalty is no larger
    gam = np.geomspace(0.5, 200.0, 24)
    risks = 0.2 + 1.5 * (np.log(gam / 10.0)) ** 2 / 10.0
    cands = LossProfile(gammas=gam, losses=risks)
    rough = las_exact(cands, LasConfig(K=6, lam=1.5))
    smooth = las_beam(cands, LasConfig(K=6, lam=1.5, alpha=12.0))

    def penalty(idx):
        h = np.diff(np.log(gam[np.asarray(idx)]))
        return float(np.sum(np.diff(h) ** 2))

    assert penalty(smooth.indices) <= penalty(rough.indices) + 1e-12


def test_las_beam_rejects_zero_alpha():
    cands = LossProfile(gammas=np.array([1.0, 2.0, 4.0]), losses=np.ones(3))
    with pytest.raises(ValueError):
        las_beam(cands, LasConfig(K=2, lam=1.0, alpha=0.0))


def test_las_beam_infeasible():
    cands = LossProfile(gammas=np.array([1.0, 2.0]), losses=np.ones(2))
    with pytest.raises(InfeasibleError):
        las_beam(cands, LasConfig(K=4, lam=1.0, alpha=1.0))


def test_las_beam_scale_equivariance():
    rng = np.random.default_rng(55)
    gam, risks = random_candidates(rng, 12)
    c = 3.0
    a = las_beam(LossProfile(gammas=gam, losses=risks), LasConfig(K=4, lam=1.2, alpha=2.0))
    b = las_beam(
        LossProfile(gammas=gam, losses=c * risks), LasConfig(K=4, lam=1.2, alpha=c * 2.0)
    )
    assert tuple(a.indices) == tuple(b.indices)
    assert b.objective == pytest.approx(c * a.objective, rel=1e-12)


# ---------------------------------------------------------------------------
# shared schedule invariants


def every_schedule():
    rng = np.random.default_rng(2)
    gam, risks = random_candidates(rng, 11)
    cands = LossProfile(gammas=gam, losses=risks)
    yield cands, las_exact(cands, LasConfig(K=4, lam=1.5))
    yield cands, las_beam(cands, LasConfig(K=4, lam=1.5, alpha=3.0))


def test_endpoints_pinned():
    for cands, sched in every_schedule():
        assert sched.indices[0] == 0
        assert sched.indices[-1] == cands.n - 1


def test_schedule_json_round_trip():
    for _, sched in every_schedule():
        obj = json.loads(json.dumps(sched.to_json_dict()))
        assert obj["indices"] == list(sched.indices)
        np.testing.assert_array_equal(obj["gammas"], sched.gammas)
        assert obj["objective"] == sched.objective
        assert obj["K"] == sched.K == len(sched.indices) - 1
        assert obj["algorithm"] == sched.algorithm == ("exact" if sched.alpha == 0 else "beam")
        assert obj["lambda"] == sched.lam
        assert obj["alpha"] == sched.alpha
        assert obj["tie_breaks"] == sched.tie_breaks


def test_schedule_json_keeps_tie_breaks():
    cands = LossProfile(gammas=np.geomspace(1.0, 100.0, 8), losses=np.full(8, 0.5))
    sched = las_exact(cands, LasConfig(K=4, lam=1.5))
    assert sched.tie_breaks == 3
    assert sched.to_json_dict()["tie_breaks"] == 3


@pytest.mark.parametrize(
    "gammas, objective",
    [
        ([math.nan, 2.0], 1.0),
        ([1.0, math.inf], 1.0),
        ([1.0, 2.0], math.nan),
        ([1.0, 2.0], -math.inf),
        ([1.0, 2.0, 3.0, 4.0], 1.0),
        ([1.0], 1.0),
    ],
    ids=["nan_gamma", "inf_gamma", "nan_objective", "inf_objective", "long_gammas", "short_gammas"],
)
def test_schedule_rejects_nonfinite_or_missized_data(gammas, objective):
    with pytest.raises(ValueError):
        Schedule(indices=(0, 1), gammas=gammas, objective=objective, lam=1.5, alpha=0.0)


def test_schedule_grid_matches_selected_gammas():
    for cands, sched in every_schedule():
        np.testing.assert_array_equal(sched.gammas, cands.gammas[np.asarray(sched.indices)])


def test_objective_helpers_agree_with_package():
    rng = np.random.default_rng(31)
    gam, risks = random_candidates(rng, 9)
    cands = LossProfile(gammas=gam, losses=risks)
    idx = (0, 2, 5, 8)
    assert schedule_objective(cands, idx, lam=1.5, alpha=0.0) == pytest.approx(
        first_order_objective(gam, risks, idx, 1.5), rel=1e-12
    )
    assert schedule_objective(cands, idx, lam=1.5, alpha=4.0) == pytest.approx(
        second_order_objective(gam, risks, idx, 1.5, 4.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# the DP input: a loss profile


def test_loss_profile_validation():
    with pytest.raises(ValueError):
        LossProfile(gammas=np.array([2.0, 1.0]), losses=np.ones(2))
    with pytest.raises(ValueError):
        LossProfile(gammas=np.array([1.0, 2.0]), losses=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        LossProfile(gammas=np.array([1.0]), losses=np.array([1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LossProfile(gammas=np.array([1.0, 2.0, 4.0]), losses=np.array([0.5, bad, 0.5]))
        with pytest.raises(ValueError):
            LossProfile(gammas=np.array([1.0, 2.0, bad]), losses=np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_las_config_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        LasConfig(K=2, lam=bad)
    with pytest.raises(ValueError):
        LasConfig(K=2, alpha=bad)


def test_loss_profile_n():
    assert LossProfile(gammas=np.array([1.0, 4.0, 9.0]), losses=np.ones(3)).n == 3


@st.composite
def _schedules(draw):
    K = draw(st.integers(1, 6))
    indices = draw(st.lists(st.integers(0, 10**6), min_size=K + 1, max_size=K + 1, unique=True))
    indices.sort()
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return Schedule(
        indices=indices,
        gammas=np.array(draw(st.lists(finite, min_size=K + 1, max_size=K + 1))),
        objective=draw(finite),
        lam=draw(finite),
        alpha=draw(finite),
        tie_breaks=draw(st.integers(0, 10**9)),
    )


@settings(max_examples=100, deadline=None)
@given(_schedules())
def test_schedule_json_round_trip_property(sched):
    # strict JSON (no NaN or Infinity) that reads back bit for bit
    obj = json.loads(json.dumps(sched.to_json_dict(), allow_nan=False))
    assert np.array(obj["gammas"]).tobytes() == sched.gammas.tobytes()
    assert obj["objective"] == sched.objective
    assert (tuple(obj["indices"]), obj["K"], obj["tie_breaks"]) == (
        sched.indices, sched.K, sched.tie_breaks)
