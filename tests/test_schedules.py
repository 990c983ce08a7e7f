"""Baseline grids and the two schedule DPs."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    brute_first_order,
    brute_second_order,
    eta_of,
    first_order_dp,
    first_order_objective,
    pair_dp,
    pair_dp_optimum,
    random_candidates,
    second_order_objective,
)
from snrsched.schedules import (
    CandidateSet,
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


def test_eta_rejects_negative_gamma():
    with pytest.raises(ValueError):
        eta_axis(-0.5, 1.0)


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


def test_time_uniform_rejects_bad_order():
    with pytest.raises(ValueError):
        grid_time_uniform(0.25, 1.0, 4)


def test_geometric_example():
    g = grid_geometric(1.0, 0.01, 2)
    np.testing.assert_allclose(g.gammas, [1.0, 10.0, 100.0], rtol=1e-12)


def test_geometric_equal_log_steps():
    g = grid_geometric(4.0, 1e-3, 13)
    h = g.log_steps
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


def test_edm_default_rho_is_seven():
    np.testing.assert_allclose(
        grid_edm(1.0, 0.01, 6).gammas, grid_edm(1.0, 0.01, 6, rho=7.0).gammas
    )


# ---------------------------------------------------------------------------
# exact first-order DP


def test_las_exact_constant_loss():
    gam = np.geomspace(1.0, 50.0, 8)
    cands = CandidateSet(gammas=gam, risks=np.full(8, 0.42))
    cfg = LasConfig(K=3, lam=1.1)
    sched = las_exact(cands, cfg)
    assert tuple(sched.indices) == (0, 1, 2, 7)
    want = 0.42 * (eta_of(gam[-1], 1.1) - eta_of(gam[0], 1.1))
    assert sched.objective == pytest.approx(want, rel=1e-12)


def test_las_exact_k_equals_n_minus_1_forced():
    gam = np.geomspace(0.5, 20.0, 5)
    cands = CandidateSet(gammas=gam, risks=np.array([1.0, 0.7, 0.4, 0.2, 0.1]))
    sched = las_exact(cands, LasConfig(K=4, lam=1.5))
    assert tuple(sched.indices) == (0, 1, 2, 3, 4)


def test_las_exact_matches_exhaustive_100_instances():
    rng = np.random.default_rng(23)
    for _ in range(100):
        gam, risks = random_candidates(rng, 6)
        cands = CandidateSet(gammas=gam, risks=risks)
        lam = float(rng.uniform(0.3, 2.5))
        sched = las_exact(cands, LasConfig(K=3, lam=lam))
        best_idx, best_obj = brute_first_order(gam, risks, 3, lam)
        assert tuple(sched.indices) == best_idx
        assert sched.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-15)


def test_las_exact_matches_stage_major_dp_indices_and_ties():
    # half the instances are tie-heavy: risks in {0, 0.5, 1}, or constant
    # risk on geometric knots, so equal-cost predecessors are common
    rng = np.random.default_rng(8)
    for case in range(1200):
        n = int(rng.integers(2, 31))
        K = int(rng.integers(1, n))
        lam = float(rng.choice([0.3, 1.5, 4.0]))
        if case % 4 < 2:
            gam, risks = random_candidates(rng, n)
        elif case % 4 == 2:
            gam, _ = random_candidates(rng, n)
            risks = rng.choice([0.0, 0.5, 1.0], size=n)
        else:
            gam = np.geomspace(float(rng.uniform(0.1, 2.0)), float(rng.uniform(5.0, 500.0)), n)
            risks = np.full(n, float(rng.choice([0.0, 0.25, 1.0])))
        sched = las_exact(CandidateSet(gammas=gam, risks=risks), LasConfig(K=K, lam=lam))
        want_idx, want_ties = first_order_dp(gam, risks, K, lam)
        assert (tuple(sched.indices), sched.tie_breaks) == (want_idx, want_ties), (n, K, lam, case)


def test_las_exact_memory_stays_near_its_tables():
    # one (K + 1, n) cost table and one (K, n) scratch block; a fresh block
    # per target or a predecessor table pushes the peak over the bound
    n, K = 4096, 32
    rng = np.random.default_rng(5)
    gam, risks = random_candidates(rng, n, gamma_lo=0.01, gamma_hi=1e4)
    cands = CandidateSet(gammas=gam, risks=risks)
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
    cands = CandidateSet(gammas=gam, risks=risks)
    sched = las_exact(cands, LasConfig(K=4, lam=0.9))
    redo = schedule_objective(cands, sched.indices, lam=0.9, alpha=0.0)
    assert sched.objective == pytest.approx(redo, rel=1e-12)


def test_las_exact_infeasible():
    gam = np.array([1.0, 2.0, 4.0])
    cands = CandidateSet(gammas=gam, risks=np.ones(3))
    with pytest.raises(InfeasibleError):
        las_exact(cands, LasConfig(K=3, lam=1.0))


def test_las_exact_rejects_positive_alpha():
    cands = CandidateSet(gammas=np.array([1.0, 2.0, 4.0]), risks=np.ones(3))
    with pytest.raises(ValueError):
        las_exact(cands, LasConfig(K=2, lam=1.0, alpha=0.5))


def test_las_exact_scale_equivariance():
    rng = np.random.default_rng(41)
    gam, risks = random_candidates(rng, 10)
    a = las_exact(CandidateSet(gammas=gam, risks=risks), LasConfig(K=4, lam=1.5))
    b = las_exact(CandidateSet(gammas=gam, risks=7.5 * risks), LasConfig(K=4, lam=1.5))
    assert tuple(a.indices) == tuple(b.indices)
    assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-12)


# ---------------------------------------------------------------------------
# second-order pair DP


def test_las_beam_tiny_alpha_recovers_exact():
    rng = np.random.default_rng(12)
    gam, risks = random_candidates(rng, 8)
    cands = CandidateSet(gammas=gam, risks=risks)
    exact = las_exact(cands, LasConfig(K=3, lam=1.5))
    beam = las_beam(cands, LasConfig(K=3, lam=1.5, alpha=1e-12))
    assert beam.objective == pytest.approx(exact.objective, abs=1e-9)


def test_las_beam_exhaustive_small_instances():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(5, 11))
        K = int(rng.integers(2, min(5, n)))
        gam, risks = random_candidates(rng, n)
        cands = CandidateSet(gammas=gam, risks=risks)
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
    sched = las_beam(CandidateSet(gammas=gam, risks=risks), LasConfig(K=3, alpha=1e-3))
    best_idx, best_obj = brute_second_order(gam, risks, 3, 1.5, 1e-3)
    assert tuple(sched.indices) == best_idx
    assert sched.objective == pytest.approx(best_obj, rel=1e-12)


def test_las_beam_matches_stage_major_pair_dp_indices():
    # half the instances are tie-heavy: risks in {0, 0.5, 1}, or constant
    # risk on geometric knots; 31 of them have equal-cost final picks
    rng = np.random.default_rng(9)
    for case in range(1000):
        n = int(rng.integers(2, 17))
        K = int(rng.integers(1, n))
        lam = float(rng.choice([0.3, 1.5, 4.0]))
        alpha = float(rng.choice([1e-3, 0.1, 1.0, 12.0]))
        if case % 4 < 2:
            gam, risks = random_candidates(rng, n)
        elif case % 4 == 2:
            gam, _ = random_candidates(rng, n)
            risks = rng.choice([0.0, 0.5, 1.0], size=n)
        else:
            gam = np.geomspace(float(rng.uniform(0.1, 2.0)), float(rng.uniform(5.0, 500.0)), n)
            risks = np.full(n, float(rng.choice([0.0, 0.25, 1.0])))
        sched = las_beam(CandidateSet(gammas=gam, risks=risks), LasConfig(K=K, lam=lam, alpha=alpha))
        assert tuple(sched.indices) == pair_dp(gam, risks, K, lam, alpha), (n, K, lam, alpha, case)


@pytest.mark.parametrize("alpha", [1e-3, 1.0])
def test_las_beam_reaches_pair_dp_optimum(alpha):
    gam = np.geomspace(0.1, 1e4, 128)
    risks = np.random.default_rng(2).uniform(0.01, 3.0, 128)
    sched = las_beam(CandidateSet(gammas=gam, risks=risks), LasConfig(K=20, alpha=alpha))
    assert sched.objective == pytest.approx(pair_dp_optimum(gam, risks, 20, 1.5, alpha), rel=1e-12)


def test_las_beam_alpha12_smooths_u_shaped_profile():
    # risks dip sharply in the middle; alpha=0 chases the dip, alpha=12
    # must return a schedule whose log-step penalty is no larger
    gam = np.geomspace(0.5, 200.0, 24)
    risks = 0.2 + 1.5 * (np.log(gam / 10.0)) ** 2 / 10.0
    cands = CandidateSet(gammas=gam, risks=risks)
    rough = las_exact(cands, LasConfig(K=6, lam=1.5))
    smooth = las_beam(cands, LasConfig(K=6, lam=1.5, alpha=12.0))

    def penalty(idx):
        h = np.diff(np.log(gam[np.asarray(idx)]))
        return float(np.sum(np.diff(h) ** 2))

    assert penalty(smooth.indices) <= penalty(rough.indices) + 1e-12


def test_las_beam_rejects_zero_alpha():
    cands = CandidateSet(gammas=np.array([1.0, 2.0, 4.0]), risks=np.ones(3))
    with pytest.raises(ValueError):
        las_beam(cands, LasConfig(K=2, lam=1.0, alpha=0.0))


def test_las_beam_infeasible():
    cands = CandidateSet(gammas=np.array([1.0, 2.0]), risks=np.ones(2))
    with pytest.raises(InfeasibleError):
        las_beam(cands, LasConfig(K=4, lam=1.0, alpha=1.0))


def test_las_beam_scale_equivariance():
    rng = np.random.default_rng(55)
    gam, risks = random_candidates(rng, 12)
    c = 3.0
    a = las_beam(CandidateSet(gammas=gam, risks=risks), LasConfig(K=4, lam=1.2, alpha=2.0))
    b = las_beam(
        CandidateSet(gammas=gam, risks=c * risks), LasConfig(K=4, lam=1.2, alpha=c * 2.0)
    )
    assert tuple(a.indices) == tuple(b.indices)
    assert b.objective == pytest.approx(c * a.objective, rel=1e-12)


# ---------------------------------------------------------------------------
# shared schedule invariants


def every_schedule():
    rng = np.random.default_rng(2)
    gam, risks = random_candidates(rng, 11)
    cands = CandidateSet(gammas=gam, risks=risks)
    yield cands, las_exact(cands, LasConfig(K=4, lam=1.5))
    yield cands, las_beam(cands, LasConfig(K=4, lam=1.5, alpha=3.0))


def test_endpoints_pinned():
    for cands, sched in every_schedule():
        assert sched.indices[0] == 0
        assert sched.indices[-1] == cands.n - 1


def test_schedule_json_round_trip():
    for _, sched in every_schedule():
        back = Schedule.from_json_dict(sched.to_json_dict())
        assert tuple(back.indices) == tuple(sched.indices)
        np.testing.assert_array_equal(back.gammas, sched.gammas)
        assert back.objective == sched.objective
        assert back.algorithm == sched.algorithm
        assert back.lam == sched.lam
        assert back.alpha == sched.alpha
        assert back.tie_breaks == sched.tie_breaks


def test_schedule_json_keeps_tie_breaks():
    cands = CandidateSet(gammas=np.geomspace(1.0, 100.0, 8), risks=np.full(8, 0.5))
    sched = las_exact(cands, LasConfig(K=4, lam=1.5))
    assert sched.tie_breaks == 15
    obj = sched.to_json_dict()
    assert obj["tie_breaks"] == 15
    assert Schedule.from_json_dict(obj).tie_breaks == 15
    # files written before the field existed still load
    del obj["tie_breaks"]
    assert Schedule.from_json_dict(obj).tie_breaks == 0


def test_schedule_grid_matches_selected_gammas():
    for cands, sched in every_schedule():
        np.testing.assert_array_equal(
            sched.grid().gammas, cands.gammas[np.asarray(sched.indices)]
        )


def test_objective_helpers_agree_with_package():
    rng = np.random.default_rng(31)
    gam, risks = random_candidates(rng, 9)
    cands = CandidateSet(gammas=gam, risks=risks)
    idx = (0, 2, 5, 8)
    assert schedule_objective(cands, idx, lam=1.5, alpha=0.0) == pytest.approx(
        first_order_objective(gam, risks, idx, 1.5), rel=1e-12
    )
    assert schedule_objective(cands, idx, lam=1.5, alpha=4.0) == pytest.approx(
        second_order_objective(gam, risks, idx, 1.5, 4.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# candidate-set plumbing


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(gammas=np.array([2.0, 1.0]), risks=np.ones(2))
    with pytest.raises(ValueError):
        CandidateSet(gammas=np.array([1.0, 2.0]), risks=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        CandidateSet(gammas=np.array([1.0]), risks=np.array([1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CandidateSet(gammas=np.array([1.0, 2.0, 4.0]), risks=np.array([0.5, bad, 0.5]))
        with pytest.raises(ValueError):
            CandidateSet(gammas=np.array([1.0, 2.0, bad]), risks=np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_las_config_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        LasConfig(K=2, lam=bad)
    with pytest.raises(ValueError):
        LasConfig(K=2, alpha=bad)


def test_candidate_set_derived_axes():
    gam = np.array([1.0, 4.0, 9.0])
    c = CandidateSet(gammas=gam, risks=np.ones(3))
    np.testing.assert_allclose(c.ell, np.log(gam), rtol=1e-15)
    np.testing.assert_allclose(c.eta(2.0), gam / (1.0 + 4.0 * gam), rtol=1e-15)
    assert c.n == 3
