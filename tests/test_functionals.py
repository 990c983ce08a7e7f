"""Discretization/approximation error functionals and their identities."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    GAUSS_GRID_124_DISC,
    gauss_disc_error,
    gauss_mmse,
    gauss_mmse_integral,
    pathwise_kl,
    ratio_sum,
)
from snrsched import FiniteDiscrete, GaussianMixture
from snrsched.channel import MmseCurve
from snrsched.functionals import (
    LossProfile,
    SnrGrid,
    apx_error,
    combined_objective,
    disc_error,
    eps_to_x0,
    error_report,
    final_bounds,
)

TWO = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])


def single_gauss(sigma0=1.0, d=1):
    return GaussianMixture(weights=[1.0], means=[np.zeros(d)], sigmas=[sigma0])


# ---------------------------------------------------------------------------
# SnrGrid


def test_grid_derived_fields():
    g = SnrGrid([1.0, 2.0, 4.0])
    assert g.K == 2
    assert g.T == 1.0
    assert g.delta == 0.25
    assert g.Lambda == pytest.approx(4.0, rel=1e-15)
    ratios = g.gammas[1:] / g.gammas[:-1]
    np.testing.assert_allclose(ratios, [2.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(np.log(ratios), [math.log(2)] * 2, rtol=1e-14)


def test_grid_lambda_is_ratio_product():
    g = SnrGrid(np.geomspace(0.25, 1000.0, 9))
    assert g.Lambda == pytest.approx(float(np.prod(g.gammas[1:] / g.gammas[:-1])), rel=1e-9)


def test_grid_rejects_non_ascending():
    with pytest.raises(ValueError):
        SnrGrid([1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        SnrGrid([2.0, 1.0])
    with pytest.raises(ValueError):
        SnrGrid([-1.0, 1.0])
    with pytest.raises(ValueError):
        SnrGrid([1.0, math.inf])
    # T = 1/gamma_0 would be inf, and so would the sampler's first step
    with pytest.raises(ValueError, match=r"gamma_0 = 1e-320 puts T"):
        SnrGrid([1e-320, 1.0])


@pytest.mark.parametrize("gammas, k", [
    # 1/gamma is subnormal at both knots and rounds to one value
    ([1.0, 1.7e308, float(np.nextafter(1.7e308, math.inf))], 2),
    # normal noise scales: 1/gamma rounds to one value for knots one unit apart
    ([1.0, 1.9999999999999996, 1.9999999999999998, 4.0], 2),
])
def test_grid_rejects_knots_with_equal_noise_scales(gammas, k):
    # the sampler needs 0 < t_next < t_prev at every step; the grid names the step
    assert gammas[k - 1] < gammas[k] and 1.0 / gammas[k - 1] == 1.0 / gammas[k]
    with pytest.raises(ValueError, match=rf"gamma_{k - 1} = .* and gamma_{k} = .* same noise scale.* step {k} "):
        SnrGrid(gammas)


# ---------------------------------------------------------------------------
# eps <-> x0 conversion


def test_eps_to_x0_examples():
    assert eps_to_x0(2.0, 4.0) == 0.5
    assert eps_to_x0(1.37, 1.0) == 1.37


def test_eps_to_x0_ddpm_alpha_bar():
    # abar = 0.8 corresponds to gamma = abar/(1-abar) = 4
    abar = 0.8
    gamma = abar / (1.0 - abar)
    assert eps_to_x0(2.0, gamma) == pytest.approx(0.5, rel=1e-15)


def test_eps_to_x0_vectorized():
    out = eps_to_x0(np.array([2.0, 3.0]), np.array([4.0, 3.0]))
    np.testing.assert_allclose(out, [0.5, 1.0], rtol=1e-15)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, [4.0, math.nan]])
def test_eps_to_x0_rejects_a_gamma_that_is_not_positive_and_finite(gamma):
    with pytest.raises(ValueError, match="gamma"):
        eps_to_x0(1.0, gamma)


# ---------------------------------------------------------------------------
# disc_error


def test_disc_error_closed_form_124():
    got = disc_error(MmseCurve(single_gauss()), SnrGrid([1.0, 2.0, 4.0]))
    assert got == pytest.approx(GAUSS_GRID_124_DISC, abs=1e-12)
    assert got == pytest.approx(0.250376, abs=5e-7)


def test_disc_error_point_mass_zero():
    pm = FiniteDiscrete(points=[[1.0, 2.0]], probs=[1.0])
    assert disc_error(MmseCurve(pm), SnrGrid([0.5, 50.0])) == pytest.approx(0.0, abs=1e-12)


def test_disc_error_random_gaussian_grids_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sigma0 = float(rng.uniform(0.3, 2.0))
        d = int(rng.integers(1, 4))
        knots = np.sort(np.exp(rng.uniform(-1.5, 5.0, size=int(rng.integers(2, 7)))))
        while np.any(np.diff(knots) <= 1e-9):
            knots = np.sort(np.exp(rng.uniform(-1.5, 5.0, size=knots.size)))
        got = disc_error(MmseCurve(single_gauss(sigma0, d)), SnrGrid(knots))
        assert got == pytest.approx(gauss_disc_error(sigma0, d, knots), abs=1e-10)
        assert got >= 0.0


def test_disc_error_nonnegative_two_atom():
    grid = SnrGrid(np.geomspace(0.5, 8.0, 5))
    assert disc_error(MmseCurve(TWO, policy="quadrature"), grid) >= 0.0


# ---------------------------------------------------------------------------
# apx_error


def test_apx_error_exact_profile_is_zero():
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 2.0, 4.0])
    loss = LossProfile.from_curve(curve, grid.gammas)
    assert apx_error(loss, curve, grid) == pytest.approx(0.0, abs=1e-12)


def test_apx_error_constant_excess():
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 2.0, 4.0])
    losses = np.array([gauss_mmse(1.0, 1, g) + 0.1 for g in grid.gammas])
    loss = LossProfile(gammas=grid.gammas, losses=losses)
    assert apx_error(loss, curve, grid) == pytest.approx(0.3, abs=1e-12)


def test_apx_error_geometric_form_agrees():
    """Constant eps-level excess: E_apx equals the geometric form
    (Lambda^{1/K} - 1) sum_k eps_k."""
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 10.0, 100.0])  # Lambda=100, K=2
    c = 0.05  # eps_k = gamma_{k-1} * (L - mmse) = c at every level
    losses = np.array([gauss_mmse(1.0, 1, g) + c / g for g in grid.gammas])
    loss = LossProfile(gammas=grid.gammas, losses=losses)
    geometric_form = (grid.Lambda ** (1.0 / grid.K) - 1.0) * 2 * c
    assert geometric_form == pytest.approx(9.0 * 2 * c, rel=1e-12)
    assert apx_error(loss, curve, grid) == pytest.approx(geometric_form, rel=1e-9)


def test_apx_error_clamps_negative_excess():
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 2.0, 4.0])
    losses = np.array([gauss_mmse(1.0, 1, g) - 0.01 for g in grid.gammas])
    loss = LossProfile(gammas=grid.gammas, losses=losses)
    assert apx_error(loss, curve, grid) == 0.0


# ---------------------------------------------------------------------------
# combined objective and the decomposition identity


def test_combined_objective_constant_loss_telescopes():
    c = 0.37
    for knots in ([1.0, 2.0, 4.0], [1.0, 1.1, 3.9, 4.0]):
        grid = SnrGrid(knots)
        loss = LossProfile(gammas=grid.gammas, losses=np.full(len(knots), c))
        want = c * (knots[-1] - knots[0])
        assert combined_objective(loss, grid) == pytest.approx(want, rel=1e-12)


def test_combined_objective_exact_loss_124():
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 2.0, 4.0])
    loss = LossProfile.from_curve(curve, grid.gammas)
    assert combined_objective(loss, grid) == pytest.approx(7.0 / 6.0, rel=1e-12)


def test_decomposition_identity_single_case():
    sigma0 = 0.8
    curve = MmseCurve(single_gauss(sigma0))
    grid = SnrGrid([0.5, 1.7, 6.0, 30.0])
    losses = np.array([gauss_mmse(sigma0, 1, g) + e for g, e in
                       zip(grid.gammas, (0.02, 0.0, 0.11, 0.05))])
    loss = LossProfile(gammas=grid.gammas, losses=losses)
    lhs = combined_objective(loss, grid) - gauss_mmse_integral(
        sigma0, 1, grid.gammas[0], grid.gammas[-1]
    )
    rhs = disc_error(curve, grid) + apx_error(loss, curve, grid)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# final bounds


def test_final_bounds_geo_term_81():
    out = final_bounds(SnrGrid([1.0, 10.0, 100.0]), H=1.0, C_fit=1.0, eps_bar=0.0)
    assert out["geo_disc_bound"] == pytest.approx(81.0, rel=1e-12)
    assert out["disc_bound"] == pytest.approx(81.0, rel=1e-12)


@pytest.mark.parametrize("H, C_fit", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                                       (1.0, math.nan), (1.0, -math.inf), (1.0, -0.5)])
def test_final_bounds_rejects_nonfinite_or_negative_constants(H, C_fit):
    with pytest.raises(ValueError):
        final_bounds(SnrGrid([1.0, 10.0, 100.0]), H=H, C_fit=C_fit, eps_bar=0.0)


@pytest.mark.parametrize("eps_bar", [-1.0, math.nan, math.inf])
def test_final_bounds_rejects_nonfinite_or_negative_eps_bar(eps_bar):
    # a negative eps_bar pulled kl_total below kl_disc_term; a non-finite one
    # was blamed on C_fit and H
    with pytest.raises(ValueError, match="eps_bar"):
        final_bounds(SnrGrid([1.0, 10.0, 100.0]), H=2.0, C_fit=1.0, eps_bar=eps_bar)


@pytest.mark.parametrize("H, C_fit, eps_bar, name", [
    (1e160, 1.0, 0.0, "disc_bound"), (1.0, 1e200, 0.0, "disc_bound"),
    (1e154, 1.0, 0.0, "disc_bound"), (1.0, 1.0, 1e308, "kl_total"),
])
def test_final_bounds_rejects_overflowing_bound(H, C_fit, eps_bar, name):
    # (C H)^2 overflows the float power at C H = 1e160; at 1e154 it is 1e308
    # and the products that make the bounds overflow
    with pytest.raises(ValueError, match=name):
        final_bounds(SnrGrid([1.0, 10.0, 100.0]), H=H, C_fit=C_fit, eps_bar=eps_bar)


def test_final_bounds_geometric_equality():
    grid = SnrGrid(np.geomspace(0.5, 500.0, 11))
    out = final_bounds(grid, H=0.9, C_fit=1.3, eps_bar=0.1)
    assert out["disc_bound"] == pytest.approx(out["geo_disc_bound"], rel=1e-12)


def test_final_bounds_geometric_among_random_grids():
    rng = np.random.default_rng(17)
    lo, hi, K = 1.0, 250.0, 4
    geo = final_bounds(SnrGrid(np.geomspace(lo, hi, K + 1)), 1.0, 1.0, 0.0)
    for _ in range(20):
        interior = np.sort(rng.uniform(lo, hi, size=K - 1))
        while np.any(np.diff(np.r_[lo, interior, hi]) <= 0):
            interior = np.sort(rng.uniform(lo, hi, size=K - 1))
        grid = SnrGrid(np.r_[lo, interior, hi])
        got = final_bounds(grid, 1.0, 1.0, 0.0)
        assert got["disc_bound"] >= geo["disc_bound"] - 1e-12
        assert got["disc_bound"] == pytest.approx(
            0.5 * ratio_sum(grid.gammas), rel=1e-12
        )


def test_final_bounds_applicability_flag():
    # Lambda=100 needs K >= ln(100) ~ 4.6
    assert not final_bounds(SnrGrid(np.geomspace(1, 100, 4)), 1.0, 1.0, 0.1)[
        "kl_total_applicable"
    ]
    assert final_bounds(SnrGrid(np.geomspace(1, 100, 6)), 1.0, 1.0, 0.1)[
        "kl_total_applicable"
    ]


# ---------------------------------------------------------------------------
# pathwise Monte-Carlo route: the independent oracle against the MMSE form


def test_pathwise_kl_point_mass_zero():
    v, se = pathwise_kl([1.0], [[0.5]], [0.0], [1.0, 4.0, 16.0], n_paths=500, substeps=16, seed=0)
    assert v == pytest.approx(0.0, abs=1e-20)
    assert se == pytest.approx(0.0, abs=1e-20)


def test_pathwise_kl_single_gaussian_half_disc():
    v, se = pathwise_kl([1.0], [[0.0]], [1.0], [1.0, 2.0, 4.0], n_paths=50_000, substeps=16, seed=4)
    assert abs(2.0 * v - GAUSS_GRID_124_DISC) <= 3.0 * 2.0 * se


def test_pathwise_kl_two_atom_matches_area_gap():
    grid = SnrGrid(np.geomspace(0.5, 8.0, 5))
    want = disc_error(MmseCurve(TWO, policy="quadrature"), grid)
    v, se = pathwise_kl(
        TWO.probs, TWO.points, [0.0, 0.0], grid.gammas, n_paths=50_000, substeps=128, seed=11
    )
    assert abs(2.0 * v - want) <= 3.0 * 2.0 * se


def test_pathwise_kl_deterministic_given_seed():
    a = pathwise_kl([1.0], [[0.0]], [1.0], [1.0, 4.0], n_paths=4000, substeps=16, seed=5)
    b = pathwise_kl([1.0], [[0.0]], [1.0], [1.0, 4.0], n_paths=4000, substeps=16, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# loss profiles


def test_loss_profile_csv_round_trip(tmp_path):
    path = tmp_path / "loss.csv"
    prof = LossProfile(
        gammas=np.array([0.5, 2.0, 8.0]),
        losses=np.array([1.25, 0.3333333333333333, 0.07]),
    )
    prof.to_csv(path)
    rows = path.read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["x0"] * 3
    back = LossProfile.from_csv(path)
    np.testing.assert_array_equal(back.gammas, prof.gammas)
    np.testing.assert_array_equal(back.losses, prof.losses)
    # an eps row reads back as the x0 risk loss / gamma
    path.write_text("gamma,loss,kind\n0.5,1.25,x0\n2.0,0.3333333333333333,eps\n8.0,0.07,x0\n")
    eps = LossProfile.from_csv(path)
    np.testing.assert_array_equal(eps.losses, [1.25, 0.3333333333333333 / 2.0, 0.07])


def test_loss_profile_csv_comments_and_header(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("# fitted on run 12\ngamma,loss,kind\n1.0,0.5,x0\n4.0,2.0,eps\n")
    prof = LossProfile.from_csv(path)
    np.testing.assert_allclose(prof.losses, [0.5, 0.5])  # eps/gamma at knot


def test_loss_profile_rejects_one_knot(tmp_path):
    with pytest.raises(ValueError, match="at least two knots"):
        LossProfile(gammas=np.array([1.0]), losses=np.array([0.5]))
    path = tmp_path / "loss.csv"
    path.write_text("gamma,loss,kind\n1.0,0.5,x0\n")
    with pytest.raises(ValueError, match="at least two knots"):
        LossProfile.from_csv(path)


def test_loss_profile_rejects_descending(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("gamma,loss,kind\n4.0,0.5,x0\n1.0,1.0,x0\n")
    with pytest.raises(ValueError):
        LossProfile.from_csv(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_loss_profile_rejects_nonfinite(tmp_path, bad):
    with pytest.raises(ValueError):
        LossProfile(gammas=np.array([1.0, 4.0]), losses=np.array([1.0, bad]))
    with pytest.raises(ValueError):
        LossProfile(gammas=np.array([1.0, bad]), losses=np.array([1.0, 1.0]))
    path = tmp_path / "loss.csv"
    path.write_text(f"gamma,loss,kind\n1.0,0.5,x0\n4.0,{bad},eps\n")
    with pytest.raises(ValueError):
        LossProfile.from_csv(path)


def test_loss_profile_log_linear_interpolation():
    prof = LossProfile(gammas=np.array([1.0, 4.0]), losses=np.array([1.0, 3.0]))
    assert prof.x0_at(2.0) == pytest.approx(2.0, rel=1e-12)  # midpoint in ln gamma


def test_loss_profile_no_silent_extrapolation():
    prof = LossProfile(gammas=np.array([1.0, 4.0]), losses=np.array([1.0, 3.0]))
    with pytest.raises(ValueError):
        prof.x0_at(0.5)
    with pytest.raises(ValueError):
        prof.x0_at(5.0)
    # nan compares false with both ends of the range, and read nan
    for bad in (math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError, match="gamma"):
            prof.x0_at(bad)


# ---------------------------------------------------------------------------
# reports


def test_error_report_kl_is_half_sum():
    curve = MmseCurve(single_gauss())
    grid = SnrGrid([1.0, 2.0, 4.0])
    losses = np.array([gauss_mmse(1.0, 1, g) + 0.1 for g in grid.gammas])
    loss = LossProfile(gammas=grid.gammas, losses=losses)
    rep = error_report(curve, grid, loss)
    assert rep["kl_path_bound"] == (rep["e_disc"] + rep["e_apx"]) / 2.0
    assert rep["provenance"]["e_disc"] == "mmse_functional"


def test_error_report_two_term_with_entropy():
    grid = SnrGrid(np.geomspace(1.0, 100.0, 7))  # K=6 >= ln(100)
    rep = error_report(MmseCurve(single_gauss()), grid, None, H=0.8)
    bounds = rep["bounds"]
    assert bounds["kl_total_applicable"]
    assert bounds["kl_total"] == pytest.approx(
        bounds["kl_disc_term"] + bounds["kl_stat_term"], rel=1e-12
    )


def test_error_report_evaluates_each_distinct_gamma_once(monkeypatch):
    import snrsched.channel as channel

    calls = []
    oracle = channel.mmse

    def counting(dist, gamma, *args, **kwargs):
        calls.append(float(gamma))
        return oracle(dist, gamma, *args, **kwargs)

    monkeypatch.setattr(channel, "mmse", counting)
    curve = MmseCurve(TWO, "quadrature")
    loss = LossProfile(gammas=np.geomspace(1.0, 9.0, 5), losses=np.full(5, 2.0))
    grids = [SnrGrid([1.0, 2.0, 4.0, 8.0]), SnrGrid([1.0, 3.0, 9.0])]
    reports = [error_report(curve, grid, loss) for grid in grids]
    # disc_error and apx_error both need mmse at gamma_0..gamma_{K-1}, and the
    # grids share gamma_0 = 1: four distinct gammas in all
    assert sorted(calls) == [1.0, 2.0, 3.0, 4.0]
    fresh = [error_report(MmseCurve(TWO, "quadrature"), grid, loss) for grid in grids]
    assert reports == fresh


# ---------------------------------------------------------------------------
# CSV round trip and non-finite input, as properties

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _loss_fields(draw):
    """(gammas, losses) of a valid loss profile with 2-8 knots."""
    gammas = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                min_size=2,
                max_size=8,
                unique=True,
            )
        )
    )
    n = len(gammas)
    losses = draw(
        st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=n, max_size=n)
    )
    return np.array(gammas), np.array(losses)


@settings(max_examples=150, deadline=None)
@given(_loss_fields())
def test_loss_profile_csv_round_trip_property(fields):
    profile = LossProfile(*fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loss.csv"
        profile.to_csv(path)
        back = LossProfile.from_csv(path)
    assert back.gammas.tobytes() == profile.gammas.tobytes()
    assert back.losses.tobytes() == profile.losses.tobytes()


@settings(max_examples=150, deadline=None)
@given(_loss_fields(), st.booleans(), st.integers(0, 10**6), _NON_FINITE)
def test_loss_profile_rejects_non_finite_property(fields, in_gammas, pos, bad):
    gammas, losses = fields
    target = gammas if in_gammas else losses
    target[pos % target.size] = bad
    with pytest.raises(ValueError):
        LossProfile(gammas, losses)


def _distinct_noise_scales(knots: list) -> list:
    """The sorted knots, each raised where needed so that 1/gamma strictly decreases."""
    grid = []
    for g in sorted(knots):
        if grid and not 1.0 / g < 1.0 / grid[-1]:
            g = grid[-1] * (1.0 + 2.0**-48)  # about 16 ulps: 1/g drops by at least one
        grid.append(g)
    return grid


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=2, max_size=8, unique=True),
    st.integers(0, 10**6),
    _NON_FINITE,
)
# two knots one ulp apart with the same noise scale 1/gamma = 1e-300
@example([9.999999999999999e299, 1e300], 0, math.nan)
def test_snr_grid_rejects_non_finite_property(knots, pos, bad):
    knots = _distinct_noise_scales(knots)
    SnrGrid(knots)
    knots[pos % len(knots)] = bad
    with pytest.raises(ValueError):
        SnrGrid(knots)
