"""Target distributions and their information functionals."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    entropy_oracle,
    isotropic_mixture_log_density,
    random_probs,
    renyi_half_oracle,
    surprisal_mgf,
)
from snrsched import (
    FiniteDiscrete,
    GaussianMixture,
    derivative_ratio_constant,
    fit_subexponential,
    posterior_fourth_moment,
    renyi_half_entropy,
    shannon_entropy,
)
from snrsched.targets import build_toy, target_from_json, target_to_json

LN8 = math.log(8.0)


def uniform8():
    return FiniteDiscrete(points=np.arange(8.0)[:, None], probs=np.full(8, 0.125))


def three_atoms():
    return FiniteDiscrete(points=[[0.0], [1.0], [2.0]], probs=[0.5, 0.25, 0.25])


# ---------------------------------------------------------------------------
# construction and validation


def test_gaussian_mixture_fields():
    gm = GaussianMixture(
        weights=[0.25, 0.75], means=[[0.0, 0.0], [2.0, 1.0]], sigmas=[0.5, 1.0]
    )
    assert gm.dim == 2
    assert gm.n_components == 2


def test_weights_must_normalize():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.4], means=[[0.0], [1.0]], sigmas=[1.0, 1.0])
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.7, 0.7])


def test_probs_strictly_positive():
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[0.0], [1.0]], probs=[1.0, 0.0])


def test_sigmas_strictly_positive():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0]], sigmas=[0.0])


@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 5e-324])
def test_sigma_whose_square_underflows_is_rejected(sigma):
    # log_prob scales squared distances by -1 / (2 sigma^2), which is -inf here
    with pytest.raises(ValueError, match=f"component 1 sigma {sigma!r} is too small"):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0]], sigmas=[1.0, sigma])


def test_smallest_accepted_sigma_keeps_log_prob_finite():
    gm = GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0]], sigmas=[1.0, 1e-150])
    assert np.all(np.isfinite(gm.log_prob([[0.0], [1.0]])))


@pytest.mark.parametrize("scale", [1e300, 1e200, 1e154, 6.71e153])
def test_centers_whose_pair_distances_overflow_are_rejected(scale):
    # |c_i - c_j|^2 = (2 scale)^2 overflows, so the oracles would read nan
    with pytest.raises(ValueError, match="component 0 is too far"):
        GaussianMixture(weights=[0.5, 0.5], means=[[-scale], [scale]], sigmas=[1.0, 1.0])
    with pytest.raises(ValueError, match="atom 0 is too far"):
        FiniteDiscrete(points=[[-scale, 0.0], [scale, 0.0]], probs=[0.5, 0.5])
    # the check is on the distance from the weighted mean, and names the far one
    with pytest.raises(ValueError, match="component 2 is too far"):
        GaussianMixture(weights=[0.5, 0.5, 1e-200], means=[[0.0], [1.0], [scale]], sigmas=[1.0] * 3)


@pytest.mark.parametrize("scale", [1e153, 6.7e153])
def test_centers_just_inside_the_spread_limit_keep_their_values(scale):
    from snrsched.channel import mmse

    atoms = FiniteDiscrete(points=[[-scale], [scale]], probs=[0.5, 0.5])
    assert mmse(atoms, 1.0) == (0.0, 0.0)
    GaussianMixture(weights=[0.5, 0.5], means=[[-scale], [scale]], sigmas=[1.0, 1.0])


def test_spread_check_builds_no_pair_table():
    # an (n, n) table of pair distances would be 128 MiB here
    import tracemalloc

    points = np.arange(4096.0)[:, None]
    tracemalloc.start()
    try:
        FiniteDiscrete(points=points, probs=np.full(4096, 1.0 / 4096))
        GaussianMixture(weights=np.full(4096, 1.0 / 4096), means=points, sigmas=np.ones(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_atoms_pairwise_distinct():
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[1.0], [1.0]], probs=[0.5, 0.5])


NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NONFINITE)
def test_weights_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        GaussianMixture(weights=[bad, 0.5], means=[[0.0], [1.0]], sigmas=[1.0, 1.0])
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.5, bad])


@pytest.mark.parametrize("bad", NONFINITE)
def test_mixture_rejects_nonfinite_means_and_sigmas(bad):
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0, bad], [1.0, 0.0]], sigmas=[1.0, 1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0]], sigmas=[1.0, abs(bad)])


@pytest.mark.parametrize("bad", NONFINITE)
def test_discrete_rejects_nonfinite_points(bad):
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[0.0, 1.0], [bad, 0.0]], probs=[0.5, 0.5])


def test_atoms_distinct_check_finds_any_pair():
    pts = np.arange(40.0).reshape(20, 2)
    FiniteDiscrete(points=pts, probs=np.full(20, 0.05))
    pts[17] = pts[3]
    with pytest.raises(ValueError):
        FiniteDiscrete(points=pts, probs=np.full(20, 0.05))
    # signed zeros are the same atom
    with pytest.raises(ValueError):
        FiniteDiscrete(points=[[0.0, 1.0], [-0.0, 1.0]], probs=[0.5, 0.5])


def test_log_prob_matches_oracle_including_far_tail():
    gm = GaussianMixture(
        weights=[0.2, 0.5, 0.3],
        means=[[0.0, 0.0], [3.0, -1.0], [-2.0, 4.0]],
        sigmas=[0.25, 1.0, 0.5],
    )
    rng = np.random.default_rng(12)
    far = np.array([[400.0, -300.0]])  # every component term is below exp's range
    X = np.concatenate([rng.normal(scale=3.0, size=(50, 2)), far])
    got = gm.log_prob(X)
    want = [isotropic_mixture_log_density(gm.weights, gm.means, gm.sigmas, x) for x in X]
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # an unshifted log(sum(exp(.))) would read -inf at the far point
    assert math.exp(want[-1]) == 0.0
    np.testing.assert_allclose(gm.log_prob(X[0]), want[:1], rtol=1e-12)


def test_log_prob_is_minus_inf_where_every_logit_overflows():
    # at (1e160, 0) |x|^2 overflows, so every component's logit is -inf; the
    # density's limit is 0, and the max shift must not turn -inf - -inf into nan
    gm = build_toy("circle8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gm.log_prob([[1e160, 0.0], [1e155, 0.0], [1e100, 0.0], [-1e300, 1e300]])
    assert list(got) == [-math.inf, -math.inf, -8e200, -math.inf]


def test_cov_trace_two_atoms():
    # symmetric +-1 atoms: variance 1, trace 1
    two = FiniteDiscrete(points=[[-1.0], [1.0]], probs=[0.5, 0.5])
    assert two.cov_trace() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# entropies


_DISCRETE_ONLY = {
    "shannon_entropy": shannon_entropy,
    "renyi_half_entropy": renyi_half_entropy,
    "fit_subexponential": fit_subexponential,
    "posterior_fourth_moment": lambda d: posterior_fourth_moment(d, 1.0, 10, 0),
    "derivative_ratio_constant": lambda d: derivative_ratio_constant(d, [1.0]),
}


@pytest.mark.parametrize("name", _DISCRETE_ONLY)
def test_discrete_only_functions_reject_a_mixture_naming_themselves(name):
    with pytest.raises(TypeError, match=f"^{name} requires a FiniteDiscrete target, "
                                        "got GaussianMixture$"):
        _DISCRETE_ONLY[name](build_toy("circle8"))


def test_shannon_uniform8():
    assert shannon_entropy(uniform8()) == pytest.approx(LN8, abs=1e-12)


def test_shannon_three_atoms():
    assert shannon_entropy(three_atoms()) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_shannon_point_mass_zero():
    assert shannon_entropy(FiniteDiscrete(points=[[0.0]], probs=[1.0])) == 0.0


def test_renyi_uniform_equals_shannon():
    # all orders coincide on the uniform distribution
    d = uniform8()
    assert renyi_half_entropy(d) == pytest.approx(shannon_entropy(d), abs=1e-12)


def test_renyi_two_atoms():
    d = FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.64, 0.36])
    assert renyi_half_entropy(d) == pytest.approx(2.0 * math.log(1.4), abs=1e-12)


def test_renyi_three_atoms():
    d = three_atoms()
    want = 2.0 * math.log(math.sqrt(0.5) + 0.5 + 0.5)
    assert renyi_half_entropy(d) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(1.0696, abs=1e-4)
    assert shannon_entropy(d) <= renyi_half_entropy(d)


def test_entropy_matches_oracle_on_random_dists():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        p = random_probs(rng, n)
        d = FiniteDiscrete(points=np.arange(float(n))[:, None], probs=p)
        assert shannon_entropy(d) == pytest.approx(entropy_oracle(p), abs=1e-12)
        assert renyi_half_entropy(d) == pytest.approx(renyi_half_oracle(p), abs=1e-12)
        # order inequality and the log-cardinality cap
        assert shannon_entropy(d) <= renyi_half_entropy(d) + 1e-10
        assert renyi_half_entropy(d) <= math.log(n) + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 59), st.integers(0, 2**32 - 1))
def test_permutation_leaves_info_profile_unchanged(n, seed):
    # exact summation, not an order of the atoms, makes the values permutation-invariant
    rng = np.random.default_rng(seed)
    p = random_probs(rng, n)
    pts = np.arange(float(n))[:, None]
    perm = rng.permutation(n)
    a = FiniteDiscrete(points=pts, probs=p)
    b = FiniteDiscrete(points=pts[perm], probs=p[perm])
    assert shannon_entropy(a) == shannon_entropy(b)  # bit for bit
    assert renyi_half_entropy(a) == renyi_half_entropy(b)
    assert fit_subexponential(a) == fit_subexponential(b)


# ---------------------------------------------------------------------------
# sub-exponential surprisal fit


def test_fit_uniform_nu_zero():
    assert fit_subexponential(uniform8()) == 0.0


def test_fit_point_mass_nu_zero():
    assert fit_subexponential(FiniteDiscrete(points=[[0.0]], probs=[1.0])) == 0.0


def test_fit_two_atoms_exact_mgf():
    """The fitted nu^2 is the max of ln M(lam)/lam^2 over the lambda grid."""
    p = [0.64, 0.36]
    d = FiniteDiscrete(points=[[0.0], [1.0]], probs=p)
    nu_sq = fit_subexponential(d)
    half = np.linspace(0.0, 0.5, 21)
    grid = np.concatenate([-half[::-1][:-1], half])
    want = max(
        math.log(surprisal_mgf(p, lam)) / lam**2 for lam in grid if lam != 0.0
    )
    assert nu_sq == pytest.approx(max(want, 0.0), abs=1e-12)
    assert renyi_half_entropy(d) <= shannon_entropy(d) + nu_sq / 2.0 + 1e-10


def test_fit_bounds_renyi_on_random_dists():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        p = random_probs(rng, n)
        d = FiniteDiscrete(points=np.arange(float(n))[:, None], probs=p)
        nu_sq = fit_subexponential(d)
        assert nu_sq >= 0.0
        assert renyi_half_entropy(d) <= shannon_entropy(d) + nu_sq / 2.0 + 1e-10
        # the envelope really does dominate the MGF off the fitting grid too
        for lam in (-0.41, -0.13, 0.083, 0.29):
            assert surprisal_mgf(p, lam) <= math.exp(nu_sq * lam**2) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_discrete():
    d = three_atoms()
    obj = target_to_json(d)
    assert obj["variant"] == "discrete"
    back = target_from_json(obj)
    assert isinstance(back, FiniteDiscrete)
    np.testing.assert_array_equal(back.points, d.points)
    np.testing.assert_array_equal(back.probs, d.probs)


def test_json_round_trip_mixture():
    gm = GaussianMixture(
        weights=[0.25, 0.75], means=[[0.0, 1.0], [2.0, -1.0]], sigmas=[0.5, 1.25]
    )
    back = target_from_json(target_to_json(gm))
    assert isinstance(back, GaussianMixture)
    np.testing.assert_array_equal(back.weights, gm.weights)
    np.testing.assert_array_equal(back.means, gm.means)
    np.testing.assert_array_equal(back.sigmas, gm.sigmas)


@pytest.mark.parametrize("dist, dim", [
    (GaussianMixture(weights=[1.0], means=[[0.0, 1.0]], sigmas=[0.5]), 2.5),
    (GaussianMixture(weights=[1.0], means=[[0.0, 1.0]], sigmas=[0.5]), "2"),
    (FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.5, 0.5]), 1.5),
    (FiniteDiscrete(points=[[0.0], [1.0]], probs=[0.5, 0.5]), True),
], ids=["float", "string", "float_1d", "bool_1d"])
def test_json_rejects_a_dim_that_is_not_an_integer(dist, dim):
    obj = dict(target_to_json(dist), dim=dim)
    with pytest.raises(ValueError, match="dim"):
        target_from_json(obj)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=10))
def test_entropy_range_property(raw):
    w = np.asarray(raw)
    p = w / w.sum()
    if np.any(p <= 0):
        return
    d = FiniteDiscrete(points=np.arange(float(len(p)))[:, None], probs=p)
    h = shannon_entropy(d)
    assert -1e-12 <= h <= math.log(len(p)) + 1e-9
    assert h == pytest.approx(entropy_oracle(p), abs=1e-12)


# ---------------------------------------------------------------------------
# JSON round trip and non-finite input, as properties

# every center within 2 sqrt(3) 1e153 of the weighted mean at d <= 3, inside
# the constructors' spread limit of about 6.7e153
_COORD = st.floats(-1e153, 1e153)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _target_fields(draw):
    """(family, weights, centers, sigmas) of a valid target with n <= 5, d <= 3."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    rows = draw(st.lists(st.tuples(*[_COORD] * d), min_size=n, max_size=n, unique=True))
    sigmas = draw(
        st.lists(
            st.floats(min_value=1e-154, allow_infinity=False),  # 1/(2 sigma^2) finite
            min_size=n,
            max_size=n,
        )
    )
    family = draw(st.sampled_from(["discrete", "gmm"]))
    return family, raw / raw.sum(), np.array(rows, dtype=float), np.array(sigmas)


def _build_target(family, weights, centers, sigmas):
    if family == "discrete":
        return FiniteDiscrete(points=centers, probs=weights)
    return GaussianMixture(weights=weights, means=centers, sigmas=sigmas)


@settings(max_examples=150, deadline=None)
@given(_target_fields())
def test_target_json_round_trip_property(fields):
    dist = _build_target(*fields)
    text = json.dumps(target_to_json(dist))
    back = target_from_json(json.loads(text))
    assert type(back) is type(dist)
    assert json.dumps(target_to_json(back)) == text
    for name in ("weights", "means", "sigmas") if fields[0] == "gmm" else ("probs", "points"):
        assert getattr(back, name).tobytes() == getattr(dist, name).tobytes()


@settings(max_examples=150, deadline=None)
@given(_target_fields(), st.integers(0, 2), st.integers(0, 10**6), _NON_FINITE)
def test_target_constructors_reject_non_finite_property(fields, which, pos, bad):
    family, weights, centers, sigmas = fields
    arrays = [weights.copy(), centers.copy(), sigmas.copy()]
    if family == "discrete":
        which = which % 2
    arr = arrays[which].reshape(-1)
    arr[pos % arr.size] = bad
    with pytest.raises(ValueError):
        _build_target(family, *arrays)
