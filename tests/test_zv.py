import math

import numpy as np
import pytest
from helpers import hand_control_variate, reference_control_variates
from hypothesis import given, settings
from hypothesis import strategies as st

from zvmcmc import (
    ChainOutput,
    ExponentialTarget,
    GammaTarget,
    GaussianTarget,
    InsufficientSampleError,
    SamplerConfig,
    default_exclusions,
    eval_control_variates,
    fit_and_renormalize,
    fit_coefficients,
    monomial_basis,
    renormalize,
    rw_metropolis,
    standardization_from_chain,
)
from zvmcmc.zv import degenerate_columns


def make_chain(draws, gradients):
    draws = np.asarray(draws, dtype=float)
    gradients = np.asarray(gradients, dtype=float)
    return ChainOutput(draws=draws, gradients=gradients, accept_rate=1.0)


# ---------------------------------------------------------------------------
# basis


def test_basis_sizes_match_binomial_formula():
    for d in range(1, 7):
        for p in (1, 2, 3):
            b = monomial_basis(d, p)
            assert len(b.exponents) == math.comb(d + p, d) - 1
            assert b.size == len(b.exponents)


def test_basis_known_sizes():
    assert monomial_basis(4, 1).size == 4
    assert monomial_basis(4, 2).size == 14
    assert monomial_basis(3, 3).size == 19


def test_basis_order_graded_then_lexicographic_descending():
    b = monomial_basis(2, 2)
    assert b.exponents == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    b3 = monomial_basis(2, 3)
    assert b3.exponents[5:] == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_basis_prefix_property_across_degrees():
    lo = monomial_basis(3, 1)
    hi = monomial_basis(3, 3)
    assert hi.exponents[: lo.size] == lo.exponents


def test_basis_exclusions():
    b = monomial_basis(2, 2, exclusions=[(1, 0)])
    assert b.size == 4
    assert (1, 0) not in b.active
    assert (1, 0) in b.exponents
    with pytest.raises(ValueError):
        monomial_basis(2, 1, exclusions=[(2, 0)])
    with pytest.raises(ValueError):
        monomial_basis(2, 4)
    with pytest.raises(ValueError):
        monomial_basis(0, 1)


@pytest.mark.parametrize("dimension,degree,message", [
    (True, 1, "dimension must be an integer >= 1, got True"),
    (None, 1, "dimension must be an integer >= 1, got None"),
    ("2", 1, "dimension must be an integer >= 1, got '2'"),
    (1.5, 1, "dimension must be an integer >= 1, got 1.5"),
    (2, True, "degree must be one of (1, 2, 3), got True"),
    (2, None, "degree must be one of (1, 2, 3), got None"),
    (2, "2", "degree must be one of (1, 2, 3), got '2'"),
], ids=[  # fixed at the names these cases always ran under, so a message edit renames none
    "True-1-dimension must be an integer >= 1, got True",
    "None-1-dimension must be an integer >= 1, got None",
    "2-1-dimension must be an integer >= 1, got '2'",
    "1.5-1-dimension must be an integer >= 1, got 1.5",
    "2-True-degree must be one of (1, 2, 3), got True",
    "2-None-degree must be one of (1, 2, 3), got None",
    "2-2-degree must be one of (1, 2, 3), got '2'",
])
def test_monomial_basis_takes_integers_only(dimension, degree, message):
    with pytest.raises(ValueError) as raised:
        monomial_basis(dimension, degree)
    assert str(raised.value) == message
    assert monomial_basis(2.0, np.int64(2)) == monomial_basis(2, 2)


def test_default_exclusions_per_model():
    assert default_exclusions(GaussianTarget()) == ()
    assert default_exclusions(ExponentialTarget()) == ((1,),)
    assert default_exclusions(GammaTarget()) == ((1,),)


# ---------------------------------------------------------------------------
# control variate evaluation


def test_eval_matches_hand_formula():
    rng = np.random.default_rng(6)
    draws = rng.normal(size=(5, 2))
    grads = rng.normal(size=(5, 2))
    chain = make_chain(draws, grads)
    basis = monomial_basis(2, 3)
    G = eval_control_variates(chain, basis)
    assert isinstance(G, np.ndarray) and G.shape == (5, basis.size)
    z = -0.5 * grads
    for col, alpha in enumerate(basis.active):
        for i in range(5):
            assert G[i, col] == pytest.approx(
                hand_control_variate(alpha, draws[i], z[i]), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("d,exclusions", [(3, ()), (3, ((1, 0, 0),)), (1, ((1,),)), (4, ())],
                         ids=["garch-full", "garch-excluded", "gamma", "regression"])
@pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])
def test_eval_equals_the_per_column_oracle_bit_for_bit(d, exclusions, degree, standardized):
    rng = np.random.default_rng(17)
    draws = rng.normal(1.0, 2.0, size=(500, d))
    grads = rng.normal(size=(500, d))
    center = np.round(draws.mean(axis=0), 3)
    # exact zeros of x (raw or standardized) and a -0.0 gradient, where the
    # sign of a zero sum shows
    draws[7] = center if standardized else 0.0
    grads[7, 0] = -0.0
    grads[11] = 0.0
    chain = make_chain(draws, grads)
    basis = monomial_basis(d, degree, exclusions)
    scaling = (center, np.round(draws.std(axis=0), 3)) if standardized else (None, None)
    G = eval_control_variates(chain, basis, *scaling)
    expected = reference_control_variates(chain, basis, *scaling)
    assert G.shape == (500, basis.size) and G.flags.c_contiguous
    assert G.tobytes() == expected.tobytes()


def test_eval_with_standardization_matches_transformed_chain():
    rng = np.random.default_rng(7)
    draws = rng.normal(loc=[3.0, -1.0], scale=[2.0, 0.2], size=(40, 2))
    grads = rng.normal(size=(40, 2))
    chain = make_chain(draws, grads)
    basis = monomial_basis(2, 2)
    center = np.array([3.1, -0.9])
    scale = np.array([2.2, 0.25])
    cv = eval_control_variates(chain, basis, center=center, scale=scale)
    # the same monomials on the affinely mapped chain, whose gradient is
    # scale * grad by the chain rule
    mapped = make_chain((draws - center) / scale, grads * scale)
    cv2 = eval_control_variates(mapped, basis)
    assert np.allclose(cv, cv2, rtol=1e-12)


def test_eval_requires_gradients_and_matching_dimension():
    rng = np.random.default_rng(8)
    chain = make_chain(rng.normal(size=(10, 2)), np.empty((0, 2)))
    with pytest.raises(ValueError):
        eval_control_variates(chain, monomial_basis(2, 1))
    good = make_chain(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    with pytest.raises(ValueError):
        eval_control_variates(good, monomial_basis(3, 1))
    for center, scale in (([np.nan, 0.0], None), (None, [1.0, 0.0]), (None, -1.0),
                          (None, [1.0, np.inf])):
        with pytest.raises(ValueError, match="^center must be finite and scale finite positive$"):
            eval_control_variates(good, monomial_basis(2, 1), center=center, scale=scale)


def test_standardization_from_chain():
    draws = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    chain = make_chain(draws, np.zeros((3, 2)))
    center, scale = standardization_from_chain(chain)
    assert np.allclose(center, [3.0, 5.0])
    assert scale[0] == pytest.approx(2.0)
    assert scale[1] == 1.0  # zero-spread coordinate left unscaled


# ---------------------------------------------------------------------------
# exact-cancellation cases


def test_gaussian_linear_control_variate_is_exact():
    model = GaussianTarget(mu=2.0, sigma2=3.0)
    chain = rw_metropolis(model, SamplerConfig(length=3000, burn_in=200, seed=13))
    f = chain.draws[:, 0]
    fit, ftilde = fit_and_renormalize(chain, chain, {1: monomial_basis(1, 1)}, f, f)[1]
    # f = x and g = (x - mu)/(2 sigma2) are exactly collinear, so the sample
    # fit recovers the population coefficient -2 sigma2 and the renormalized
    # values collapse to the constant mu
    assert fit.coefficients[0] == pytest.approx(-6.0, rel=1e-9)
    assert ftilde.var() < 1e-18
    assert ftilde.mean() == pytest.approx(2.0, abs=1e-12)


def test_exponential_square_control_variate_is_exact():
    model = ExponentialTarget(lam=1.0)
    chain = rw_metropolis(model, SamplerConfig(length=3000, burn_in=200, seed=14))
    basis = monomial_basis(1, 2, default_exclusions(model))
    f = chain.draws[:, 0]
    fit, ftilde = fit_and_renormalize(chain, chain, {2: basis}, f, f)[2]
    # default exclusions leave only x^2; its control variate is lam x - 1
    assert basis.active == ((2,),)
    assert fit.coefficients[0] == pytest.approx(-1.0, rel=1e-9)
    assert ftilde.var() < 1e-18
    assert ftilde.mean() == pytest.approx(1.0, abs=1e-12)


def test_exponential_linear_basis_is_empty_after_exclusions():
    model = ExponentialTarget(lam=1.0)
    chain = rw_metropolis(model, SamplerConfig(length=500, burn_in=100, seed=15))
    basis = monomial_basis(1, 1, default_exclusions(model))
    center, scale = standardization_from_chain(chain, model.constrained_coordinates)
    f = chain.draws[:, 0]
    fit, ftilde = fit_and_renormalize(chain, chain, {1: basis}, f, f, center, scale)[1]
    assert basis.size == 0
    assert fit.coefficients.shape == (0,) and fit.dropped_columns == ()
    assert np.array_equal(ftilde, f)


# ---------------------------------------------------------------------------
# degenerate columns, conditioning, sample size


def test_constant_gradient_makes_linear_columns_degenerate():
    rng = np.random.default_rng(9)
    draws = rng.normal(size=(200, 2))
    grads = np.tile([1.0, -2.0], (200, 1))
    chain = make_chain(draws, grads)
    cv = eval_control_variates(chain, monomial_basis(2, 1))
    fit = fit_coefficients(cv, draws[:, 0])
    assert fit.dropped_columns == (0, 1)
    assert np.all(fit.coefficients == 0.0)
    assert np.array_equal(renormalize(draws[:, 0], cv, fit), draws[:, 0])


def test_partial_degeneracy_keeps_live_columns():
    rng = np.random.default_rng(10)
    draws = rng.normal(size=(300, 2))
    grads = np.column_stack([np.full(300, 0.7), rng.normal(size=300)])
    chain = make_chain(draws, grads)
    cv = eval_control_variates(chain, monomial_basis(2, 1))
    fit = fit_coefficients(cv, draws[:, 1])
    assert fit.dropped_columns == (0,)
    assert fit.coefficients[0] == 0.0
    assert fit.coefficients[1] != 0.0


def test_degenerate_columns_and_the_fit_drop_the_same_columns():
    # a constant column, and near-constant ones below and above the
    # tolerance of var / mean square = 1e-12
    rng = np.random.default_rng(13)
    noise = rng.normal(size=2000)
    G = np.column_stack([np.full(2000, 3.0), 5.0 + 1e-7 * noise, 5.0 + 1e-5 * noise,
                         rng.normal(size=2000)])
    flags = degenerate_columns(G)
    assert flags.tolist() == [True, True, False, False]
    fit = fit_coefficients(G, rng.normal(size=2000))
    assert fit.dropped_columns == tuple(np.flatnonzero(flags)) == (0, 1)
    assert np.all(fit.coefficients[[0, 1]] == 0.0)


def test_near_duplicate_columns_trigger_ridge():
    rng = np.random.default_rng(11)
    g = rng.normal(size=4000)
    values = np.column_stack([g, g * (1.0 + 1e-14 * rng.normal(size=g.size))])
    f = g + rng.normal(size=g.size)
    fit = fit_coefficients(values, f)
    assert fit.condition_estimate > 1e10
    assert fit.ridge_applied
    assert np.all(np.isfinite(fit.coefficients))


def test_insufficient_draws_raise():
    rng = np.random.default_rng(12)
    draws = rng.normal(size=(5, 2))
    grads = rng.normal(size=(5, 2))
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(2, 3))
    with pytest.raises(InsufficientSampleError):
        fit_coefficients(cv, draws[:, 0])


def test_fit_input_validation():
    rng = np.random.default_rng(13)
    draws = rng.normal(size=(50, 1))
    grads = rng.normal(size=(50, 1))
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(1, 1))
    with pytest.raises(ValueError):
        fit_coefficients(cv, draws[:10, 0])
    bad = draws[:, 0].copy()
    bad[3] = np.nan
    with pytest.raises(ValueError):
        fit_coefficients(cv, bad)


def test_renormalize_validation():
    rng = np.random.default_rng(14)
    draws = rng.normal(size=(50, 1))
    grads = rng.normal(size=(50, 1))
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(1, 1))
    fit = fit_coefficients(cv, draws[:, 0])
    with pytest.raises(ValueError):
        renormalize(draws[:10, 0], cv, fit)
    wider = eval_control_variates(make_chain(draws, grads), monomial_basis(1, 2))
    with pytest.raises(ValueError, match="^fit and control variates disagree on column count$"):
        renormalize(draws[:, 0], wider, fit)


# ---------------------------------------------------------------------------
# several functions of the chain in one fit


def matrix_fit_cases():
    rng = np.random.default_rng(20)
    draws = rng.normal(size=(400, 3))
    grads = -draws + 0.3 * rng.normal(size=(400, 3))
    full = eval_control_variates(make_chain(draws, grads), monomial_basis(3, 2))
    f = np.column_stack([draws, draws[:, 0] * draws[:, 1], np.exp(0.5 * draws[:, 2])])
    # a constant gradient coordinate makes its linear column degenerate
    grads_const = grads.copy()
    grads_const[:, 1] = 0.7
    dropped = eval_control_variates(make_chain(draws, grads_const), monomial_basis(3, 1))
    g = rng.normal(size=400)
    ridge = np.column_stack([g, g * (1.0 + 1e-14 * rng.normal(size=g.size)), rng.normal(size=400)])
    return {"full": (full, f), "dropped": (dropped, f), "ridge": (ridge, f + g[:, None])}


@pytest.mark.parametrize("case", ["full", "dropped", "ridge"])
def test_matrix_f_fit_equals_column_fits(case):
    cv, f = matrix_fit_cases()[case]
    fit = fit_coefficients(cv, f)
    assert fit.coefficients.shape == (cv.shape[1], f.shape[1])
    ftilde = renormalize(f, cv, fit)
    assert ftilde.shape == f.shape
    for j in range(f.shape[1]):
        one = fit_coefficients(cv, f[:, j])
        assert (fit.dropped_columns, fit.ridge_applied, fit.condition_estimate) == \
            (one.dropped_columns, one.ridge_applied, one.condition_estimate)
        col = renormalize(f[:, j], cv, one)
        assert np.abs(ftilde[:, j] - col).max() <= 1e-12 * np.abs(col).max()
        if case != "ridge":
            # under the ridge, how two near-duplicate columns share a coefficient
            # is set by rounding; only their combination G a is determined
            scale = np.abs(one.coefficients).max()
            assert np.abs(fit.coefficients[:, j] - one.coefficients).max() <= 1e-12 * scale
    assert fit.dropped_columns == ((1,) if case == "dropped" else ())
    assert fit.ridge_applied == (case == "ridge")


def test_matrix_f_shape_validation():
    cv, f = matrix_fit_cases()["full"]
    with pytest.raises(ValueError):
        fit_coefficients(cv, f[:, :, None])
    with pytest.raises(ValueError):
        fit_coefficients(cv, f[:-1])
    fit = fit_coefficients(cv, f)
    with pytest.raises(ValueError):
        renormalize(f[:-1], cv, fit)
    with pytest.raises(ValueError):
        renormalize(f[:, 0], cv, fit)


# ---------------------------------------------------------------------------
# least-squares invariants


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(30, 120),
    shift=st.floats(-50, 50, allow_nan=False),
)
def test_shift_equivariance_and_insample_reduction(seed, n, shift):
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n, 2))
    grads = rng.normal(size=(n, 2))
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(2, 2))
    f = draws[:, 0] + 0.3 * draws[:, 1] ** 2
    fit = fit_coefficients(cv, f)
    ftilde = renormalize(f, cv, fit)
    # fitting in centered moments makes the result exactly shift equivariant
    fit2 = fit_coefficients(cv, f + shift)
    assert np.allclose(fit2.coefficients, fit.coefficients, rtol=1e-9, atol=1e-12)
    # and the in-sample renormalized variance can never exceed the plain one
    assert ftilde.var() <= f.var() * (1.0 + 1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(15)
    draws = rng.normal(size=(80, 2))
    grads = rng.normal(size=(80, 2))
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(2, 1))
    f = draws[:, 0]
    a = fit_coefficients(cv, f).coefficients
    a5 = fit_coefficients(cv, 5.0 * f).coefficients
    assert np.allclose(a5, 5.0 * a, rtol=1e-10)


# ---------------------------------------------------------------------------
# end-to-end estimates


def test_zv_estimate_deterministic():
    model = GammaTarget(shape=3.0, scale=1.0)
    chain = rw_metropolis(model, SamplerConfig(length=2000, burn_in=300, seed=19))
    basis = monomial_basis(1, 2, default_exclusions(model))
    center, scale = standardization_from_chain(chain, model.constrained_coordinates)
    f = chain.draws[:, 0]
    a, b = (fit_and_renormalize(chain, chain, {2: basis}, f, f, center, scale)[2][1].mean()
            for _ in range(2))
    assert a == b
    assert abs(a - 3.0) < 0.2


# ---------------------------------------------------------------------------
# the one fit path


def gaussian_like_chain(seed, n=400, d=3):
    rng = np.random.default_rng(seed)
    draws = rng.normal(1.0, 2.0, size=(n, d))
    return make_chain(draws, -(draws - 1.0) / 4.0 + 0.1 * rng.normal(size=(n, d)))


@pytest.mark.parametrize("single_chain", [False, True])
def test_fit_and_renormalize_equals_single_degree_calls(single_chain):
    fit_chain = gaussian_like_chain(1)
    eval_chain = fit_chain if single_chain else gaussian_like_chain(2)
    # the excluded linear monomial keeps every lower basis a prefix of the top one
    exclusions = ((1, 0, 0),)
    bases = {p: monomial_basis(3, p, exclusions) for p in (1, 2, 3)}
    center, scale = standardization_from_chain(fit_chain, uncentered=(0,))
    f_fit, f_eval = fit_chain.draws ** 2, eval_chain.draws ** 2
    together = fit_and_renormalize(fit_chain, eval_chain, bases, f_fit, f_eval, center, scale)
    assert list(together) == [1, 2, 3]
    for p, basis in bases.items():
        fit, ftilde = fit_and_renormalize(fit_chain, eval_chain, {p: basis}, f_fit, f_eval,
                                          center, scale)[p]
        assert np.array_equal(together[p][0].coefficients, fit.coefficients)
        assert together[p][0].condition_estimate == fit.condition_estimate
        assert np.array_equal(together[p][1], ftilde)
        # and the single-degree call is the written-out recipe
        cv_fit = eval_control_variates(fit_chain, basis, center=center, scale=scale)
        cv_eval = eval_control_variates(eval_chain, basis, center=center, scale=scale)
        direct = fit_coefficients(cv_fit, f_fit)
        assert np.array_equal(direct.coefficients, fit.coefficients)
        assert np.array_equal(renormalize(f_eval, cv_eval, direct), ftilde)


def test_fit_and_renormalize_needs_prefix_bases():
    chain = gaussian_like_chain(3, d=2)
    bases = {1: monomial_basis(2, 1, ((1, 0),)), 2: monomial_basis(2, 2)}
    with pytest.raises(ValueError, match="column prefix"):
        fit_and_renormalize(chain, chain, bases, chain.draws, chain.draws)
