import numpy as np
import pytest
from helpers import ar1_series
from hypothesis import given, settings
from hypothesis import strategies as st

from zvmcmc import (
    GammaTarget,
    GaussianTarget,
    ProbitTarget,
    RatioReport,
    ReplicationStudy,
    SamplerConfig,
    batch_means_asvar,
    cv_zero_mean_test,
    eval_control_variates,
    fit_coefficients,
    linnik_estimate,
    long_chain_reference,
    moment_diagnostic,
    monomial_basis,
    rw_metropolis,
    sample_chain,
    synthetic_banknote,
    variance_ratio,
)
from test_zv import make_chain

from zvmcmc.diagnostics import MOMENT_DELTA

# ---------------------------------------------------------------------------
# batch means


def test_batch_means_asvar_iid_matches_variance():
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 1.7, size=40000)
    assert batch_means_asvar(x, 200) == pytest.approx(1.7**2, rel=0.25)


def test_batch_means_asvar_ar1_oracle():
    # asymptotic variance of an AR(1) mean is sigma^2 (1+rho)/(1-rho)
    rho, sigma = 0.6, 1.3
    x = ar1_series(rho, sigma, 60000, seed=32)
    expected = sigma**2 * (1 + rho) / (1 - rho)
    assert batch_means_asvar(x, 150) == pytest.approx(expected, rel=0.25)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), shift=st.floats(-100, 100), scale=st.floats(0.01, 50))
def test_batch_means_asvar_affine_behavior(seed, shift, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=500)
    base = batch_means_asvar(x, 10)
    assert batch_means_asvar(x + shift, 10) == pytest.approx(base, rel=1e-7, abs=1e-12)
    assert batch_means_asvar(scale * x, 10) == pytest.approx(scale**2 * base, rel=1e-9)


def one_column_batch_means(x, batch_count):
    """batch_means_asvar's formula for one series, written out on its own."""
    size = x.size // batch_count
    means = x[: size * batch_count].reshape(batch_count, size).mean(axis=1)
    return float(size * means.var(ddof=1))


@pytest.mark.parametrize("n,k,batch_count", [(1003, 3, 10), (5000, 11, 70), (47, 1, 10), (60_001, 4, 244)])
def test_batch_means_asvar_over_columns_equals_one_column_calls(n, k, batch_count):
    rng = np.random.default_rng(n + k)
    # a strided slice: neither its rows nor its columns are contiguous
    x = rng.normal(3.0, 2.0, size=(2 * n, k + 2))[::2, 1:k + 1]
    assert n % batch_count != 0
    columns = batch_means_asvar(x, batch_count)
    assert columns.shape == (k,)
    singles = [batch_means_asvar(x[:, j], batch_count) for j in range(k)]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(columns, singles)
    assert np.array_equal(columns, [one_column_batch_means(x[:, j], batch_count) for j in range(k)])


def test_batch_means_asvar_validation():
    with pytest.raises(ValueError):
        batch_means_asvar(np.ones((4, 4)), 10)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        batch_means_asvar(np.ones((40, 2, 2)), 10)
    with pytest.raises(ValueError):
        batch_means_asvar(np.array([1.0, np.nan] * 50), 10)
    with pytest.raises(ValueError):
        batch_means_asvar(np.ones(100), 5)
    with pytest.raises(ValueError):
        batch_means_asvar(np.ones(15), 10)


@pytest.mark.parametrize("batch_count", [None, "20", True, 20.5, float("inf")])
def test_batch_means_asvar_takes_an_integer_batch_count(batch_count):
    with pytest.raises(ValueError) as raised:
        batch_means_asvar(np.ones(100), batch_count)
    assert str(raised.value) == f"batch_count must be an integer >= 10, got {batch_count!r}"
    assert batch_means_asvar(np.arange(100.0), 20.0) == batch_means_asvar(np.arange(100.0), 20)


# ---------------------------------------------------------------------------
# variance ratios


def toy_study(rng, R=40, zv_noise=0.1):
    ordinary = rng.normal(size=(R, 2))
    zv = {1: zv_noise * rng.normal(size=(R, 2))}
    return ReplicationStudy(
        ordinary_estimates=ordinary,
        zv_estimates=zv,
        seeds=np.arange(R),
        parameter_names=("a", "b"),
    )


def test_variance_ratio_identical_arms_is_one():
    rng = np.random.default_rng(33)
    ordinary = rng.normal(size=(30, 1))
    study = ReplicationStudy(
        ordinary_estimates=ordinary,
        zv_estimates={1: ordinary.copy()},
        seeds=np.arange(30),
        parameter_names=("a",),
    )
    rep = variance_ratio(study, 0, 1)
    assert rep.point == 1.0
    assert rep.lower <= 1.0 <= rep.upper


def test_variance_ratio_interval_contains_point():
    rng = np.random.default_rng(34)
    study = toy_study(rng)
    rep = variance_ratio(study, 0, 1, resamples=500, seed=7)
    assert isinstance(rep, RatioReport)
    assert 0 < rep.lower <= rep.point <= rep.upper
    assert not rep.infinite
    # same seed, same interval
    rep2 = variance_ratio(study, 0, 1, resamples=500, seed=7)
    assert (rep.lower, rep.point, rep.upper) == (rep2.lower, rep2.point, rep2.upper)


def test_variance_ratio_small_study_is_point_only():
    rng = np.random.default_rng(35)
    study = toy_study(rng, R=10)
    rep = variance_ratio(study, 1, 1)
    assert 0 < rep.point < np.inf
    assert np.isnan(rep.lower) and np.isnan(rep.upper)


def test_variance_ratio_small_study_with_lower_floor_skips_undefined_resamples():
    # at R=3 one resample in nine draws a single replication three times; both
    # arms then have zero variance, and counting that 0/0 as inf would push
    # the upper bound to inf
    rng = np.random.default_rng(38)
    study = toy_study(rng, R=3)
    rep = variance_ratio(study, 0, 1, resamples=1000, seed=5, min_replications=2)
    assert np.isfinite(rep.lower) and np.isfinite(rep.upper)
    assert 0 < rep.lower < rep.point < rep.upper
    assert not rep.infinite


def test_variance_ratio_two_replications_interval_is_the_point():
    # every defined R=2 resample is the original pair, in one order or the other
    rng = np.random.default_rng(39)
    study = toy_study(rng, R=2)
    rep = variance_ratio(study, 1, 1, resamples=200, seed=3, min_replications=2)
    assert rep.lower == rep.point == rep.upper


def test_variance_ratio_exact_cv_reports_infinite():
    rng = np.random.default_rng(36)
    R = 25
    study = ReplicationStudy(
        ordinary_estimates=rng.normal(size=(R, 1)),
        zv_estimates={2: np.full((R, 1), 3.14)},
        seeds=np.arange(R),
        parameter_names=("a",),
    )
    rep = variance_ratio(study, 0, 2)
    assert rep.infinite
    assert np.isinf(rep.point)
    assert np.isinf(rep.upper)


def test_variance_ratio_errors():
    rng = np.random.default_rng(37)
    study = toy_study(rng)
    with pytest.raises(KeyError):
        variance_ratio(study, 0, 3)
    tiny = toy_study(rng, R=1)
    with pytest.raises(ValueError):
        variance_ratio(tiny, 0, 1)


# ---------------------------------------------------------------------------
# zero-mean checks


def test_zero_mean_passes_with_correct_gradients():
    model = GaussianTarget(mu=1.0, sigma2=2.0)
    chain = rw_metropolis(model, SamplerConfig(length=6000, burn_in=500, seed=38))
    cv = eval_control_variates(chain, monomial_basis(1, 2))
    rep = cv_zero_mean_test(cv)
    assert rep.z_scores.shape == (2,)
    assert np.all(np.abs(rep.z_scores) < 4.0)
    assert not rep.degenerate.any()


def test_zero_mean_flags_wrong_gradients():
    # score a unit-variance gaussian chain with the gradient of a variance-4
    # gaussian; the quadratic control variate x^2/4 - 1 then has mean -3/4
    model = GaussianTarget(mu=0.0, sigma2=1.0)
    chain = rw_metropolis(model, SamplerConfig(length=6000, burn_in=500, seed=39))
    wrong = make_chain(chain.draws, -chain.draws / 4.0)
    cv = eval_control_variates(wrong, monomial_basis(1, 2))
    rep = cv_zero_mean_test(cv)
    assert abs(rep.z_scores[1]) > 10.0


def test_zero_mean_degenerate_column_gets_nan():
    rng = np.random.default_rng(40)
    draws = rng.normal(size=(2000, 2))
    grads = np.column_stack([np.full(2000, 2.0), rng.normal(size=2000)])
    cv = eval_control_variates(make_chain(draws, grads), monomial_basis(2, 1))
    rep = cv_zero_mean_test(cv)
    assert rep.degenerate[0] and not rep.degenerate[1]
    assert np.isnan(rep.z_scores[0]) and np.isfinite(rep.z_scores[1])


def test_fit_and_zero_mean_test_flag_the_same_degenerate_columns():
    # one column walked across var / mean square = DEGENERATE_REL_TOL: by
    # bisection on its spread, then one ulp of a draw near its mean at a time,
    # steps finer than the rounding of either reduction
    z = np.random.default_rng(6).standard_normal(1200)

    def degenerate(values):
        G = values[:, None]
        flag = bool(cv_zero_mean_test(G).degenerate[0])
        assert fit_coefficients(G, z).dropped_columns == ((0,) if flag else ())
        return flag

    lo, hi = 0.5e-6, 2e-6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if degenerate(1.0 + mid * z) else (lo, mid)
    col = 1.0 + lo * z
    seen = set()
    for i in np.resize(np.flatnonzero(np.abs(np.abs(z) - 0.03) < 0.006), 400):
        flag = degenerate(col)
        seen.add(flag)
        # moving a draw away from the mean adds variance, toward it removes some
        away = (col[i] - col.mean()) if flag else (col.mean() - col[i])
        col[i] = np.nextafter(col[i], np.copysign(np.inf, away))
    assert seen == {True, False}


def test_zero_mean_needs_enough_draws():
    rng = np.random.default_rng(41)
    cv = eval_control_variates(
        make_chain(rng.normal(size=(500, 1)), rng.normal(size=(500, 1))),
        monomial_basis(1, 1),
    )
    with pytest.raises(ValueError):
        cv_zero_mean_test(cv)


# ---------------------------------------------------------------------------
# tail diagnostics


def test_linnik_estimate_gaussian_value():
    model = GaussianTarget(mu=0.0, sigma2=2.0)
    chain = rw_metropolis(model, SamplerConfig(length=20000, burn_in=1000, seed=42))
    rep = linnik_estimate(chain)
    # E[(d log pi/dx)^2] = 1/sigma2
    assert rep.estimates[0] == pytest.approx(0.5, abs=0.08)
    assert not rep.divergent[0]


def test_linnik_gamma3_stable_for_fixed_seed():
    model = GammaTarget(shape=3.0, scale=1.0)
    chain = rw_metropolis(model, SamplerConfig(length=20000, burn_in=1000, seed=43))
    rep = linnik_estimate(chain)
    assert not rep.divergent[0]


def test_moment_diagnostic_stable_for_gaussian():
    model = GaussianTarget()
    chain = rw_metropolis(model, SamplerConfig(length=5000, burn_in=500, seed=44))
    cv = eval_control_variates(chain, monomial_basis(1, 2))
    rep = moment_diagnostic(cv)
    assert rep.delta == MOMENT_DELTA == 0.5
    assert rep.means.shape == (2,)
    assert np.all(rep.means > 0)
    assert rep.stable.all()


# ---------------------------------------------------------------------------
# long reference chains


def test_long_chain_reference_brackets_truth():
    model = GaussianTarget(mu=3.0, sigma2=1.5)
    chain = sample_chain(
        model, SamplerConfig(length=40000, burn_in=1000, seed=45, compute_gradients=False)
    )
    rep = long_chain_reference(chain)
    assert rep.length == 40000
    assert rep.lower[0] < 3.0 < rep.upper[0]
    assert rep.upper[0] - rep.point[0] == pytest.approx(rep.point[0] - rep.lower[0])
    assert rep.asvar[0] > 0


def test_long_chain_reference_accepts_existing_chain():
    model = GaussianTarget()
    chain = rw_metropolis(
        model, SamplerConfig(length=5000, burn_in=200, seed=46, compute_gradients=False)
    )
    rep = long_chain_reference(chain)
    assert rep.point[0] == pytest.approx(chain.draws[:, 0].mean())


def test_long_chain_reference_gibbs_method():
    model = ProbitTarget(synthetic_banknote(seed=101, n=80))
    chain = sample_chain(
        model, SamplerConfig(length=2000, burn_in=200, seed=47, compute_gradients=False),
        method="gibbs",
    )
    rep = long_chain_reference(chain)
    assert rep.point.shape == (4,)
    assert np.all(rep.upper > rep.lower)
