import math
import pickle
import re

import numpy as np
import pytest
from helpers import (
    fd_gradient,
    garch_variance_path,
    reference_garch_grad_rows,
    reference_logit_grad_rows,
    run_fresh,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import blas

from zvmcmc import (
    BinaryRegressionData,
    ExponentialTarget,
    GammaTarget,
    GarchPrior,
    GarchTarget,
    GaussianTarget,
    LogitTarget,
    ProbitTarget,
    ReturnsSeries,
    SamplerConfig,
    SupportError,
    rw_metropolis,
    synthetic_banknote,
    synthetic_demgbp_returns,
)


def small_regression_data(seed=5, n=40, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 0] = 1.0
    y = (rng.uniform(size=n) < 0.5).astype(float)
    # keep both classes present
    y[0], y[1] = 0.0, 1.0
    return BinaryRegressionData(design=X, response=y)


def small_series(seed=7, length=60):
    rng = np.random.default_rng(seed)
    r = rng.normal(scale=0.01, size=length)
    return ReturnsSeries(returns=r, h0=float(np.var(r, ddof=1)))


# ---------------------------------------------------------------------------
# log densities against independent formulas


def test_gaussian_log_density_matches_normal_logpdf_up_to_constant():
    m = GaussianTarget(mu=1.5, sigma2=2.5)
    xs = [-2.0, 0.3, 1.5, 4.0]
    diffs = [
        m.log_density([x]) - stats.norm.logpdf(x, loc=1.5, scale=np.sqrt(2.5)) for x in xs
    ]
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_exponential_log_density_matches_expon_logpdf_up_to_constant():
    m = ExponentialTarget(lam=2.0)
    xs = [0.1, 0.7, 3.0]
    diffs = [m.log_density([x]) - stats.expon.logpdf(x, scale=0.5) for x in xs]
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_gamma_log_density_matches_gamma_logpdf_up_to_constant():
    m = GammaTarget(shape=3.0, scale=2.0)
    xs = [0.2, 1.0, 5.0]
    diffs = [m.log_density([x]) - stats.gamma.logpdf(x, a=3.0, scale=2.0) for x in xs]
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_probit_log_density_matches_explicit_sum():
    data = small_regression_data()
    m = ProbitTarget(data)
    beta = np.array([0.3, -0.5, 0.8])
    expected = 0.0
    for xi, yi in zip(data.design, data.response):
        p = stats.norm.cdf(xi @ beta)
        expected += yi * np.log(p) + (1.0 - yi) * np.log(1.0 - p)
    assert m.log_density(beta) == pytest.approx(expected, rel=1e-10)


def test_logit_log_density_matches_explicit_sum():
    data = small_regression_data()
    m = LogitTarget(data)
    beta = np.array([-0.2, 0.4, 1.1])
    expected = 0.0
    for xi, yi in zip(data.design, data.response):
        t = xi @ beta
        expected += yi * t - np.log1p(np.exp(t))
    assert m.log_density(beta) == pytest.approx(expected, rel=1e-10)


def fsum_logit_log_density(data, beta):
    """sum_i log sigmoid(s_i x_i'beta), s_i = 2 y_i - 1, on Python floats,
    each linear predictor and the total summed exactly with math.fsum."""
    beta = [float(b) for b in beta]
    terms = []
    for xi, yi in zip(data.design.tolist(), data.response.tolist()):
        u = math.fsum(x * b for x, b in zip(xi, beta))
        if yi == 0.0:
            u = -u
        terms.append(-math.log1p(math.exp(-u)) if u >= 0.0 else u - math.log1p(math.exp(u)))
    return math.fsum(terms)


def pilot_sd(model):
    """The standard deviations of the model's default pilot."""
    return np.sqrt(np.diag(model.default_pilot()[1]))


def logit_chain_points():
    model = LogitTarget(synthetic_banknote(seed=101))
    cfg = SamplerConfig(length=100, burn_in=500, thin=5, seed=4, compute_gradients=False)
    return model, rw_metropolis(model, cfg).draws


@pytest.mark.parametrize("factor", [1.0, 100.0])
def test_logit_log_density_matches_an_exact_sum(factor):
    model, points = logit_chain_points()
    for beta in factor * points:
        expected = fsum_logit_log_density(model.data, beta)
        assert abs(model.log_density(beta) - expected) <= 1e-13 * abs(expected)


def abs_negative_logit_log_density(model, beta):
    """LogitTarget.log_density as written with @, abs then negative, and .sum()."""
    u = model.s_design @ beta
    tail = np.abs(u)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.minimum(u, 0.0, out=u)
    u -= tail
    return float(u.sum())


def test_logit_log_density_equals_the_abs_negative_form_bit_for_bit():
    model, points = logit_chain_points()
    for factor in (1.0, 100.0, 1000.0):
        for beta in factor * points:
            assert model.log_density(beta) == abs_negative_logit_log_density(model, beta)
    # zeros in u: every row at beta = 0, and rows 0 and 1 where the two
    # slopes cancel exactly
    data = BinaryRegressionData(design=[[1.0, 2.0, -1.0], [1.0, -2.0, 1.0], [1.0, 3.0, 5.0],
                                        [1.0, -1.0, 2.0]],
                                response=[0.0, 1.0, 1.0, 0.0])
    model = LogitTarget(data)
    for beta in (np.zeros(3), np.array([0.0, 0.5, 1.0])):
        u = model.s_design @ beta
        assert np.any(u == 0.0)
        assert model.log_density(beta) == abs_negative_logit_log_density(model, beta)


def test_logit_log_density_agrees_with_the_logaddexp_form():
    # the form log_density took before its log-sigmoid rewrite
    model = LogitTarget(synthetic_banknote(seed=101))
    X, y = model.data.design, model.data.response
    rng = np.random.default_rng(23)
    for beta in rng.standard_normal((1000, 4)) * (3.0 * pilot_sd(model)):
        t = X @ beta
        old = float(y @ t - np.sum(np.logaddexp(0.0, t)))
        assert abs(model.log_density(beta) - old) <= 1e-13 * abs(old)


def test_logit_log_density_is_quiet_far_in_the_tails():
    data = small_regression_data()
    model = LogitTarget(data)
    # |x_i'beta| of order 1e3: exp(-|u|) underflows to 0 but nothing overflows
    beta = np.array([0.0, 1e3, -1e3])
    assert np.abs(data.design @ beta).max() > 700.0
    with np.errstate(over="raise", invalid="raise"):
        value = model.log_density(beta)
        flipped = model.log_density(-beta)
    assert math.isfinite(value) and value < 0.0 and math.isfinite(flipped)
    assert value == pytest.approx(fsum_logit_log_density(data, beta), rel=1e-13)


def test_logit_gradient_matches_the_expit_oracle():
    # the model's numpy sigmoid against scipy's expit, on two blocks of rows
    # (the second partial) and rows far enough out that sigmoid is within
    # 1e-13 of 0 or 1
    model = LogitTarget(synthetic_banknote(seed=101))
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((1100, 4)) * (3.0 * pilot_sd(model))
    rows[::10] *= 30.0
    tails = np.abs(rows @ model.data.design.T).max(axis=1) > 30.0
    assert 100 <= tails.sum() < len(rows)
    want = reference_logit_grad_rows(model.data, rows)
    # relative to each row's largest entry: an entry that cancels to near 0
    # keeps the absolute error of the row's sum
    error = np.abs(model.grad_log_density(rows) - want) / np.abs(want).max(axis=1, keepdims=True)
    assert error.max() <= 1e-13


def test_logit_gradient_is_quiet_far_in_the_tails():
    data = small_regression_data()
    model = LogitTarget(data)
    # |x_i'beta| of order 1e3: exp(-u) overflows to inf, whose reciprocal is
    # sigmoid's limit 0, without a warning
    beta = np.array([[0.0, 1e3, -1e3], [0.0, -1e3, 1e3]])
    assert np.abs(beta @ data.design.T).max() > 710.0
    with np.errstate(over="raise", invalid="raise"):
        got = model.grad_log_density(beta)
    want = reference_logit_grad_rows(data, beta)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=1, keepdims=True))


def test_probit_and_garch_unpickled_in_a_fresh_interpreter_agree_bit_for_bit():
    # as under the spawn and forkserver start methods: the child never built a
    # model, so the scipy handles resolve on its first calls
    series = small_series()
    h0 = series.h0
    cases = [(ProbitTarget(small_regression_data()),
              np.array([[0.25, -0.4, 0.6], [-1.0, 0.3, 2.5]])),
             (GarchTarget(series), np.array([[0.7 * h0, 0.15, 0.55], [0.3 * h0, 0.25, 1.05]]))]
    code = (
        "import pickle, sys\n"
        "cases = pickle.load(sys.stdin.buffer)\n"
        "loaded = [m for m in ('scipy.special._ufuncs', 'scipy.linalg._fblas') if m in sys.modules]\n"
        "values = [([model.log_density(row) for row in rows],\n"
        "           [model.grad_log_density(row) for row in rows],\n"
        "           model.grad_log_density(rows)) for model, rows in cases]\n"
        "pickle.dump((loaded, values), sys.stdout.buffer)\n")
    loaded, values = pickle.loads(run_fresh(code, pickle.dumps(cases)).stdout)
    assert loaded == []
    for (model, rows), (densities, points, batch) in zip(cases, values):
        assert densities == [model.log_density(row) for row in rows]
        for row, got in zip(rows, points):
            assert np.array_equal(got, model.grad_log_density(row))
        assert np.array_equal(batch, model.grad_log_density(rows))


def test_garch_log_density_matches_hand_recursion():
    series = small_series()
    prior = GarchPrior(prior_sd=np.array([10.0, 10.0, 10.0]))
    m = GarchTarget(series, prior)
    omega = np.array([0.5 * series.h0, 0.2, 0.6])
    h_prev = series.h0
    r_prev = 0.0
    loglik = 0.0
    for r in series.returns:
        h = omega[0] + omega[2] * h_prev + omega[1] * r_prev**2
        loglik += stats.norm.logpdf(r, scale=np.sqrt(h))
        h_prev, r_prev = h, r
    logprior = float(np.sum(stats.norm.logpdf(omega, scale=prior.prior_sd)))
    got = m.log_density(omega)
    # the implementation drops additive constants; compare shifted values
    omega2 = np.array([0.8 * series.h0, 0.1, 0.3])
    h_prev, r_prev, loglik2 = series.h0, 0.0, 0.0
    for r in series.returns:
        h = omega2[0] + omega2[2] * h_prev + omega2[1] * r_prev**2
        loglik2 += stats.norm.logpdf(r, scale=np.sqrt(h))
        h_prev, r_prev = h, r
    logprior2 = float(np.sum(stats.norm.logpdf(omega2, scale=prior.prior_sd)))
    assert got - m.log_density(omega2) == pytest.approx(
        (loglik + logprior) - (loglik2 + logprior2), rel=1e-9
    )


# ---------------------------------------------------------------------------
# gradients against central differences


@pytest.mark.parametrize(
    "model,point",
    [
        (GaussianTarget(mu=2.0, sigma2=3.0), [0.7]),
        (ExponentialTarget(lam=1.5), [0.9]),
        (GammaTarget(shape=3.0, scale=1.0), [2.2]),
    ],
)
def test_toy_gradients_match_finite_differences(model, point):
    fd = fd_gradient(model.log_density, np.array(point))
    assert np.allclose(model.grad_log_density(point), fd, rtol=1e-6)


def test_regression_gradients_match_finite_differences():
    data = small_regression_data()
    for model in (ProbitTarget(data), LogitTarget(data)):
        beta = np.array([0.25, -0.4, 0.6])
        fd = fd_gradient(model.log_density, beta)
        assert np.allclose(model.grad_log_density(beta), fd, rtol=1e-6)


def test_garch_gradient_matches_finite_differences():
    series = small_series()
    m = GarchTarget(series)
    omega = np.array([0.7 * series.h0, 0.15, 0.55])
    fd = fd_gradient(m.log_density, omega)
    assert np.allclose(m.grad_log_density(omega), fd, rtol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(-5, 5),
    sigma2=st.floats(0.1, 10),
    x=st.floats(-8, 8),
)
def test_gaussian_gradient_property(mu, sigma2, x):
    m = GaussianTarget(mu=mu, sigma2=sigma2)
    fd = fd_gradient(m.log_density, np.array([x]))
    assert np.allclose(m.grad_log_density([x]), fd, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# GARCH recursion details


def test_garch_variance_path_matches_hand_loop():
    series = small_series()
    omega = np.array([0.3 * series.h0, 0.25, 0.5])
    h = garch_variance_path(series, omega)
    h_prev, r_prev = series.h0, 0.0
    expected = []
    for r in series.returns:
        h_t = omega[0] + omega[2] * h_prev + omega[1] * r_prev**2
        expected.append(h_t)
        h_prev, r_prev = h_t, r
    assert np.allclose(h, expected, rtol=1e-12)
    assert h[0] == pytest.approx(omega[0] + omega[2] * series.h0)


def hand_garch_recursions(series, omega):
    """h_t and dh_t/domega by the literal recursions, one t at a time."""
    h_prev, r_prev, d_prev = series.h0, 0.0, np.zeros(3)
    h, dh = [], []
    for r in series.returns:
        d_t = np.array([1.0, r_prev**2, h_prev]) + omega[2] * d_prev
        h_t = omega[0] + omega[2] * h_prev + omega[1] * r_prev**2
        h.append(h_t)
        dh.append(d_t)
        h_prev, r_prev, d_prev = h_t, r, d_t
    return np.array(h), np.array(dh)


def test_garch_recursions_match_hand_loop_when_explosive():
    # omega_3 > 1 grows h geometrically; the banded solve and the gradient's
    # recursion must still follow it
    series = small_series()
    omega = np.array([0.3 * series.h0, 0.25, 1.05])
    h_hand, dh_hand = hand_garch_recursions(series, omega)
    assert h_hand[-1] > 10 * h_hand[0]
    assert np.allclose(garch_variance_path(series, omega), h_hand, rtol=1e-12)
    w = 0.5 * (series.returns**2 / h_hand**2 - 1.0 / h_hand)
    grad_hand = w @ dh_hand - omega / GarchPrior().prior_sd**2
    assert np.allclose(GarchTarget(series).grad_log_density(omega), grad_hand, rtol=1e-10)


# ---------------------------------------------------------------------------
# batched gradients


def batch_cases():
    data = small_regression_data()
    series = small_series()
    h0 = series.h0
    garch_rows = np.array([[0.7 * h0, 0.15, 0.55], [0.3 * h0, 0.25, 1.05], [2.0 * h0, 0.01, 0.2]])
    coef_rows = np.array([[0.25, -0.4, 0.6], [-1.0, 0.3, 2.5], [0.0, 0.0, 0.0]])
    # tolerance of an m-row batch against its rows one at a time, relative to
    # each row's largest entry: the toys' and GARCH's gradients work entry by
    # entry, the regressions' matrix products may sum in another order
    return [
        (GaussianTarget(mu=2.0, sigma2=3.0), np.array([[0.7], [-1.2], [4.0]]), 0.0),
        (ExponentialTarget(lam=1.5), np.array([[0.9], [0.01], [3.0]]), 0.0),
        (GammaTarget(shape=3.0, scale=1.0), np.array([[2.2], [0.3], [5.0]]), 0.0),
        (ProbitTarget(data), coef_rows, 1e-12),
        (LogitTarget(data), coef_rows, 1e-12),
        (GarchTarget(series), garch_rows, 0.0),
    ]


@pytest.mark.parametrize("model,rows,tol", batch_cases(), ids=lambda v: getattr(v, "tag", None))
def test_batched_gradient_equals_row_by_row(model, rows, tol):
    batch = model.grad_log_density(rows)
    assert batch.shape == rows.shape
    for got, row in zip(batch, rows):
        want = model.grad_log_density(row)
        assert want.shape == (model.dimension,)
        # a point is the batch of one, bit for bit, in any argument form
        assert np.array_equal(want, model.grad_log_density(row[None])[0])
        assert np.array_equal(want, model.grad_log_density(row.tolist()))
        assert np.all(np.abs(got - want) <= tol * np.abs(want).max())
    assert model.grad_log_density(rows[:1]).shape == (1, model.dimension)


def test_batched_gradient_rejects_any_row_outside_strict_interior():
    m = GarchTarget(small_series())
    good = [0.5 * m.series.h0, 0.2, 0.5]
    with pytest.raises(SupportError):
        m.grad_log_density(np.array([good, [0.5 * m.series.h0, 0.0, 0.5]]))
    with pytest.raises(SupportError):
        m.grad_log_density(np.array([good, [-0.1, 0.2, 0.5]]))
    for x in (0.0, -0.5, np.nan):
        with pytest.raises(SupportError):
            ExponentialTarget().grad_log_density(np.array([[1.0], [x]]))


def test_batched_gradient_shape_errors():
    with pytest.raises(ValueError):
        GaussianTarget().grad_log_density(np.ones((4, 2)))
    with pytest.raises(ValueError):
        GarchTarget(small_series()).grad_log_density(np.ones((2, 2)))
    with pytest.raises(ValueError):
        GarchTarget(small_series()).grad_log_density(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        GaussianTarget().grad_log_density(np.ones(4))
    # log_density stays a one-point call
    with pytest.raises(ValueError):
        GaussianTarget().log_density(np.ones((4, 1)))


# ---------------------------------------------------------------------------
# support handling


def test_support_predicates():
    with pytest.raises(SupportError):
        ExponentialTarget().log_density([0.0])
    with pytest.raises(SupportError):
        GammaTarget().log_density([-1.0])
    assert np.isfinite(GaussianTarget().log_density([-1e8]))
    m = GarchTarget(small_series())
    assert np.isfinite(m.log_density([0.1, 0.0, 0.0]))
    with pytest.raises(SupportError):
        m.log_density([0.0, 0.1, 0.1])
    with pytest.raises(SupportError):
        m.log_density([0.1, -0.01, 0.1])


def test_gradient_bounds_derive_from_the_support():
    # the tuple GARCH stated by hand beside its support, before it was derived
    assert GarchTarget(small_series())._gradient_bounds() == (
        (0, True, "omega_1 must be > 0"),
        (1, False, "omega_2 must be >= 0"),
        (2, False, "omega_3 must be >= 0"),
        (1, True, "omega_2 must be > 0 strictly inside the support"),
        (2, True, "omega_3 must be > 0 strictly inside the support"),
    )
    # every other support is strict, so its gradients check it as it is
    data = small_regression_data()
    for model in (GaussianTarget(), ExponentialTarget(), GammaTarget(), ProbitTarget(data),
                  LogitTarget(data)):
        assert model._gradient_bounds() == model.support


def test_log_density_raises_outside_support():
    with pytest.raises(SupportError):
        ExponentialTarget().log_density([-0.5])
    with pytest.raises(SupportError):
        GarchTarget(small_series()).log_density([-1.0, 0.1, 0.1])


FINITE = "parameter must be finite"


def support_cases():
    """(model, point, message of the support check, message of the interior check).

    A message of None means the point passes that check.  Every point differs
    from the mean of the model's default pilot, which is strictly interior,
    in the coordinates it names.
    """
    data = small_regression_data()
    series = small_series()
    models = [GaussianTarget(mu=2.0, sigma2=3.0), ExponentialTarget(lam=1.5),
              GammaTarget(shape=3.0, scale=1.0), ProbitTarget(data), LogitTarget(data),
              GarchTarget(series)]
    cases = []
    for model in models:
        for j in range(model.dimension):
            for bad in (np.nan, np.inf, -np.inf):
                point = model.default_pilot()[0]
                point[j] = bad
                cases.append((model, point, FINITE, FINITE))
    for model in models[1:3]:
        for x in (0.0, -0.0, -1.0):
            cases.append((model, np.array([x]), "x must be > 0", "x must be > 0"))
    garch = models[-1]
    h = series.h0

    def at(*omega):
        return np.array(omega, dtype=float)

    omega_1 = "omega_1 must be > 0"
    omega_2, omega_3 = "omega_2 must be >= 0", "omega_3 must be >= 0"
    cases += [
        (garch, at(0.0, 0.1, 0.6), omega_1, omega_1),
        (garch, at(-1e-3 * h, 0.1, 0.6), omega_1, omega_1),
        (garch, at(0.2 * h, -1e-9, 0.6), omega_2, omega_2),
        (garch, at(0.2 * h, 0.1, -1e-9), omega_3, omega_3),
        # the checks run in order: finiteness, then coordinate by coordinate
        (garch, at(-1.0, np.nan, -1.0), FINITE, FINITE),
        (garch, at(-1.0, -1.0, -1.0), omega_1, omega_1),
        (garch, at(0.2 * h, -1.0, -1.0), omega_2, omega_2),
        # the faces are in the support but not in the strict interior, and the
        # interior checks run after the whole support
        (garch, at(0.2 * h, 0.0, 0.6), None, "omega_2 must be > 0 strictly inside the support"),
        (garch, at(0.2 * h, -0.0, 0.6), None, "omega_2 must be > 0 strictly inside the support"),
        (garch, at(0.2 * h, 0.1, 0.0), None, "omega_3 must be > 0 strictly inside the support"),
        (garch, at(0.2 * h, 0.0, 0.0), None, "omega_2 must be > 0 strictly inside the support"),
        (garch, at(0.2 * h, 0.0, -1.0), omega_3, omega_3),
    ]
    return cases


def raises_exactly(message):
    return pytest.raises(SupportError, match=f"^{re.escape(message)}$")


# each message's part of a support case's test id, written out so that a
# reworded message keeps the ids
SUPPORT_CASE_IDS = {
    None: "None",
    FINITE: "parameter must be finite",
    "x must be > 0": "x must be > 0",
    "omega_1 must be > 0": "omega_1 must be > 0",
    "omega_2 must be >= 0": "omega_2 must be >= 0",
    "omega_3 must be >= 0": "omega_3 must be >= 0",
    "omega_2 must be > 0 strictly inside the support":
        "omega_2 must be > 0 strictly inside the support",
    "omega_3 must be > 0 strictly inside the support":
        "omega_3 must be > 0 strictly inside the support",
}


def support_case_ids(cases):
    return [f"{model.tag}-point{k}-{SUPPORT_CASE_IDS[support]}-{SUPPORT_CASE_IDS[interior]}"
            for k, (model, _, support, interior) in enumerate(cases)]


@pytest.mark.parametrize("model,point,support,interior", support_cases(),
                         ids=support_case_ids(support_cases()))
def test_one_point_and_batch_checks_reject_alike(model, point, support, interior):
    if support is None:
        assert np.isfinite(model.log_density(point))
    else:
        with raises_exactly(support):
            model.log_density(point)
    inside = model.default_pilot()[0]
    # the one-point gradient, the batch of one, and a batch with the point in
    # either row
    for arg in (point, point[None], np.array([inside, point]), np.array([point, inside])):
        with raises_exactly(interior):
            model.grad_log_density(arg)


def shape_error(d, shape):
    return ValueError, f"parameter must have shape ({d},), got {shape}"


def one_point_contract():
    """(model, argument, outcome) for the one-point argument forms.

    The outcome is None when log_density takes the argument as the (d,)
    float array np.array(argument, dtype=float).reshape(d), else the
    (exception type, message) it raises.
    """
    data = small_regression_data()
    series = small_series()
    gaussian, exponential, gamma = (GaussianTarget(mu=2.0, sigma2=3.0), ExponentialTarget(lam=1.5),
                                    GammaTarget(shape=3.0, scale=1.0))
    probit, logit, garch = ProbitTarget(data), LogitTarget(data), GarchTarget(series)
    cases = []
    for model in (gaussian, exponential, gamma, probit, logit, garch):
        d = model.dimension
        inside = model.default_pilot()[0]
        cases += [(model, inside.tolist(), None), (model, tuple(inside.tolist()), None),
                  (model, inside.astype(np.float32), None),
                  (model, [1.0] * (d + 1), shape_error(d, (d + 1,))),
                  (model, [inside.tolist()], shape_error(d, (1, d))),
                  (model, [], shape_error(d, (0,))),
                  # the shape is checked before finiteness
                  (model, [np.nan] * (d + 1), shape_error(d, (d + 1,)))]
        for j in range(d):
            for bad in (np.nan, np.inf, -np.inf):
                point = inside.tolist()
                point[j] = bad
                cases.append((model, point, (SupportError, FINITE)))
    for model in (gaussian, exponential, gamma):
        cases += [(model, 1.25, None), (model, np.float64(1.25), None), (model, np.array(1.25), None),
                  (model, 1, None), (model, np.nan, (SupportError, FINITE)),
                  (model, np.array([[1.25]]), shape_error(1, (1, 1)))]
    for model in (probit, logit, garch):
        cases.append((model, 0.5, shape_error(model.dimension, ())))
    positive = (SupportError, "x must be > 0")
    for model in (exponential, gamma):
        cases += [(model, [0.0], positive), (model, -0.0, positive), (model, [-1.0], positive),
                  (model, [5e-324], None), (model, [np.inf], (SupportError, FINITE))]
    h = series.h0
    cases += [
        (garch, [0.0, 0.1, 0.6], (SupportError, "omega_1 must be > 0")),
        (garch, [-0.0, 0.1, 0.6], (SupportError, "omega_1 must be > 0")),
        (garch, [0.2 * h, -1e-300, 0.6], (SupportError, "omega_2 must be >= 0")),
        (garch, [0.2 * h, 0.1, -1e-300], (SupportError, "omega_3 must be >= 0")),
        (garch, [0.2 * h, 0.0, 0.6], None),
        (garch, [0.2 * h, -0.0, 0.6], None),
        (garch, [0.2 * h, 0.1, 0.0], None),
        (garch, [0.2 * h, 0.0, -0.0], None),
        (garch, [1, 0, 0], None),
        # finiteness first, then the bounds coordinate by coordinate
        (garch, [-1.0, -1.0, np.inf], (SupportError, FINITE)),
        (garch, [0.0, -1.0, -1.0], (SupportError, "omega_1 must be > 0")),
        (garch, [0.2 * h, -1.0, -1.0], (SupportError, "omega_2 must be >= 0")),
    ]
    return cases


@pytest.mark.parametrize("model,argument,outcome", one_point_contract(),
                         ids=lambda v: getattr(v, "tag", None))
def test_one_point_argument_contract(model, argument, outcome):
    if outcome is None:
        as_array = np.array(argument, dtype=float).reshape(model.dimension)
        value = model.log_density(argument)
        assert type(value) is float and value == model.log_density(as_array)
        return
    kind, message = outcome
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as raised:
        model.log_density(argument)
    assert type(raised.value) is kind


def old_garch_log_density(model, omega):
    """The log-density as written before its scalar rewrite: a band of ones,
    numpy scalars in the forcing and a numpy sum for the prior."""
    r2 = model.series.returns**2
    r2_lag = np.concatenate(([0.0], r2[:-1]))
    band = np.ones((2, model.series.length), order="F")
    band[1] = -omega[2]
    forcing = omega[0] + omega[1] * r2_lag
    forcing[0] += omega[2] * model.series.h0
    h = blas.dtbsv(1, band, forcing, lower=1, diag=1, overwrite_x=1)
    loglik = -0.5 * float(np.sum(np.log(h) + r2 / h))
    prior_var = model.prior.prior_sd**2
    logprior = -0.5 * float(np.sum(omega * omega / prior_var))
    return loglik + logprior


def test_garch_log_density_equals_the_old_form_exactly():
    series = small_series()
    # prior sds near the parameter scales keep the prior's rounding visible
    model = GarchTarget(series, GarchPrior(prior_sd=np.array([series.h0, 0.3, 0.5])))
    rng = np.random.default_rng(19)
    points = np.column_stack([rng.uniform(0.01, 2.0, 200) * series.h0,
                              rng.uniform(0.0, 0.5, 200), rng.uniform(0.0, 1.2, 200)])
    points[:2, 1] = 0.0
    points[2:4, 2] = 0.0
    points[4, 1:] = 0.0
    for omega in points:
        assert model.log_density(omega) == old_garch_log_density(model, omega)
    assert model.log_density(points[0].tolist()) == old_garch_log_density(model, points[0])


def interior_garch_points(series, m, seed=23):
    """m random points strictly inside the GARCH support, around its posterior scale."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0.05, 1.5, m) * series.h0,
                            rng.uniform(0.01, 0.4, m), rng.uniform(0.05, 0.95, m)])


def test_garch_log_density_work_arrays_do_not_carry_over():
    # two instances called alternately, and the pickled copy a worker pool
    # ships, each give a fresh instance's value bit for bit
    series = synthetic_demgbp_returns(seed=333, length=300)
    prior = GarchPrior(prior_sd=np.array([series.h0, 0.3, 0.5]))
    a, b = GarchTarget(series), GarchTarget(series, prior)
    a.log_density(a.default_pilot()[0])
    copy = pickle.loads(pickle.dumps(a))
    assert all(w is not v for w, v in zip(copy._work, a._work))
    assert copy._work[0].flags.f_contiguous
    points = interior_garch_points(series, 40)
    for p, q in zip(points[::2], points[1::2]):
        assert a.log_density(p) == GarchTarget(series).log_density(p)
        assert b.log_density(q) == GarchTarget(series, prior).log_density(q)
        assert copy.log_density(q) == GarchTarget(series).log_density(q)
        assert b.log_density(p) == GarchTarget(series, prior).log_density(p)
        assert a.log_density(q) == copy.log_density(q)


def test_logit_log_density_work_arrays_do_not_carry_over():
    # two instances called alternately, and the pickled copy a worker pool
    # ships, each give a fresh instance's value bit for bit
    data, other = synthetic_banknote(seed=101), small_regression_data(n=60, d=4)
    a, b = LogitTarget(data), LogitTarget(other)
    a.log_density(a.default_pilot()[0])
    copy = pickle.loads(pickle.dumps(a))
    assert all(w is not v for w, v in zip(copy._work, a._work))
    points = np.random.default_rng(29).normal(scale=0.5, size=(40, 4))
    for p, q in zip(points[::2], points[1::2]):
        assert a.log_density(p) == LogitTarget(data).log_density(p)
        assert b.log_density(q) == LogitTarget(other).log_density(q)
        assert copy.log_density(q) == LogitTarget(data).log_density(q)
        assert b.log_density(p) == LogitTarget(other).log_density(p)
        assert a.log_density(q) == copy.log_density(q)


@pytest.mark.parametrize("target", [ProbitTarget, LogitTarget])
def test_regression_batch_gradients_run_in_blocks(monkeypatch, target):
    import zvmcmc.models

    model = target(small_regression_data())
    rows = np.random.default_rng(31).normal(scale=0.5, size=(8, 3))
    # each block is one matrix product, whose rounding may depend on its rows
    blocks = np.concatenate([model.grad_log_density(rows[k:k + 3]) for k in (0, 3, 6)])
    monkeypatch.setattr(zvmcmc.models, "_GRADIENT_BLOCK", 3)
    shapes = []
    original = target._grad_rows

    def spy(self, beta):
        shapes.append(beta.shape)
        return original(self, beta)

    monkeypatch.setattr(target, "_grad_rows", spy)
    assert np.array_equal(model.grad_log_density(rows), blocks)
    assert shapes == [(3, 3), (3, 3), (2, 3)]


def test_garch_support_error_comes_before_any_work_array_is_written():
    series = small_series()
    m = GarchTarget(series)
    inside, after = interior_garch_points(series, 2)
    m.log_density(inside)
    before = [w.tobytes() for w in m._work]
    h = series.h0
    for bad in ([-h, 0.1, 0.5], [h, -0.1, 0.5], [h, 0.1, -0.5], [h, np.nan, 0.5], [np.inf, 0.1, 0.5]):
        with pytest.raises(SupportError):
            m.log_density(bad)
        assert [w.tobytes() for w in m._work] == before
    with pytest.raises(ValueError):
        m.log_density([h, 0.1])
    assert [w.tobytes() for w in m._work] == before
    assert m.log_density(after) == GarchTarget(series).log_density(after)


def test_garch_gradients_do_not_see_log_density_calls():
    series = synthetic_demgbp_returns(seed=333, length=300)
    m, fresh = GarchTarget(series), GarchTarget(series)
    points = interior_garch_points(series, 9)
    for p, q in zip(points, points[::-1]):
        m.log_density(q)
        assert np.array_equal(m.grad_log_density(p), fresh.grad_log_density(p))
    for p in points:
        m.log_density(p)
    assert np.array_equal(m.grad_log_density(points), fresh.grad_log_density(points))


@pytest.mark.parametrize("m,explosive", [(1, False), (7, False), (1024, False), (7, True)],
                         ids=["1", "7", "1024", "7-explosive"])
def test_garch_batch_gradient_loop_equals_the_reference_loop(m, explosive):
    series = synthetic_demgbp_returns(seed=333)
    model = GarchTarget(series)
    omega = interior_garch_points(series, m, seed=m)
    if explosive:
        # omega_3 > 1 grows h and dh geometrically over the whole series
        omega[:, 2] = np.linspace(1.01, 1.1, m)
    want = -omega / model._prior_var + reference_garch_grad_rows(model, omega)
    assert np.all(np.isfinite(want))
    assert np.array_equal(model.grad_log_density(omega), want)
    assert np.array_equal(model.grad_log_density(omega[0]), want[0])


def test_garch_gradient_needs_strict_interior():
    m = GarchTarget(small_series())
    # log density exists on the omega_2 = 0 face but the gradient does not
    assert np.isfinite(m.log_density([0.5 * m.series.h0, 0.0, 0.5]))
    with pytest.raises(SupportError):
        m.grad_log_density([0.5 * m.series.h0, 0.0, 0.5])


def test_parameter_shape_errors():
    with pytest.raises(ValueError):
        GaussianTarget().log_density([1.0, 2.0])
    with pytest.raises(ValueError):
        GarchTarget(small_series()).log_density([0.1, 0.1])


# ---------------------------------------------------------------------------
# data containers


def test_binary_regression_data_validation():
    X = np.ones((5, 2))
    X[:, 1] = np.arange(5.0)
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    data = BinaryRegressionData(design=X, response=y)
    assert data.design.shape[0] == 5 and data.dimension == 2
    with pytest.raises(ValueError):
        BinaryRegressionData(design=X, response=y[:4])
    with pytest.raises(ValueError):
        BinaryRegressionData(design=X, response=y + 0.5)
    bad = np.ones((5, 2))
    with pytest.raises(ValueError):
        BinaryRegressionData(design=bad, response=y)  # rank deficient
    for design, response, message in (
        (np.ones(4), np.ones(4), "design must be a 2-d array"),
        (np.eye(2, 3), np.ones(2), "need at least as many rows as columns, got 2 rows, 3 columns"),
        ([[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]], np.ones(3), "design contains non-finite entries"),
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], np.ones(3), "design row 2 is all zeros"),
    ):
        with pytest.raises(ValueError) as raised:
            BinaryRegressionData(design=design, response=response)
        assert str(raised.value) == message


def test_returns_series_validation():
    with pytest.raises(ValueError):
        ReturnsSeries(returns=np.array([0.1, 0.2]), h0=0.0)
    with pytest.raises(ValueError):
        ReturnsSeries(returns=np.array([0.1, np.inf]), h0=1.0)
    with pytest.raises(ValueError, match=r"^returns must be a 1-d array with at least 2 entries$"):
        ReturnsSeries(returns=np.array([0.1]), h0=1.0)
    s = ReturnsSeries(returns=np.array([0.1, -0.2, 0.05]), h0=0.5)
    assert s.length == 3
    with pytest.raises(ValueError):
        s.returns[0] = 9.0


def test_garch_prior_validation():
    with pytest.raises(ValueError, match=r"^prior_sd must have shape \(3,\), got \(2,\)$"):
        GarchPrior(prior_sd=np.ones(2))
    with pytest.raises(ValueError, match="^prior_sd entries must be finite and > 0$"):
        GarchPrior(prior_sd=np.array([1.0, 0.0, 1.0]))


def test_interface_consistency_across_models():
    models = [
        GaussianTarget(),
        ExponentialTarget(),
        GammaTarget(),
        ProbitTarget(synthetic_banknote(seed=101)),
        LogitTarget(synthetic_banknote(seed=101)),
        GarchTarget(synthetic_demgbp_returns(seed=333, length=300)),
    ]
    for m in models:
        assert len(m.parameter_names) == m.dimension
        mean, cov = m.default_pilot()
        assert mean.shape == (m.dimension,) and cov.shape == (m.dimension, m.dimension)
        assert np.array_equal(cov, cov.T) and np.all(np.linalg.eigvalsh(cov) > 0)
        assert np.isfinite(m.log_density(mean))
        assert all(c in range(m.dimension) for c in m.constrained_coordinates)


def test_default_pilots_are_the_toys_moments_and_the_garch_crude_scales():
    series = synthetic_demgbp_returns(seed=333, length=300)
    h0 = series.h0
    cases = [
        (GaussianTarget(mu=2.0, sigma2=3.0), [2.0], [[3.0]]),
        (ExponentialTarget(lam=2.0), [0.5], [[0.25]]),
        (GammaTarget(shape=3.0, scale=2.0), [6.0], [[12.0]]),
        (GarchTarget(series), [0.2 * h0, 0.1, 0.6], np.diag(np.array([0.05 * h0, 0.1, 0.1])**2)),
    ]
    for model, mean, cov in cases:
        got_mean, got_cov = model.default_pilot()
        assert np.array_equal(got_mean, mean) and np.array_equal(got_cov, cov), model.tag
        # each call returns new arrays
        got_mean[0] = got_cov[0, 0] = np.nan
        assert np.array_equal(model.default_pilot()[0], mean)


@pytest.mark.parametrize("target", [ProbitTarget, LogitTarget], ids=["probit", "logit"])
@pytest.mark.parametrize("n", [None, 120], ids=["n-default", "n-120"])
def test_the_regressions_default_pilot_is_their_laplace_approximation(target, n):
    data = synthetic_banknote(seed=101) if n is None else synthetic_banknote(seed=101, n=n)
    model = target(data)
    mean, cov = model.default_pilot()
    sd = np.sqrt(np.diag(cov))
    # the mode: the gradient vanishes to well below the curvature there
    assert np.all(np.abs(model.grad_log_density(mean)) * sd < 1e-6)
    # the covariance is the inverse of minus the Hessian at the mode, here by
    # central differences of the gradient
    h = 1e-5 * sd
    hessian = np.array([(model.grad_log_density(mean + step) - model.grad_log_density(mean - step))
                        / (2.0 * hj) for step, hj in zip(np.diag(h), h)])
    assert np.allclose(np.linalg.inv(-hessian) / np.outer(sd, sd), cov / np.outer(sd, sd),
                       rtol=0.0, atol=1e-6)
    assert np.array_equal(cov, cov.T)
    # each call returns new arrays
    mean[0] = cov[0, 0] = np.nan
    assert np.all(np.isfinite(model.default_pilot()[0]))


@pytest.mark.parametrize("target", [ProbitTarget, LogitTarget], ids=["probit", "logit"])
@pytest.mark.parametrize("x", [
    # x > 0 exactly when y = 1
    pytest.param([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], id="separable"),
    # x > 0 only when y = 1, and both responses at x = 0
    pytest.param([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], id="quasi-separable"),
])
def test_separable_data_have_no_default_pilot(target, x):
    # the likelihood rises without bound along the coefficient of x
    design = np.column_stack([np.ones(6), x])
    model = target(BinaryRegressionData(design, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])))
    with pytest.raises(ValueError, match=f"the {model.tag} posterior has no mode to centre a "
                                         f"default pilot on"):
        model.default_pilot()
