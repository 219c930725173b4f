import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_rw_metropolis, std_lower, truncated_normal_draw
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zvmcmc import (
    ExponentialTarget,
    GammaTarget,
    GarchTarget,
    GaussianTarget,
    LogitTarget,
    ProbitTarget,
    SamplerConfig,
    SupportError,
    batch_means_asvar,
    gibbs_probit,
    rw_metropolis,
    sample_chain,
    synthetic_banknote,
    synthetic_demgbp_returns,
)
from zvmcmc.samplers import default_start, resolve_init, resolve_pilot, resolve_proposal

# ---------------------------------------------------------------------------
# truncated normal


@pytest.mark.parametrize(
    "mean,sd,lower,upper",
    [
        (0.3, 1.2, -0.5, 1.5),
        (0.0, 1.0, 1.0, np.inf),
        (2.0, 0.5, -np.inf, 1.8),
        (0.0, 1.0, 8.0, np.inf),  # deep tail, rejection sampling would stall
    ],
)
def test_truncated_normal_distribution(mean, sd, lower, upper):
    rng = np.random.default_rng(42)
    draws = np.array([truncated_normal_draw(mean, sd, lower, upper, rng) for _ in range(4000)])
    assert np.all(draws > lower) and np.all(draws < upper)
    a, b = (lower - mean) / sd, (upper - mean) / sd
    ks = stats.kstest(draws, stats.truncnorm(a, b, loc=mean, scale=sd).cdf)
    assert ks.pvalue > 1e-3


def test_truncated_normal_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        truncated_normal_draw(0.0, -1.0, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        truncated_normal_draw(0.0, 1.0, 2.0, 2.0, rng)


def test_truncated_normal_deterministic_under_seeded_rng():
    a = truncated_normal_draw(0.0, 1.0, 0.5, 2.0, np.random.default_rng(7))
    b = truncated_normal_draw(0.0, 1.0, 0.5, 2.0, np.random.default_rng(7))
    assert a == b


# ---------------------------------------------------------------------------
# random walk Metropolis


def test_rw_metropolis_gaussian_moments():
    model = GaussianTarget(mu=2.0, sigma2=3.0)
    out = rw_metropolis(model, SamplerConfig(length=20000, burn_in=500, seed=11))
    x = out.draws[:, 0]
    se = np.sqrt(batch_means_asvar(x, 100) / x.size)
    assert abs(x.mean() - 2.0) < 5 * se
    assert x.var(ddof=1) == pytest.approx(3.0, rel=0.15)
    assert 0.1 < out.accept_rate < 0.9


def test_rw_metropolis_gradients_align_with_model():
    model = GaussianTarget(mu=-1.0, sigma2=0.5)
    out = rw_metropolis(model, SamplerConfig(length=50, burn_in=10, seed=3))
    assert out.has_gradients
    for i in (0, 17, 49):
        assert np.allclose(out.gradients[i], model.grad_log_density(out.draws[i]))


def test_rw_metropolis_deterministic_and_seed_sensitive():
    model = GaussianTarget()
    cfg = SamplerConfig(length=200, burn_in=50, seed=9)
    a = rw_metropolis(model, cfg)
    b = rw_metropolis(model, SamplerConfig(length=200, burn_in=50, seed=9))
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.gradients, b.gradients)
    c = rw_metropolis(model, SamplerConfig(length=200, burn_in=50, seed=10))
    assert not np.array_equal(a.draws, c.draws)


def test_thinning_subsamples_the_same_trajectory():
    model = GaussianTarget()
    full = rw_metropolis(model, SamplerConfig(length=400, burn_in=30, seed=5))
    thinned = rw_metropolis(model, SamplerConfig(length=200, burn_in=30, seed=5, thin=2))
    sub_even = full.draws[::2]
    sub_odd = full.draws[1::2]
    assert np.array_equal(thinned.draws, sub_even) or np.array_equal(thinned.draws, sub_odd)


def test_compute_gradients_false_skips_gradients():
    model = GaussianTarget()
    out = rw_metropolis(model, SamplerConfig(length=100, seed=1, compute_gradients=False))
    assert not out.has_gradients
    assert out.gradients.shape == (0, 1)


def test_tiny_proposal_stays_near_init():
    model = GaussianTarget()
    out = rw_metropolis(
        model,
        SamplerConfig(length=50, burn_in=0, seed=2, init=np.array([5.0]), proposal_scale=1e-10),
    )
    assert np.all(np.abs(out.draws - 5.0) < 1e-6)


GARCH = GarchTarget(synthetic_demgbp_returns(seed=3, length=50))


@pytest.mark.parametrize("model,init,bound", [
    (ExponentialTarget(), [0.0], "x must be > 0"),
    (GammaTarget(), [-1.0], "x must be > 0"),
    (GARCH, [0.0, 0.1, 0.5], "omega_1 must be > 0"),
    (GARCH, [0.1, -0.1, 0.5], "omega_2 must be >= 0"),
    (GARCH, [0.1, 0.1, -0.5], "omega_3 must be >= 0"),
    (ProbitTarget(synthetic_banknote(seed=3)), [0.0, np.nan, 0.0, 0.0], "parameter must be finite"),
], ids=["exponential", "gamma", "garch-omega-1", "garch-omega-2", "garch-omega-3", "probit"])
def test_an_init_outside_the_support_names_its_bound(model, init, bound):
    want = f"init {[float(v) for v in init]} is outside the support of {model.tag}: {bound}"
    samplers = [rw_metropolis] + ([gibbs_probit] if isinstance(model, ProbitTarget) else [])
    for sampler in samplers:
        with pytest.raises(SupportError) as raised:
            sampler(model, SamplerConfig(length=10, init=np.array(init)))
        assert str(raised.value) == want


def test_the_chain_starts_at_init_else_at_the_pilot_mean():
    def chain(init=None):
        return rw_metropolis(GaussianTarget(), SamplerConfig(
            length=5, seed=3, init=init, proposal_scale=1e-10, pilot_mean=[5.0], pilot_cov=[[1.0]]))

    # without init the chain starts at the pilot mean, as if init were set to it
    assert np.array_equal(chain().draws, chain(np.array([5.0])).draws)
    assert np.all(np.abs(chain().draws - 5.0) < 1e-6)
    # without a pilot, at the mean of the model's default pilot
    default = rw_metropolis(GaussianTarget(mu=2.0), SamplerConfig(length=5, proposal_scale=1e-10))
    assert np.all(np.abs(default.draws - 2.0) < 1e-6)
    # init wins over the pilot mean
    assert np.all(np.abs(chain(np.array([-3.0])).draws + 3.0) < 1e-6)
    # a start outside the support names the key it came from
    cfg = SamplerConfig(length=5, pilot_mean=[-1.0, 0.1, 0.5], pilot_cov=np.eye(3))
    with pytest.raises(SupportError) as raised:
        rw_metropolis(GARCH, cfg)
    assert str(raised.value) == ("pilot_mean [-1.0, 0.1, 0.5] is outside the support of garch: "
                                 "omega_1 must be > 0")


def test_the_default_start_is_the_pilot_mean_or_the_gibbs_zeros_and_named_by_its_source():
    probit = ProbitTarget(synthetic_banknote(seed=101, n=80))
    start, key = default_start(probit, "gibbs")
    assert np.array_equal(start, np.zeros(4)) and key == "the Gibbs start"
    start, key = default_start(GaussianTarget(mu=2.0), "rwmh")
    assert np.array_equal(start, [2.0]) and key == "the default pilot mean"
    start, key = default_start(GaussianTarget(mu=2.0), "rwmh", [5.0], [[1.0]])
    assert np.array_equal(start, [5.0]) and key == "pilot_mean"

    class OffSupport(ExponentialTarget):
        def default_pilot(self):
            return np.array([-1.0]), np.array([[1.0]])

    # a start outside the support names where it came from: init, else its key
    model = OffSupport()
    with pytest.raises(SupportError, match=r"^the default pilot mean \[-1.0\] is outside"):
        resolve_init(model, None, *default_start(model, "rwmh"))
    with pytest.raises(SupportError, match=r"^init \[-2.0\] is outside"):
        resolve_init(model, [-2.0], *default_start(model, "rwmh"))


def test_chain_respects_support():
    model = ExponentialTarget(lam=1.0)
    out = rw_metropolis(
        model,
        SamplerConfig(length=2000, burn_in=0, seed=8, init=np.array([0.01]), proposal_scale=1.0),
    )
    assert np.all(out.draws > 0.0)


class SteppedGaussian(GaussianTarget):
    """A gaussian whose log-density is rounded down to an integer."""

    def log_density(self, beta):
        return float(math.floor(super().log_density(beta)))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_GARCH = json.loads((CONFIGS / "garch_demgbp.json").read_text())
SHIPPED_LOGIT = json.loads((CONFIGS / "logit_banknote.json").read_text())


def rw_cases(pilot, ids=None):
    # The rows (model, init, pilot mean, pilot cov, proposal scale) with or
    # without a pilot of their own, all of them or only those named in ids.
    # Without one the chain starts at, screens with and steps by the model's
    # default pilot: logit and GARCH, a wide exponential step from near 0
    # whose proposals often leave the support, a plain gaussian, and a
    # stepped gaussian whose steps make many deltas exactly 0.  With one:
    # the shipped GARCH pilot and scale from its pilot mean and from the
    # default pilot's mean far out in the tails, a correlated logit screen,
    # a screen whose proposals often leave the exponential's support, a
    # gaussian screened by a deliberately wrong gaussian, the stepped
    # gaussian, the shipped logit pilot and scale, the correlated logit
    # pilot at s = 1.6, and the shipped GARCH pilot at s = 1.4
    garch = GarchTarget(synthetic_demgbp_returns(seed=333))
    logit = LogitTarget(synthetic_banknote(seed=101))
    logit_cov = [[0.4, 0.1, 0.0, 0.0], [0.1, 1.0, -0.3, 0.0], [0.0, -0.3, 0.6, 0.01],
                 [0.0, 0.0, 0.01, 0.002]]
    cases = [
        pytest.param(logit, None, None, None, None, id="logit"),
        pytest.param(garch, None, None, None, None, id="garch"),
        pytest.param(ExponentialTarget(lam=1.0), [0.05], None, None, 1.5, id="exponential"),
        pytest.param(GaussianTarget(mu=2.0, sigma2=3.0), None, None, None, None, id="gaussian"),
        pytest.param(SteppedGaussian(mu=2.0, sigma2=3.0), None, None, None, None,
                     id="stepped-gaussian"),
        pytest.param(garch, None, SHIPPED_GARCH["pilot_mean"], SHIPPED_GARCH["pilot_cov"],
                     SHIPPED_GARCH["proposal_scale"], id="garch-shipped"),
        pytest.param(garch, garch.default_pilot()[0], SHIPPED_GARCH["pilot_mean"],
                     SHIPPED_GARCH["pilot_cov"], SHIPPED_GARCH["proposal_scale"],
                     id="garch-default-init"),
        pytest.param(logit, None, [0.5, -1.0, 1.0, 0.05], logit_cov, None, id="logit"),
        pytest.param(ExponentialTarget(lam=1.0), [0.05], [1.0], [[1.0]], 1.5, id="exponential"),
        pytest.param(GaussianTarget(mu=2.0, sigma2=3.0), None, [0.0], [[0.5]], None,
                     id="gaussian-wrong-surrogate"),
        pytest.param(SteppedGaussian(mu=2.0, sigma2=3.0), None, [2.0], [[3.0]], None,
                     id="stepped-gaussian"),
        pytest.param(logit, None, SHIPPED_LOGIT["pilot_mean"], SHIPPED_LOGIT["pilot_cov"],
                     SHIPPED_LOGIT["proposal_scale"], id="logit-shipped"),
        pytest.param(logit, None, [0.5, -1.0, 1.0, 0.05], logit_cov, 1.6, id="logit-scaled"),
        pytest.param(garch, None, SHIPPED_GARCH["pilot_mean"], SHIPPED_GARCH["pilot_cov"], 1.4,
                     id="garch-scaled"),
    ]
    return [case for case in cases
            if (case.values[2] is not None) == pilot and (ids is None or case.id in ids)]


# the rw_cases rows whose draws are also checked against another block size
BLOCK_SIZE_CASES = ("logit", "exponential", "stepped-gaussian", "garch-shipped",
                    "gaussian-wrong-surrogate", "logit-shipped", "logit-scaled", "garch-scaled")
RW_CASE_FIELDS = "model,init,mean,cov,scale"
BURN_IN_AND_THIN = pytest.mark.parametrize("burn_in,thin", [(0, 1), (7, 3), (600, 10)])


def screened_config(init, mean, cov, scale=None, **fields):
    return SamplerConfig(init=None if init is None else np.array(init), pilot_mean=mean,
                         pilot_cov=cov, proposal_scale=scale, **fields)


def assert_equals_the_reference_loop(model, cfg):
    out = rw_metropolis(model, cfg)
    ref = reference_rw_metropolis(model, cfg)
    assert np.array_equal(out.draws, ref.draws)
    assert np.array_equal(out.gradients, ref.gradients)
    assert out.accept_rate == ref.accept_rate
    assert out.log_density_calls == ref.log_density_calls


def assert_draws_do_not_depend_on_the_block_size(monkeypatch, model, cfg):
    import zvmcmc.samplers

    chains = []
    for block in (7, 4096):
        monkeypatch.setattr(zvmcmc.samplers, "_RNG_BLOCK", block)
        chains.append(rw_metropolis(model, cfg))
    small, large = chains
    assert np.array_equal(small.draws, large.draws)
    assert np.array_equal(small.gradients, large.gradients)
    assert small.accept_rate == large.accept_rate


@BURN_IN_AND_THIN
@pytest.mark.parametrize(RW_CASE_FIELDS, rw_cases(pilot=False))
def test_rw_metropolis_equals_the_reference_loop_exactly(model, init, mean, cov, scale,
                                                         burn_in, thin):
    cfg = screened_config(init, mean, cov, scale, length=150, burn_in=burn_in, thin=thin,
                          seed=21)
    assert_equals_the_reference_loop(model, cfg)


@BURN_IN_AND_THIN
@pytest.mark.parametrize(RW_CASE_FIELDS, rw_cases(pilot=True))
def test_screened_rw_metropolis_equals_the_reference_loop_exactly(model, init, mean, cov,
                                                                  scale, burn_in, thin):
    cfg = screened_config(init, mean, cov, scale, length=150, burn_in=burn_in, thin=thin,
                          seed=21)
    assert_equals_the_reference_loop(model, cfg)


# 7 divides neither the burn-in nor the step count, so blocks end mid-phase
@pytest.mark.parametrize(RW_CASE_FIELDS, rw_cases(pilot=False, ids=BLOCK_SIZE_CASES))
def test_rw_metropolis_draws_do_not_depend_on_the_block_size(monkeypatch, model, init, mean,
                                                             cov, scale):
    cfg = screened_config(init, mean, cov, scale, length=150, burn_in=11, thin=3, seed=21)
    assert_draws_do_not_depend_on_the_block_size(monkeypatch, model, cfg)


@pytest.mark.parametrize(RW_CASE_FIELDS, rw_cases(pilot=True, ids=BLOCK_SIZE_CASES))
def test_screened_draws_do_not_depend_on_the_block_size(monkeypatch, model, init, mean, cov,
                                                         scale):
    cfg = screened_config(init, mean, cov, scale, length=150, burn_in=11, thin=3, seed=21)
    assert_draws_do_not_depend_on_the_block_size(monkeypatch, model, cfg)


def test_a_wrong_surrogate_leaves_the_target_invariant():
    # the screen N(0, 0.5) sits 2.8 target sd below the mean and has a
    # sixth of the variance; the second stage corrects for it.  Short steps
    # keep the chain moving where the screen's tails are far lighter than
    # the target's
    model = GaussianTarget(mu=2.0, sigma2=3.0)
    cfg = SamplerConfig(length=200_000, burn_in=1000, seed=4, proposal_scale=0.4 / math.sqrt(0.5),
                        pilot_mean=[0.0], pilot_cov=[[0.5]], compute_gradients=False)
    x = rw_metropolis(model, cfg).draws[:, 0]
    batches = math.isqrt(x.size)
    for values, expected in ((x, 2.0), ((x - 2.0) ** 2, 3.0)):
        se = math.sqrt(batch_means_asvar(values, batches) / values.size)
        assert abs(values.mean() - expected) < 4 * se


def test_the_screen_calls_the_likelihood_only_for_the_proposals_it_passes(monkeypatch):
    calls = []
    original = GarchTarget.log_density

    def spy(self, omega):
        calls.append(1)
        return original(self, omega)

    monkeypatch.setattr(GarchTarget, "log_density", spy)
    model = GarchTarget(synthetic_demgbp_returns(seed=333))
    cfg = screened_config(None, SHIPPED_GARCH["pilot_mean"], SHIPPED_GARCH["pilot_cov"],
                          SHIPPED_GARCH["proposal_scale"], length=400, burn_in=100, thin=2, seed=5,
                          compute_gradients=False)
    out = rw_metropolis(model, cfg)
    sampled = len(calls)
    calls.clear()
    # the oracle calls log_density once per proposal that passes the screen
    ref = reference_rw_metropolis(model, cfg)
    passed = len(calls)
    assert np.array_equal(out.draws, ref.draws)
    steps = cfg.burn_in + cfg.length * cfg.thin
    # both counts include the one call that checks the start; every accepted
    # proposal passed the screen, and most proposals did not
    assert sampled == passed
    assert 1 + round(out.accept_rate * cfg.length * cfg.thin) <= passed < steps / 2
    # the chain counts the calls of its steps, not the start's check
    assert out.log_density_calls == ref.log_density_calls == sampled - 1
    assert 0.0 < out.log_density_calls / steps < 1.0


@pytest.mark.parametrize("mean,cov,message", [
    ([0.0], None, "pilot_mean and pilot_cov must be set together; pilot_cov is not"),
    (None, [[1.0]], "pilot_mean and pilot_cov must be set together; pilot_mean is not"),
    ([0.0, 1.0], [[1.0]], "pilot_mean must be 1 finite numbers"),
    ([math.nan], [[1.0]], "pilot_mean must be 1 finite numbers"),
    ([0.0], [1.0], "pilot_cov must be a 1 x 1 matrix"),
    ([0.0], [[1.0, 0.0]], "pilot_cov must be a 1 x 1 matrix"),
    ([0.0], [[math.inf]], "pilot_cov must be a 1 x 1 matrix"),
    ([0.0], [[1.0], [0.0, 1.0]], "pilot_cov must be a 1 x 1 matrix"),
    ([0.0], [[-1.0]], "pilot_cov must be positive definite"),
], ids=["mean-alone", "cov-alone", "mean-length", "mean-not-finite", "cov-not-nested", "cov-shape",
        "cov-not-finite", "cov-ragged", "cov-not-positive"])
def test_rw_metropolis_rejects_a_bad_pilot(mean, cov, message):
    cfg = SamplerConfig(length=10, seed=0, pilot_mean=mean, pilot_cov=cov)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        rw_metropolis(GaussianTarget(), cfg)


@pytest.mark.parametrize("model", [GaussianTarget(), LogitTarget(synthetic_banknote(seed=101, n=80)),
                                   GarchTarget(synthetic_demgbp_returns(seed=333))],
                         ids=["gaussian", "logit", "garch"])
def test_without_a_pilot_the_pilot_is_the_models_default(model):
    d = model.dimension
    mean, sigma, precision = resolve_pilot(model, None, None)
    default_mean, default_cov = model.default_pilot()
    assert np.array_equal(mean, default_mean) and np.array_equal(sigma, default_cov)
    assert np.array_equal(precision, precision.T)
    assert np.allclose(precision @ sigma, np.eye(d), atol=1e-8)
    # one key alone is still refused
    with pytest.raises(ValueError, match="^pilot_mean and pilot_cov must be set together; "
                                         "pilot_cov is not$"):
        resolve_pilot(model, [0.0] * d, None)
    with pytest.raises(ValueError, match="^pilot_mean and pilot_cov must be set together; "
                                         "pilot_mean is not$"):
        resolve_pilot(model, None, np.eye(d))


def test_the_surrogate_precision_is_exactly_symmetric():
    cov = np.array([[4.533e-06, 1.856e-05, -4.131e-05], [1.856e-05, 0.0004226, -0.0004255],
                    [-4.131e-05, -0.0004255, 0.0006005]])
    _, _, precision = resolve_pilot(GarchTarget(synthetic_demgbp_returns(seed=333)),
                                    [0.01, 0.16, 0.8], cov)
    assert np.array_equal(precision, precision.T)
    assert np.allclose(precision @ cov, np.eye(3), atol=1e-8)
    cov[0, 1] = np.nextafter(cov[0, 1], 1.0)
    with pytest.raises(ValueError, match="^pilot_cov must be symmetric$"):
        resolve_pilot(GarchTarget(synthetic_demgbp_returns(seed=333)), [0.01, 0.16, 0.8], cov)


def test_gibbs_takes_no_surrogate():
    model = ProbitTarget(synthetic_banknote(seed=101, n=80))
    cfg = SamplerConfig(length=10, seed=0, pilot_mean=[0.0] * 4, pilot_cov=np.eye(4))
    with pytest.raises(ValueError, match="gibbs_probit does not take a pilot"):
        gibbs_probit(model, cfg)


class ZeroUniforms:
    """A uniform stream that returns u = 0, so log u = -inf, on every draw."""

    def random(self, n):
        return np.zeros(n)


def test_a_zero_uniform_never_accepts_a_proposal_outside_the_support(monkeypatch):
    import zvmcmc.samplers

    streams = zvmcmc.samplers._streams
    monkeypatch.setattr(zvmcmc.samplers, "_streams",
                        lambda seed: [streams(seed)[0], ZeroUniforms()])
    # a wide step from near 0: some proposals land at x <= 0.  The default
    # pilot's variance is 1, so the step is z itself
    cfg = SamplerConfig(length=2000, seed=8, init=np.array([0.05]), proposal_scale=1.0)
    with np.errstate(divide="ignore"):
        out = rw_metropolis(ExponentialTarget(lam=1.0), cfg)
    # log u = -inf accepts every proposal inside the support and no other
    x, expected = 0.05, []
    for z in streams(cfg.seed)[0].standard_normal(cfg.length):
        if x + z > 0.0:
            x += z
        expected.append(x)
    assert np.array_equal(out.draws[:, 0], expected)
    assert 0.0 < out.accept_rate < 1.0


class FlatLogit(LogitTarget):
    """Logit support and shape with a constant log-density: every proposal is accepted."""

    def log_density(self, beta):
        return 0.0


def test_a_flat_target_walks_by_the_first_streams_normals():
    model = FlatLogit(synthetic_banknote(seed=101, n=80))
    sd = np.array([0.63, 1.03, 0.78, 0.035])
    # a pilot 2^50 times wider than the step: its screen moves dq by far less
    # than the gap between log u and 0, so every proposal passes both
    # stages.  A power of 2 scales exactly, and sqrt undoes the square, so
    # the step factor is diag(sd) bit for bit.  More steps than one block of
    # random numbers
    cfg = SamplerConfig(length=5000, seed=13, proposal_scale=2.0**-50, pilot_mean=np.zeros(4),
                        pilot_cov=np.diag((2.0**50 * sd)**2), compute_gradients=False)
    out = rw_metropolis(model, cfg)
    normal_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    moves = sd * np.random.default_rng(normal_seed).standard_normal((cfg.length, 4))
    # the cumulative sum adds the moves one at a time, as the chain does
    expected = np.cumsum(np.vstack([np.zeros(4), moves]), axis=0)[1:]
    assert out.accept_rate == 1.0
    assert np.array_equal(out.draws, expected)


class NanAwayFromInit(GaussianTarget):
    """A gaussian whose log-density is NaN everywhere but at the init."""

    def log_density(self, beta):
        return super().log_density(beta) if beta[0] == 0.0 else math.nan


def test_nan_log_density_at_a_proposal_is_fatal():
    with pytest.raises(FloatingPointError, match="NaN log-density at proposal"):
        rw_metropolis(NanAwayFromInit(), SamplerConfig(length=10, seed=0, init=np.array([0.0])))


@pytest.mark.parametrize("sampler,model,fields,error,message", [
    (rw_metropolis, GaussianTarget(), {"init": np.zeros(2)}, ValueError,
     "init must have 1 entries for model gaussian, got 2"),
    (gibbs_probit, ProbitTarget(synthetic_banknote(seed=3)), {"init": np.zeros(3)}, ValueError,
     "init must have 4 entries for model probit, got 3"),
    (rw_metropolis, NanAwayFromInit(), {"init": np.array([1.0])}, FloatingPointError,
     "non-finite log-density nan at init [1.]"),
    (gibbs_probit, ProbitTarget(synthetic_banknote(seed=3)),
     {"proposal_scale": 1.6, "pilot_mean": [0.0] * 4, "pilot_cov": np.eye(4)}, ValueError,
     "gibbs_probit does not take a proposal_scale"),
], ids=["rwmh-init-length", "gibbs-init-length", "rwmh-nan-at-init",
        "gibbs-proposal-scale"])
def test_a_chain_input_the_sampler_cannot_start_from_is_rejected(sampler, model, fields, error,
                                                                 message):
    with pytest.raises(error) as raised:
        sampler(model, SamplerConfig(length=10, seed=0, **fields))
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("fields,message", [
    ({"proposal_scale": math.inf}, "proposal_scale must be a finite number > 0, got inf"),
    ({"proposal_scale": math.nan}, "proposal_scale must be a finite number > 0, got nan"),
    ({"proposal_scale": 0.0}, "proposal_scale must be a finite number > 0, got 0.0"),
    ({"proposal_scale": -1.6}, "proposal_scale must be a finite number > 0, got -1.6"),
    ({"proposal_scale": True}, "proposal_scale must be a finite number > 0, got True"),
    ({"proposal_scale": "1.6"}, "proposal_scale must be a finite number > 0, got '1.6'"),
], ids=["scale-infinite", "scale-nan", "scale-zero", "scale-negative", "scale-bool", "scale-str"])
def test_sampler_config_rejects_a_bad_proposal_scale(fields, message):
    with pytest.raises(ValueError) as raised:
        SamplerConfig(length=10, **fields)
    assert str(raised.value) == message


def test_the_proposal_factor_is_the_scaled_pilot_cholesky():
    cov = np.array(SHIPPED_GARCH["pilot_cov"])
    factor = resolve_proposal(2.5, cov)
    assert np.array_equal(factor, 2.5 * np.linalg.cholesky(cov))
    assert np.array_equal(factor, np.tril(factor))
    assert np.allclose(factor @ factor.T, 6.25 * cov, rtol=1e-12, atol=0.0)
    # without a scale, s = 2.38/sqrt(d)
    assert np.array_equal(resolve_proposal(None, cov), 2.38 / math.sqrt(3) * np.linalg.cholesky(cov))


class SpyGamma(GammaTarget):
    """Counts model calls and records the shape of every gradient argument."""

    def __init__(self):
        super().__init__(shape=3.0, scale=1.0)
        self.calls = {"log_density": 0}
        self.grad_shapes = []

    def log_density(self, beta):
        self.calls["log_density"] += 1
        return super().log_density(beta)

    def grad_log_density(self, beta):
        self.grad_shapes.append(np.shape(beta))
        return super().grad_log_density(beta)


def test_rw_metropolis_validates_once_and_batches_gradients():
    model = SpyGamma()
    # a wide step from near the boundary (the default pilot's variance is 3,
    # so the step is about z): many proposals land at x <= 0
    cfg = SamplerConfig(length=60, burn_in=5, thin=2, seed=8, init=np.array([0.05]),
                        proposal_scale=1.0 / math.sqrt(3.0))
    out = rw_metropolis(model, cfg)
    steps = cfg.burn_in + cfg.length * cfg.thin
    # the start is checked by the one log_density call the chain starts from;
    # the chain counts only its steps' calls, one per proposal that passes
    # the screen
    assert model.calls == {"log_density": out.log_density_calls + 1}
    assert 0 < out.log_density_calls < steps
    assert np.all(out.draws > 0.0)
    distinct = 1 + np.count_nonzero(np.any(np.diff(out.draws, axis=0) != 0.0, axis=1))
    assert distinct < out.length  # some retained draws repeat
    # one batched call, on the distinct draws
    assert model.grad_shapes == [(distinct, 1)]
    for draw, grad in zip(out.draws, out.gradients):
        assert np.array_equal(grad, GammaTarget.grad_log_density(model, draw))
    same = rw_metropolis(GammaTarget(shape=3.0, scale=1.0), cfg)
    assert np.array_equal(out.draws, same.draws) and out.accept_rate == same.accept_rate


def test_garch_chain_makes_one_gradient_call(monkeypatch):
    # more moved draws than a regression target's gradient block: GARCH's
    # batch gradient holds (3, m) state, so the chain needs no blocks
    calls = []
    original = GarchTarget.grad_log_density

    def spy(self, omega):
        calls.append(np.shape(omega))
        return original(self, omega)

    monkeypatch.setattr(GarchTarget, "grad_log_density", spy)
    model = GarchTarget(synthetic_demgbp_returns(seed=333, length=80))
    # a short step, 0.1 times the default pilot's sd, moves often
    cfg = SamplerConfig(length=2000, seed=6, proposal_scale=0.1)
    out = rw_metropolis(model, cfg)
    moved = np.concatenate(([True], np.any(np.diff(out.draws, axis=0) != 0.0, axis=1)))
    assert np.count_nonzero(moved) > 1024
    assert calls == [(np.count_nonzero(moved), 3)]
    assert np.array_equal(out.gradients[moved], original(model, out.draws[moved]))


@pytest.mark.parametrize("scale", [1e-30, 1e-15])
def test_a_move_that_rounds_back_to_its_draw_copies_the_gradient(scale):
    # steps this short round x + v back to x on every (1e-30) or some
    # (1e-15) accepted move: the reference loop's moved rows then outnumber
    # the rows that differ, and the gradients still agree bit for bit
    model = GaussianTarget(mu=2.0, sigma2=3.0)
    cfg = SamplerConfig(length=300, burn_in=10, seed=3, proposal_scale=scale)
    assert_equals_the_reference_loop(model, cfg)
    out, ref = rw_metropolis(model, cfg), reference_rw_metropolis(model, cfg)
    changed = 1 + np.count_nonzero(np.any(np.diff(out.draws, axis=0) != 0.0, axis=1))
    assert out.gradient_rows == changed < ref.gradient_rows == cfg.length


def test_gibbs_probit_batches_gradients(monkeypatch):
    import zvmcmc.samplers

    monkeypatch.setattr(zvmcmc.samplers, "_GIBBS_GRADIENT_ROWS", 8)
    calls = []
    original = ProbitTarget.grad_from_predictor

    def spy(self, st, log_phi):
        calls.append(np.shape(st))
        return original(self, st, log_phi)

    monkeypatch.setattr(ProbitTarget, "grad_from_predictor", spy)
    data = synthetic_banknote(seed=101, n=80)
    out = gibbs_probit(ProbitTarget(data), SamplerConfig(length=20, burn_in=5, seed=4))
    assert calls == [(8, 80), (8, 80), (4, 80)]
    model = ProbitTarget(data)
    for i in range(out.length):
        assert np.allclose(out.gradients[i], model.grad_log_density(out.draws[i]), rtol=1e-12)


@pytest.mark.parametrize("burn_in", [0, 5])
@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("length", [1, 7, 8, 9, 17])
def test_gibbs_probit_gradients_come_from_the_sweeps(monkeypatch, length, thin, burn_in):
    # blocks of 8 rows: lengths below, at, just above and at two blocks plus one
    import zvmcmc.samplers

    monkeypatch.setattr(zvmcmc.samplers, "_GIBBS_GRADIENT_ROWS", 8)
    model = ProbitTarget(synthetic_banknote(seed=101, n=80))
    cfg = SamplerConfig(length=length, burn_in=burn_in, thin=thin, seed=4)
    calls = []
    original = ProbitTarget.grad_log_density

    def spy(self, beta):
        calls.append(np.shape(beta))
        return original(self, beta)

    monkeypatch.setattr(ProbitTarget, "grad_log_density", spy)
    out = gibbs_probit(model, cfg)
    bare = gibbs_probit(model, dataclasses.replace(cfg, compute_gradients=False))
    assert calls == []
    # the sweeps' products are dgemv rows where grad_log_density's are one
    # dgemm, so the two agree to rounding, relative to each row's scale
    expected = original(model, out.draws)
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert out.gradients.shape == (length, 4)
    assert np.all(np.abs(out.gradients - expected) <= 1e-12 * scale)
    assert bare.gradients.shape == (0, 4)
    assert np.array_equal(bare.draws, out.draws)


def unfolded_gibbs_draws(data, cfg):
    """The probit Gibbs sweep written with the signs applied to the latent
    draw itself, retained draws picked by step offset % thin.  Each sweep
    draws its n uniforms and d normals from the two spawned streams, one
    sweep at a time."""
    X, y = data.design, data.response
    n, d = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    proj = xtx_inv @ X.T
    chol_cov = np.linalg.cholesky(xtx_inv)
    sign = np.where(y == 1.0, 1.0, -1.0)
    normal_seed, uniform_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    normals = np.random.default_rng(normal_seed)
    uniforms = np.random.default_rng(uniform_seed)
    beta = np.zeros(d)
    draws = []
    for step in range(cfg.burn_in + cfg.length * cfg.thin):
        t = X @ beta
        u = uniforms.random(n)
        latent = t + sign * std_lower(-sign * t, u)
        beta = proj @ latent + chol_cov @ normals.standard_normal(d)
        offset = step - cfg.burn_in
        if offset >= 0 and offset % cfg.thin == 0:
            draws.append(beta)
    return np.array(draws)


def test_gibbs_probit_equals_the_unfolded_sweep_exactly():
    data = synthetic_banknote(seed=101)
    cfg = SamplerConfig(length=300, seed=23)
    out = gibbs_probit(ProbitTarget(data), cfg)
    assert np.array_equal(out.draws, unfolded_gibbs_draws(data, cfg))


def test_gibbs_probit_burn_in_and_thinning_equal_the_unfolded_sweep_exactly(monkeypatch):
    import zvmcmc.samplers

    monkeypatch.setattr(zvmcmc.samplers, "_GIBBS_GRADIENT_ROWS", 8)
    data = synthetic_banknote(seed=101, n=80)
    cfg = SamplerConfig(length=17, burn_in=5, thin=3, seed=4)
    out = gibbs_probit(ProbitTarget(data), cfg)
    assert np.array_equal(out.draws, unfolded_gibbs_draws(data, cfg))


def test_gibbs_probit_draws_do_not_depend_on_the_block_size(monkeypatch):
    import zvmcmc.samplers

    # 83 rows do not line up with the SIMD width, so the block's log1p pass
    # splits rows across vector and tail lanes differently for each size
    model = ProbitTarget(synthetic_banknote(seed=101, n=83))
    cfg = SamplerConfig(length=150, burn_in=11, thin=3, seed=21)
    chains = []
    # one sweep per block, 7 sweeps per block (dividing neither phase), default
    for uniforms in (1, 7 * 83, zvmcmc.samplers._GIBBS_UNIFORMS):
        monkeypatch.setattr(zvmcmc.samplers, "_GIBBS_UNIFORMS", uniforms)
        chains.append(gibbs_probit(model, cfg))
    for chain in chains[:2]:
        assert np.array_equal(chain.draws, chains[2].draws)
        assert np.array_equal(chain.gradients, chains[2].gradients)


def test_chain_output_immutable():
    out = rw_metropolis(GaussianTarget(), SamplerConfig(length=20, seed=0))
    with pytest.raises(ValueError):
        out.draws[0, 0] = 99.0


# ---------------------------------------------------------------------------
# probit Gibbs


def test_gibbs_probit_agrees_with_random_walk():
    data = synthetic_banknote(seed=101, n=120)
    model = ProbitTarget(data)
    gi = gibbs_probit(ProbitTarget(data), SamplerConfig(length=4000, burn_in=500, seed=21))
    rw = rw_metropolis(model, SamplerConfig(length=20000, burn_in=2000, seed=22, thin=1))
    assert gi.accept_rate == 1.0
    for j in range(model.dimension):
        mg = gi.draws[:, j].mean()
        mr = rw.draws[:, j].mean()
        se = np.sqrt(
            batch_means_asvar(gi.draws[:, j], 60) / gi.length
            + batch_means_asvar(rw.draws[:, j], 100) / rw.length
        )
        assert abs(mg - mr) < 6 * se


def test_gibbs_gradients_match_model():
    data = synthetic_banknote(seed=101, n=80)
    model = ProbitTarget(data)
    out = gibbs_probit(ProbitTarget(data), SamplerConfig(length=30, burn_in=20, seed=4))
    for i in (0, 29):
        assert np.allclose(out.gradients[i], model.grad_log_density(out.draws[i]))


def test_gibbs_reads_the_model_and_builds_no_second_one(monkeypatch):
    model = ProbitTarget(synthetic_banknote(seed=101, n=80))
    cfg = SamplerConfig(length=30, burn_in=20, seed=4)
    built = []
    original = ProbitTarget.__init__

    def spy(self, data):
        built.append(data)
        original(self, data)

    monkeypatch.setattr(ProbitTarget, "__init__", spy)
    out = sample_chain(model, cfg, method="gibbs")
    assert built == []
    assert np.array_equal(out.draws, gibbs_probit(model, cfg).draws)


def test_gibbs_rejects_a_numerically_rank_deficient_design(monkeypatch):
    # X'X without a Cholesky factor, as rounding can leave a nearly collinear
    # design that matrix_rank still calls full rank
    model = ProbitTarget(synthetic_banknote(seed=101, n=80))
    model.xtx = model.xtx.copy()
    model.xtx[0, 0] = -1.0
    monkeypatch.setattr("zvmcmc.samplers.resolve_init", lambda *args: pytest.fail("sampling started"))
    with pytest.raises(ValueError, match="numerically rank deficient"):
        sample_chain(model, SamplerConfig(length=10, seed=0), method="gibbs")


def test_sample_chain_dispatch():
    data = synthetic_banknote(seed=101, n=80)
    out = sample_chain(ProbitTarget(data), SamplerConfig(length=10, seed=0), method="gibbs")
    # the Gibbs sampler: every sweep is a move, and none calls log_density
    assert out.accept_rate == 1.0
    assert out.log_density_calls == 0
    with pytest.raises(ValueError):
        sample_chain(GaussianTarget(), SamplerConfig(length=10, seed=0), method="gibbs")
    with pytest.raises(ValueError):
        sample_chain(GaussianTarget(), SamplerConfig(length=10, seed=0), method="slice")


# ---------------------------------------------------------------------------
# config validation


@settings(max_examples=30, deadline=None)
@given(
    length=st.integers(-3, 3),
    burn=st.integers(-2, 2),
    thin=st.integers(-1, 2),
)
def test_sampler_config_bounds(length, burn, thin):
    valid = length >= 1 and burn >= 0 and thin >= 1
    if valid:
        SamplerConfig(length=length, burn_in=burn, thin=thin)
    else:
        with pytest.raises(ValueError):
            SamplerConfig(length=length, burn_in=burn, thin=thin)


@pytest.mark.parametrize("field,value,message", [
    ("length", True, "length must be an integer >= 1, got True"),
    ("thin", True, "thin must be an integer >= 1, got True"),
    ("burn_in", np.False_, f"burn_in must be a non-negative integer, got {np.False_!r}"),
    ("length", None, "length must be an integer >= 1, got None"),
    ("length", "3", "length must be an integer >= 1, got '3'"),
    ("thin", float("nan"), "thin must be an integer >= 1, got nan"),
    ("burn_in", 0.5, "burn_in must be a non-negative integer, got 0.5"),
    ("seed", True, "seed must be a u64, got True"),
    ("seed", None, "seed must be a u64, got None"),
    ("seed", "3", "seed must be a u64, got '3'"),
], ids=["length-bool", "thin-bool", "burn_in-numpy-bool", "length-none", "length-str", "thin-nan",
        "burn_in-fraction", "seed-bool", "seed-none", "seed-str"])
def test_sampler_config_takes_integers_only(field, value, message):
    with pytest.raises(ValueError) as raised:
        SamplerConfig(**{"length": 10, field: value})
    assert str(raised.value) == message


def test_sampler_config_takes_integral_numbers_as_ints():
    config = SamplerConfig(length=3.0, burn_in=np.int64(2), thin=np.uint8(1), seed=np.uint64(5))
    assert [type(v) for v in (config.length, config.burn_in, config.thin, config.seed)] == [int] * 4


def test_sampler_config_rejects_bad_seed():
    with pytest.raises(ValueError):
        SamplerConfig(length=10, seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(length=10, seed=2**64)
