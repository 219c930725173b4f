"""Target distributions exposing unnormalized log-density and its gradient.

Toy 1-d targets (gaussian, exponential, gamma) and three Bayesian posteriors
(probit, logit, GARCH(1,1)) share one interface:

    dimension, tag, parameter_names, constrained_coordinates
    log_density(beta) -> float        (additive constants dropped consistently)
    grad_log_density(B) -> (m, d)     (row by row, each strictly interior to the support)
    grad_log_density(beta) -> (d,)    (row 0 of the gradient of the batch of one beta[None])
    default_pilot() -> (mean (d,), cov (d, d))
                                      (the random-walk chain's start, screen and step
                                      when a config gives no pilot)

log_density and grad_log_density raise SupportError outside the support
(the strict interior for gradients; one offending row fails a whole batch)
and ValueError on a wrongly shaped argument.  That SupportError is the only
check of a point: random-walk Metropolis calls log_density on every proposal
and reads SupportError as a rejection, so each proposal is validated once.

Every support is "all coordinates finite" plus lower bounds of 0 on some
coordinates.  Each target declares its bounds once, as the support tuple of
(j, strict, message) entries on its class, and the _Target base checks them
on every density and gradient call, a gradient's then each non-strict bound
again as strict (_gradient_bounds): _point checks one point on its Python
floats, which costs far less than numpy reductions over a few numbers, and
grad_log_density checks an (m, d) batch with numpy reductions.  Both make
the same checks in the same order and fail with the same messages.  The
base's grad_log_density hands the target's _grad_batch the checked batch, a
point as the batch of one.  So a target writes only its data, its
log_density, its batch gradient rows and its default pilot; the toys share a
1-d base on top of that.

default_pilot is the Gaussian N(mean, cov) that random-walk Metropolis
starts at, screens with and steps by when a config sets no pilot_mean and
pilot_cov: the toys give their exact mean and variance, probit and logit
their Laplace approximation (the posterior mode and the inverse of the
information there), and GARCH a crude start with a diagonal covariance of
crude scales.  Each call returns new arrays.

scipy.special (probit's log Phi) and scipy.linalg (GARCH's banded solve)
are the lazy module handles special and linalg, imported on first attribute
lookup, so the logit and toy targets never load scipy.  Probit and GARCH
load theirs in the log_density call that checks the start as the model is
built, before a pool forks; a worker started fresh loads it on its first
call.  An import inside the hot functions would run the import system on
every call, and an f2py routine on the instance would not pickle.  The
logit gradient's sigmoid uses numpy's exp and differs from
scipy.special.expit, which uses the C library's exp, by at most 4 ulp.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SupportError",
    "BinaryRegressionData",
    "ReturnsSeries",
    "GarchPrior",
    "GaussianTarget",
    "ExponentialTarget",
    "GammaTarget",
    "ProbitTarget",
    "LogitTarget",
    "GarchTarget",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _lazy_module(name):
    """Module name, run on its first attribute lookup (importlib's LazyLoader
    recipe), or as it is when already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# log_ndtr and ndtri_exp for probit and its Gibbs sampler; blas.dtbsv for GARCH
special = _lazy_module("scipy.special")
linalg = _lazy_module("scipy.linalg")


class SupportError(ValueError):
    """A parameter value violates a target's support constraints."""


_FINITE = "parameter must be finite"
# rows per block of the regression targets' batch gradients, which keeps
# their (rows, n) temporaries a few MB
_GRADIENT_BLOCK = 1024
# the regression targets' search for their mode (_RegressionTarget._mode):
# at most this many Newton steps, each halved at most this many times, until
# the Newton decrement g' (-H)^-1 g falls below the tolerance,
_NEWTON_STEPS = 100
_NEWTON_HALVINGS = 60
_NEWTON_TOLERANCE = 1e-12
# and a mode must have -H above this share of X'X in every direction (a
# logit row weighs at most 1/4, a probit row at most 1)
_LEAST_WEIGHT = 1e-8


def _positive(name, value):
    """value as a float, or ValueError unless it is finite and > 0."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return float(value)


class _Target:
    """The protocol around a target's two formulas, written once.

    A subclass sets dimension and support, the (j, strict, message) bounds
    its densities and gradients check, and writes default_pilot.  Its
    log_density validates the argument with _point; its _grad_batch takes
    checked (m, d) rows.
    """

    support = ()
    constrained_coordinates = ()

    def grad_log_density(self, beta):
        """grad log pi at an (m, d) batch, row by row, or at one (d,) point.

        A point is checked by _point and is the batch of one beta[None]: its
        gradient is that batch's row 0, bit for bit.  A batch is checked as
        _point checks a point, with numpy reductions, and fails with the
        message of the first check any row fails.
        """
        beta = np.asarray(beta, dtype=float)
        bounds = self._gradient_bounds()
        if beta.ndim != 2:
            return self._grad_batch(self._point(beta, bounds)[None])[0]
        if beta.shape[1] != self.dimension:
            raise ValueError(f"a batch of parameters must have shape (m, {self.dimension}), "
                             f"got {beta.shape}")
        if not np.isfinite(beta).all():
            raise SupportError(_FINITE)
        for j, strict, message in bounds:
            column = beta[:, j]
            if ((column <= 0.0) if strict else (column < 0.0)).any():
                raise SupportError(message)
        return self._grad_batch(beta)

    def _gradient_bounds(self):
        """The support's bounds, then each non-strict one again as strict (the open face)."""
        return self.support + tuple(
            (j, True, f"{self.parameter_names[j]} must be > 0 strictly inside the support")
            for j, strict, _ in self.support if not strict)

    def _point(self, beta, bounds=None):
        """beta as a (d,) float array, checked against the support.

        A 0-d beta counts as (1,) when d = 1; any other shape raises
        ValueError.  Then SupportError names the first failed check: every
        entry finite, then bounds (the support when None) in order, each
        (j, strict, message) requiring coordinate j > 0 when strict, >= 0
        otherwise.  The checks run on the point's Python floats, which costs
        far less than numpy reductions over a few numbers.
        """
        # dtype goes in positionally, which numpy parses faster
        beta = np.asarray(beta, float)
        d = self.dimension
        if beta.shape != (d,):
            if beta.shape != () or d != 1:
                raise ValueError(f"parameter must have shape ({d},), got {beta.shape}")
            beta = beta.reshape(1)
        values = beta.tolist()
        # a finite sum means every entry is finite; only a sum that is not
        # (an entry is not, or finite entries overflowed) needs the entries
        if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
            raise SupportError(_FINITE)
        for j, strict, message in self.support if bounds is None else bounds:
            if values[j] <= 0.0 if strict else values[j] < 0.0:
                raise SupportError(message)
        return beta


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class BinaryRegressionData:
    """Design matrix (n, d) and 0/1 response (n,) for probit and logit."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.design, dtype=float)
        y = np.asarray(self.response, dtype=float)
        if X.ndim != 2:
            raise ValueError("design must be a 2-d array")
        n, d = X.shape
        if d < 1 or n < d:
            raise ValueError(f"need at least as many rows as columns, got {n} rows, {d} columns")
        if not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        if y.shape != (n,):
            raise ValueError(f"response must have shape ({n},), got {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            bad = int(np.flatnonzero(~((y == 0.0) | (y == 1.0)))[0])
            raise ValueError(f"response must be 0 or 1, offending row {bad}")
        zero_rows = np.flatnonzero(~np.any(X != 0.0, axis=1))
        if zero_rows.size:
            raise ValueError(f"design row {int(zero_rows[0])} is all zeros")
        if np.linalg.matrix_rank(X) < d:
            raise ValueError("design is rank deficient")
        X = X.copy()
        y = y.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "response", y)

    @property
    def dimension(self):
        return self.design.shape[1]


@dataclass(frozen=True)
class ReturnsSeries:
    """Return series with the pre-sample variance seed h0 for the GARCH recursion."""

    returns: np.ndarray
    h0: float

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("returns must be a 1-d array with at least 2 entries")
        if not np.all(np.isfinite(r)):
            raise ValueError("returns contain non-finite entries")
        h0 = _positive("h0", self.h0)
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "h0", h0)

    @property
    def length(self):
        return self.returns.size


@dataclass(frozen=True)
class GarchPrior:
    """Independent half-open truncated normal priors on (omega_1, omega_2, omega_3).

    Only the standard deviations enter; the truncation normalizer is constant
    in omega and dropped from the log-density.
    """

    prior_sd: np.ndarray = field(default_factory=lambda: np.array([1000.0, 1000.0, 1000.0]))

    def __post_init__(self):
        sd = np.asarray(self.prior_sd, dtype=float)
        if sd.shape != (3,):
            raise ValueError(f"prior_sd must have shape (3,), got {sd.shape}")
        if not np.all(np.isfinite(sd) & (sd > 0.0)):
            raise ValueError("prior_sd entries must be finite and > 0")
        sd = sd.copy()
        sd.setflags(write=False)
        object.__setattr__(self, "prior_sd", sd)


# ---------------------------------------------------------------------------
# toy targets
#
# Each toy's gradient is one expression on its (m, 1) rows.


class _Toy(_Target):
    dimension = 1
    parameter_names = ("x",)


_POSITIVE = ((0, True, "x must be > 0"),)


class GaussianTarget(_Toy):
    """1-d normal with mean mu and variance sigma2, log pi = -(x-mu)^2/(2 sigma2)."""

    tag = "gaussian"

    def __init__(self, mu=0.0, sigma2=1.0):
        self.sigma2 = _positive("sigma2", sigma2)
        self.mu = float(mu)

    def default_pilot(self):
        return np.array([self.mu]), np.array([[self.sigma2]])

    def log_density(self, beta):
        d = self._point(beta)[0] - self.mu
        return float(-0.5 * d * d / self.sigma2)

    def _grad_batch(self, beta):
        return (self.mu - beta) / self.sigma2


class ExponentialTarget(_Toy):
    """Exponential(lambda) on (0, inf), unnormalized log pi = -lambda x."""

    tag = "exponential"
    support = _POSITIVE
    # plain x is excluded from the default basis: the density is positive at
    # the boundary x = 0, so the linear control variate picks up a boundary
    # term and its population mean is not zero
    constrained_coordinates = (0,)

    def __init__(self, lam=1.0):
        self.lam = _positive("lam", lam)

    def default_pilot(self):
        return np.array([1.0 / self.lam]), np.array([[1.0 / self.lam**2]])

    def log_density(self, beta):
        return float(-self.lam * self._point(beta)[0])

    def _grad_batch(self, beta):
        return np.full(beta.shape, -self.lam)


class GammaTarget(_Toy):
    """Gamma(shape, scale) on (0, inf), log pi = (shape-1) log x - x/scale."""

    tag = "gamma"
    support = _POSITIVE
    constrained_coordinates = (0,)

    def __init__(self, shape=3.0, scale=1.0):
        self.shape = _positive("shape", shape)
        self.scale = _positive("scale", scale)

    def default_pilot(self):
        return np.array([self.shape * self.scale]), np.array([[self.shape * self.scale**2]])

    def log_density(self, beta):
        x = self._point(beta)[0]
        return float((self.shape - 1.0) * np.log(x) - x / self.scale)

    def _grad_batch(self, beta):
        return (self.shape - 1.0) / beta - 1.0 / self.scale


# ---------------------------------------------------------------------------
# regression posteriors, flat prior on the coefficients
#
# Gradients take the linear predictor of (m, d) rows as beta @ X', (m, n),
# and contract it back with @ X; probit does both with the sign-folded
# design in place of X.


class _RegressionTarget(_Target):
    def __init__(self, data: BinaryRegressionData):
        self.data = data
        self.dimension = data.dimension
        self.parameter_names = tuple(f"beta_{j + 1}" for j in range(self.dimension))
        # the probit Gibbs sweep draws with both
        self.xtx = data.design.T @ data.design
        self.xtx_inv = np.linalg.inv(self.xtx)
        # rows s_i x_i with s_i = 2 y_i - 1: s_i x_i'beta is the signed linear
        # predictor both likelihoods are written in.  A +-1 factor is exact,
        # so products with it equal the unfolded ones with the sign applied
        self.s_design = (2.0 * data.response - 1.0)[:, None] * data.design

    def default_pilot(self):
        # the Laplace approximation: the mode, and there the inverse of the
        # information -H = X' diag(w) X
        beta, information = self._mode()
        cov = np.linalg.inv(information)
        # inv rounds a little asymmetrically; the mean of the inverse and its
        # transpose is exactly symmetric
        return beta, 0.5 * (cov + cov.T)

    def _mode(self):
        """(the posterior mode, the information there) by Newton steps from
        zero, each halved until log pi does not fall.  Both log-likelihoods
        are concave, so the steps reach the mode whenever there is one.
        (Quasi-)separable data have none, and their flat-prior posterior is
        improper: along a direction b that no row's s_i x_i'b opposes, log pi
        keeps rising while the weights of the rows b moves vanish, so the
        steps stall where b'(-H)b is a vanishing share of b'X'Xb.  That
        raises ValueError."""
        design = self.data.design
        beta = np.zeros(self.dimension)
        logp = self.log_density(beta)
        for _ in range(_NEWTON_STEPS):
            grad = self.grad_log_density(beta)
            # each subclass's _curvature gives w from s_i x_i'beta
            information = (design.T * self._curvature(self.s_design @ beta)) @ design
            try:
                step = np.linalg.solve(information, grad)
            except np.linalg.LinAlgError:
                break
            # half of g' (-H)^-1 g, the Newton decrement, is about how far
            # log pi still is below its maximum
            if grad @ step >= _NEWTON_TOLERANCE:
                moved = self._rising_step(beta, logp, step)
                if moved is not None:
                    beta, logp = moved
                    continue
            # beta is the maximum to the tolerance, or to rounding when no
            # halved step raises log pi; the smallest b'(-H)b / b'X'Xb is
            # an eigenvalue of L^-1 (-H) L^-T with X'X = L L'
            chol = np.linalg.cholesky(self.xtx)
            scaled = np.linalg.solve(chol, np.linalg.solve(chol, information).T)
            if np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0] > _LEAST_WEIGHT:
                return beta, information
            break
        raise ValueError(f"the {self.tag} posterior has no mode to centre a default pilot on "
                         f"(are the data separable?); set pilot_mean and pilot_cov")

    def _rising_step(self, beta, logp, step):
        """(beta + step / 2^k, its log pi) for the least k < _NEWTON_HALVINGS
        at which log pi does not fall below logp, or None."""
        for _ in range(_NEWTON_HALVINGS):
            trial = beta + step
            trial_logp = self.log_density(trial)
            if trial_logp >= logp:
                return trial, trial_logp
            step = 0.5 * step
        return None

    def _grad_batch(self, beta):
        # each subclass writes _grad_rows, the gradient at (m, d) rows; blocks
        # of rows bound its (m, n) temporaries
        grad = np.empty_like(beta)
        for start in range(0, beta.shape[0], _GRADIENT_BLOCK):
            block = slice(start, start + _GRADIENT_BLOCK)
            grad[block] = self._grad_rows(beta[block])
        return grad


class ProbitTarget(_RegressionTarget):
    """Bayesian probit regression, flat prior.

    log pi(beta) = sum_i [ y_i log Phi(x_i'beta) + (1-y_i) log Phi(-x_i'beta) ]
                 = sum_i log Phi(s_i x_i'beta),  s_i = 2 y_i - 1.

    The gradient depends on beta only through st = s_design beta and
    log Phi(st), and grad_from_predictor takes those rows to gradient rows.
    grad_log_density computes both from beta.  The Gibbs sampler has both
    from its sweeps and calls grad_from_predictor itself.
    """

    tag = "probit"

    def log_density(self, beta):
        return float(special.log_ndtr(self.s_design @ self._point(beta)).sum())

    def _grad_rows(self, beta):
        st = beta @ self.s_design.T
        return self.grad_from_predictor(st, special.log_ndtr(st))

    def _curvature(self, st):
        # -d^2/du^2 log Phi(u) = lam (lam + u), lam = phi(u) / Phi(u)
        lam = np.exp(-0.5 * st * st - _LOG_SQRT_2PI - special.log_ndtr(st))
        return lam * (lam + st)

    def grad_from_predictor(self, st, log_phi):
        """grad log pi from st = s_design beta and log_phi = log Phi(st).

        st and log_phi are (m, n) rows, giving (m, d); neither is written
        to.  The point is not checked: the rows must come from finite
        coefficients.
        """
        # the score of row i is s_i phi(x_i'beta) / Phi(s_i x_i'beta), and
        # phi is even; phi/Phi in log space stays finite deep in both tails.
        # exp(-0.5 st st - log sqrt(2 pi) - log_phi), left to right in one
        # buffer
        score = np.multiply(st, -0.5)
        score *= st
        score -= _LOG_SQRT_2PI
        score -= log_phi
        np.exp(score, score)
        return score @ self.s_design


class LogitTarget(_RegressionTarget):
    """Bayesian logistic regression, flat prior.

    log pi(beta) = sum_i [ y_i x_i'beta - log(1 + exp(x_i'beta)) ]
                 = sum_i log sigmoid(s_i x_i'beta),  s_i = 2 y_i - 1,

    and log_density evaluates the second form as
    sum_i min(u_i, 0) - log1p(exp(-|u_i|)) with u_i = s_i x_i'beta, on a
    design with the signs folded in.  Each term is at most 0 and exp never
    overflows, so no term cancels another.  The speed comes from numpy's
    vectorised (SIMD) exp and log1p loops: with AVX-512 they take about
    3 us for 200 rows where np.logaddexp's scalar loop takes about 7 us.
    On a CPU without those loops expect roughly logaddexp's cost.

    log_density writes into two (n,) work arrays the instance allocates
    once, u and the log1p term.  Because every call overwrites them, one
    instance must not serve two threads at once; each pool worker holds its
    own copy, unpickled from the one the parent ships.  The -1 and 0 it
    takes the sign from and clips at are (n,) arrays too: numpy handles an
    array operand faster than it converts a Python scalar on every call.

    The gradient rows are (y - sigmoid(X beta)) X, with sigmoid(u) =
    1 / (1 + exp(-u)) computed in place from numpy's SIMD exp.  It differs
    from scipy.special.expit, which uses the C library's exp, by at most
    4 ulp, on about 2% of arguments.  Below u = -709.78, where exp(-u)
    overflows, it is 0 and expit a number below 1e-308.
    """

    tag = "logit"

    def __init__(self, data: BinaryRegressionData):
        super().__init__(data)
        n = data.design.shape[0]
        self._work = (np.empty(n), np.empty(n))
        self._minus_one, self._zero = np.full(n, -1.0), np.zeros(n)
        self._minus_one.setflags(write=False)
        self._zero.setflags(write=False)

    def log_density(self, beta):
        # ndarray.dot, copysign and add.reduce give the values of @, -abs
        # and .sum() bit for bit, with less call overhead; out goes in
        # positionally, which numpy parses faster than the keyword, but
        # np.minimum takes it only as a keyword
        u, tail = self._work
        self.s_design.dot(self._point(beta), u)
        np.copysign(u, self._minus_one, tail)
        np.exp(tail, tail)
        np.log1p(tail, tail)
        np.minimum(u, self._zero, out=u)
        np.subtract(u, tail, u)
        return float(np.add.reduce(u))

    def _curvature(self, u):
        # -d^2/du^2 log sigmoid(u) = sigmoid(u) sigmoid(-u), written in
        # exp(-|u|), which never overflows
        e = np.exp(-np.abs(u))
        return e / ((1.0 + e) * (1.0 + e))

    def _grad_rows(self, beta):
        # far in the lower tail exp(-u) overflows to inf, whose reciprocal
        # is sigmoid's limit 0
        resid = beta @ self.data.design.T
        np.negative(resid, resid)
        with np.errstate(over="ignore"):
            np.exp(resid, resid)
        resid += 1.0
        np.reciprocal(resid, resid)
        np.subtract(self.data.response, resid, resid)
        return resid @ self.data.design


# ---------------------------------------------------------------------------
# GARCH(1,1)

_GARCH_SUPPORT = (
    (0, True, "omega_1 must be > 0"),
    (1, False, "omega_2 must be >= 0"),
    (2, False, "omega_3 must be >= 0"),
)


class GarchTarget(_Target):
    """GARCH(1,1) posterior for omega = (omega_1, omega_2, omega_3).

    Conditional variances follow
        h_t = omega_1 + omega_3 h_{t-1} + omega_2 r_{t-1}^2,
    seeded with h_0 = series.h0 and r_0 = 0, so h_1 = omega_1 + omega_3 h_0.
    The likelihood is the Gaussian one over all T returns, the prior the
    product of truncated normals from GarchPrior.  Support: omega_1 > 0,
    omega_2 >= 0, omega_3 >= 0.

    log_density solves the recursion for h as one banded triangular solve,
    with the unit lower-bidiagonal matrix that has -omega_3 below its
    diagonal.  The gradient runs the recursions for h and dh/domega forward
    in t on (m,) vectors, one entry per row of the batch, so its memory does
    not grow with T, and allocates nothing inside that loop.

    log_density writes into work arrays the instance allocates once: the
    (2, T) band of that matrix, h and the per-t log-likelihood terms.  The
    support check runs before any of them is written, so a proposal outside
    the support leaves them as they were.  Because every call overwrites
    them, one instance must not serve two threads at once; each pool worker
    holds its own copy, unpickled from the one the parent ships.
    """

    tag = "garch"
    dimension = 3
    parameter_names = ("omega_1", "omega_2", "omega_3")
    support = _GARCH_SUPPORT

    def __init__(self, series: ReturnsSeries, prior: GarchPrior | None = None):
        self.series = series
        self.prior = prior if prior is not None else GarchPrior()
        self._prior_var = self.prior.prior_sd**2
        self._r2 = series.returns**2
        # r_0 := 0 puts a zero in front of the lagged squared returns
        self._r2_lag = np.concatenate(([0.0], self._r2[:-1]))
        # log_density's work arrays: the band, h and the log-likelihood terms
        T = series.length
        self._work = (np.zeros((2, T), order="F"), np.empty(T), np.empty(T))

    def default_pilot(self):
        # crude, order of magnitude only; the shipped configs set their pilot
        h0 = self.series.h0
        return np.array([0.2 * h0, 0.1, 0.6]), np.diag(np.array([0.05 * h0, 0.1, 0.1])**2)

    def _h_path(self, omega, band, h):
        """h_1..h_T at omega, solved in the (T,) vector h, which is returned."""
        w1, w2, w3 = omega
        # LAPACK lower band storage (2, T) of the recursion matrix, -omega_3
        # below the diagonal in row 1; dtbsv under diag "U" never reads row 0
        band[1] = -w3
        # the forcing w1 + w2 r2_lag, with w3 h_0 added at t = 1
        np.multiply(self._r2_lag, w2, h)
        np.add(h, w1, h)
        h[0] += w3 * self.series.h0
        return linalg.blas.dtbsv(1, band, h, lower=1, diag=1, overwrite_x=1)

    def log_density(self, omega):
        omega = self._point(omega).tolist()
        w1, w2, w3 = omega
        band, h, terms = self._work
        h = self._h_path(omega, band, h)
        # log h_t + r2_t / h_t, summed by add.reduce as .sum() would
        np.log(h, terms)
        np.divide(self._r2, h, h)
        np.add(terms, h, terms)
        loglik = -0.5 * float(np.add.reduce(terms))
        v1, v2, v3 = self._prior_var.tolist()
        # left to right, the order numpy's sum over three numbers takes
        logprior = -0.5 * (w1 * w1 / v1 + w2 * w2 / v2 + w3 * w3 / v3)
        return loglik + logprior

    def _grad_batch(self, omega):
        # the prior's rows plus sum_t w_t dh_t, with the h and dh recursions
        # stepped together; each d_t = forcing_t + omega_3 d_{t-1} starts
        # from d_0 = 0 because h_0 is a data constant.  Nothing is allocated
        # in the loop: gain holds the rows 1, r2_{t-1} and h_{t-1}, the
        # three forcings of dh, so one add steps all three
        m = omega.shape[0]
        w1, w2, w3 = (np.ascontiguousarray(c) for c in omega.T)
        gain = np.empty((3, m))
        gain[0] = 1.0
        lag, h = gain[1], gain[2]
        h.fill(self.series.h0)
        dh = np.zeros((3, m))
        grad = np.zeros((3, m))
        term = np.empty((3, m))
        forcing = np.empty(m)
        step = np.empty(m)
        for r2_lag, r2 in zip(self._r2_lag.tolist(), self._r2.tolist()):
            lag.fill(r2_lag)
            dh *= w3
            dh += gain
            np.multiply(w2, r2_lag, forcing)
            forcing += w1
            h *= w3
            h += forcing
            # 2 w_t = r2_t / h_t^2 - 1 / h_t, halved once at the end
            np.divide(r2, h, step)
            step -= 1.0
            step /= h
            np.multiply(step, dh, term)
            grad += term
        return -omega / self._prior_var + 0.5 * grad.T
