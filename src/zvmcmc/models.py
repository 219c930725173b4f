"""Target distributions exposing unnormalized log-density and its gradient.

Toy 1-d targets (gaussian, exponential, gamma) and three Bayesian posteriors
(probit, logit, GARCH(1,1)) share one interface:

    dimension, tag, parameter_names, constrained_coordinates
    in_support(beta) -> bool
    log_density(beta) -> float        (additive constants dropped consistently)
    grad_log_density(beta) -> (d,)    (beta strictly interior to the support)
    grad_log_density(B) -> (m, d)     (the same, row by row, for an (m, d) batch)
    rough_scale() -> (d,)             (crude posterior scale, proposal sizing)
    default_init() -> (d,)

log_density and grad_log_density raise SupportError outside the support
(the strict interior for gradients; one offending row fails a whole batch)
and ValueError on a wrongly shaped argument.  Samplers rely on the former:
random-walk Metropolis calls log_density on every proposal and reads
SupportError as a rejection, so each proposal is validated once.

Every support is "all coordinates finite" plus lower bounds of 0 on some
coordinates, and one helper, _violation, checks it for every model.  A
one-point call checks the point's Python floats, which costs far less than
numpy reductions over a few numbers; an (m, d) batch is checked with numpy
reductions.  Both make the same checks in the same order and fail with the
same messages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack
from scipy.special import expit, log_ndtr

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


class SupportError(ValueError):
    """A parameter value violates a target's support constraints."""


def _as_param(beta, d):
    beta = np.asarray(beta, dtype=float)
    if beta.shape == () and d == 1:
        beta = beta.reshape(1)
    if beta.shape != (d,):
        raise ValueError(f"parameter must have shape ({d},), got {beta.shape}")
    return beta


def _as_points(beta, d):
    """beta as one (d,) point or an (m, d) batch of points."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 2:
        if beta.shape[1] != d:
            raise ValueError(f"a batch of parameters must have shape (m, {d}), got {beta.shape}")
        return beta
    return _as_param(beta, d)


def _violation(beta, bounds=()):
    """Why beta is outside a support, or None when it is inside.

    The support is "every entry finite" followed by bounds, a sequence of
    (j, strict, message): coordinate j must be > 0 when strict, >= 0
    otherwise.  The first failed check names the message.  beta is one (d,)
    point, checked on Python floats, or an (m, d) batch, checked with numpy
    reductions, which fails when any row fails.
    """
    if beta.ndim == 1:
        values = beta.tolist()
        if not all(map(math.isfinite, values)):
            return "parameter must be finite"
        for j, strict, message in bounds:
            if values[j] <= 0.0 if strict else values[j] < 0.0:
                return message
        return None
    if not np.isfinite(beta).all():
        return "parameter must be finite"
    for j, strict, message in bounds:
        column = beta[:, j]
        if ((column <= 0.0) if strict else (column < 0.0)).any():
            return message
    return None


def _require(beta, bounds=()):
    """beta itself, or SupportError with the message _violation(beta, bounds) returns."""
    v = _violation(beta, bounds)
    if v is not None:
        raise SupportError(v)
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
    def n(self):
        return self.design.shape[0]

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
        if not (np.isfinite(self.h0) and self.h0 > 0.0):
            raise ValueError(f"h0 must be finite and > 0, got {self.h0}")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "h0", float(self.h0))

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
# Each toy's formulas broadcast, so one expression serves a (1,) point and an
# (m, 1) batch.


_POSITIVE = ((0, True, "x must be > 0"),)


class GaussianTarget:
    """1-d normal with mean mu and variance sigma2, log pi = -(x-mu)^2/(2 sigma2)."""

    tag = "gaussian"
    dimension = 1
    parameter_names = ("x",)
    constrained_coordinates = ()

    def __init__(self, mu=0.0, sigma2=1.0):
        if not (np.isfinite(sigma2) and sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and > 0, got {sigma2}")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)

    def in_support(self, beta):
        return _violation(_as_param(beta, 1)) is None

    def log_density(self, beta):
        beta = _require(_as_param(beta, 1))
        d = beta[0] - self.mu
        return float(-0.5 * d * d / self.sigma2)

    def grad_log_density(self, beta):
        beta = _require(_as_points(beta, 1))
        return (self.mu - beta) / self.sigma2

    def rough_scale(self):
        return np.array([np.sqrt(self.sigma2)])

    def default_init(self):
        return np.array([self.mu])


class ExponentialTarget:
    """Exponential(lambda) on (0, inf), unnormalized log pi = -lambda x."""

    tag = "exponential"
    dimension = 1
    parameter_names = ("x",)
    # plain x is excluded from the default basis: the density is positive at
    # the boundary x = 0, so the linear control variate picks up a boundary
    # term and its population mean is not zero
    constrained_coordinates = (0,)

    def __init__(self, lam=1.0):
        if not (np.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {lam}")
        self.lam = float(lam)

    def in_support(self, beta):
        return _violation(_as_param(beta, 1), _POSITIVE) is None

    def log_density(self, beta):
        beta = _require(_as_param(beta, 1), _POSITIVE)
        return float(-self.lam * beta[0])

    def grad_log_density(self, beta):
        beta = _require(_as_points(beta, 1), _POSITIVE)
        return np.full(beta.shape, -self.lam)

    def rough_scale(self):
        return np.array([1.0 / self.lam])

    def default_init(self):
        return np.array([1.0 / self.lam])


class GammaTarget:
    """Gamma(shape, scale) on (0, inf), log pi = (shape-1) log x - x/scale."""

    tag = "gamma"
    dimension = 1
    parameter_names = ("x",)
    constrained_coordinates = (0,)

    def __init__(self, shape=3.0, scale=1.0):
        if not (np.isfinite(shape) and shape > 0.0):
            raise ValueError(f"shape must be finite and > 0, got {shape}")
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def in_support(self, beta):
        return _violation(_as_param(beta, 1), _POSITIVE) is None

    def log_density(self, beta):
        beta = _require(_as_param(beta, 1), _POSITIVE)
        x = beta[0]
        return float((self.shape - 1.0) * np.log(x) - x / self.scale)

    def grad_log_density(self, beta):
        beta = _require(_as_points(beta, 1), _POSITIVE)
        return (self.shape - 1.0) / beta - 1.0 / self.scale

    def rough_scale(self):
        return np.array([np.sqrt(self.shape) * self.scale])

    def default_init(self):
        return np.array([self.shape * self.scale])


# ---------------------------------------------------------------------------
# regression posteriors, flat prior on the coefficients
#
# Gradients take the linear predictor as beta @ X', (n,) for one point and
# (m, n) for a batch, and contract it back with @ X.


class _RegressionTarget:
    constrained_coordinates = ()

    def __init__(self, data: BinaryRegressionData):
        self.data = data
        self.dimension = data.dimension
        self.parameter_names = tuple(f"beta_{j + 1}" for j in range(self.dimension))
        # the probit Gibbs sweep draws with both; the inverse also sizes proposals
        self.xtx = data.design.T @ data.design
        self.xtx_inv = np.linalg.inv(self.xtx)

    def in_support(self, beta):
        return _violation(_as_param(beta, self.dimension)) is None

    def default_init(self):
        return np.zeros(self.dimension)


class ProbitTarget(_RegressionTarget):
    """Bayesian probit regression, flat prior.

    log pi(beta) = sum_i [ y_i log Phi(x_i'beta) + (1-y_i) log Phi(-x_i'beta) ].
    """

    tag = "probit"

    def __init__(self, data: BinaryRegressionData):
        super().__init__(data)
        # s_i = 2 y_i - 1, the +-1 response signs
        self.sign = 2.0 * data.response - 1.0

    def log_density(self, beta):
        beta = _require(_as_param(beta, self.dimension))
        t = self.data.design @ beta
        y = self.data.response
        return float(y @ log_ndtr(t) + (1.0 - y) @ log_ndtr(-t))

    def grad_log_density(self, beta):
        beta = _require(_as_points(beta, self.dimension))
        # s_i x_i'beta with s_i = 2 y_i - 1: the score of row i is
        # s_i phi(x_i'beta) / Phi(s_i x_i'beta), and phi is even
        st = beta @ self.data.design.T
        st *= self.sign
        # phi/Phi in log space stays finite deep in both tails
        score = np.exp(-0.5 * st * st - _LOG_SQRT_2PI - log_ndtr(st))
        score *= self.sign
        return score @ self.data.design

    def rough_scale(self):
        return np.sqrt(np.diag(self.xtx_inv))


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
    """

    tag = "logit"

    def __init__(self, data: BinaryRegressionData):
        super().__init__(data)
        self._s_design = (2.0 * data.response - 1.0)[:, None] * data.design

    def log_density(self, beta):
        beta = _require(_as_param(beta, self.dimension))
        u = self._s_design @ beta
        tail = np.abs(u)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.minimum(u, 0.0, out=u)
        u -= tail
        return float(u.sum())

    def grad_log_density(self, beta):
        beta = _require(_as_points(beta, self.dimension))
        resid = expit(beta @ self.data.design.T)
        np.subtract(self.data.response, resid, out=resid)
        return resid @ self.data.design

    def rough_scale(self):
        # logistic noise is wider than probit by about pi/sqrt(3)
        return 1.8 * np.sqrt(np.diag(self.xtx_inv))


# ---------------------------------------------------------------------------
# GARCH(1,1)

_GARCH_SUPPORT = (
    (0, True, "omega_1 must be > 0"),
    (1, False, "omega_2 must be >= 0"),
    (2, False, "omega_3 must be >= 0"),
)
# the gradient also needs the open faces omega_2 > 0 and omega_3 > 0, checked
# after the whole support
_GARCH_INTERIOR = _GARCH_SUPPORT + (
    (1, True, "omega_2 must be > 0 strictly inside the support"),
    (2, True, "omega_3 must be > 0 strictly inside the support"),
)


class GarchTarget:
    """GARCH(1,1) posterior for omega = (omega_1, omega_2, omega_3).

    Conditional variances follow
        h_t = omega_1 + omega_3 h_{t-1} + omega_2 r_{t-1}^2,
    seeded with h_0 = series.h0 and r_0 = 0, so h_1 = omega_1 + omega_3 h_0.
    The likelihood is the Gaussian one over all T returns, the prior the
    product of truncated normals from GarchPrior.  Support: omega_1 > 0,
    omega_2 >= 0, omega_3 >= 0.

    For one omega the recursions for h and dh/domega are solves with the
    unit lower-bidiagonal matrix that has -omega_3 below its diagonal.  A
    batch gradient runs the recursions forward in t on (m,) vectors instead,
    so its memory does not grow with T.
    """

    tag = "garch"
    dimension = 3
    parameter_names = ("omega_1", "omega_2", "omega_3")
    constrained_coordinates = ()

    def __init__(self, series: ReturnsSeries, prior: GarchPrior | None = None):
        self.series = series
        self.prior = prior if prior is not None else GarchPrior()
        self._prior_var = self.prior.prior_sd**2
        self._r2 = series.returns**2
        # r_0 := 0 puts a zero in front of the lagged squared returns
        self._r2_lag = np.concatenate(([0.0], self._r2[:-1]))

    def in_support(self, omega):
        return _violation(_as_param(omega, 3), _GARCH_SUPPORT) is None

    def _band(self, w3):
        # LAPACK lower band storage (2, T) of the recursion matrix, -omega_3
        # below the diagonal in row 1.  Row 0 would hold the unit diagonal,
        # but under diag "U" dtbsv and dtbtrs never read it, so it is left
        # unwritten
        band = np.empty((2, self.series.length), order="F")
        band[1] = -w3
        return band

    def _h_path(self, omega, band):
        w1, w2, w3 = omega
        forcing = w1 + w2 * self._r2_lag
        forcing[0] += w3 * self.series.h0
        return blas.dtbsv(1, band, forcing, lower=1, diag=1, overwrite_x=1)

    def _h_derivatives(self, h, band):
        # each recursion d_t = forcing_t + omega_3 d_{t-1} starts from d_0 = 0
        # because h_0 is a data constant; the omega_3 forcing still sees h_0
        forcing = np.empty((self.series.length, 3), order="F")
        forcing[:, 0] = 1.0
        forcing[:, 1] = self._r2_lag
        forcing[0, 2] = self.series.h0
        forcing[1:, 2] = h[:-1]
        dh, info = lapack.dtbtrs(band, forcing, uplo="L", diag="U", overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs failed with info={info}")
        return dh

    def log_density(self, omega):
        omega = _require(_as_param(omega, 3), _GARCH_SUPPORT).tolist()
        w1, w2, w3 = omega
        h = self._h_path(omega, self._band(w3))
        loglik = -0.5 * float((np.log(h) + self._r2 / h).sum())
        v1, v2, v3 = self._prior_var.tolist()
        # left to right, the order numpy's sum over three numbers takes
        logprior = -0.5 * (w1 * w1 / v1 + w2 * w2 / v2 + w3 * w3 / v3)
        return loglik + logprior

    def grad_log_density(self, omega):
        omega = _require(_as_points(omega, 3), _GARCH_INTERIOR)
        if omega.ndim == 2:
            return -omega / self._prior_var + self._loglik_grad_rows(omega)
        band = self._band(omega[2])
        h = self._h_path(omega, band)
        dh = self._h_derivatives(h, band)
        w = 0.5 * (self._r2 / (h * h) - 1.0 / h)
        return -omega / self._prior_var + dh.T @ w

    def _loglik_grad_rows(self, omega):
        # sum_t w_t dh_t with the h and dh recursions stepped together; a
        # per-row loop over the banded solves is slower than this
        m = omega.shape[0]
        w1, w2, w3 = (np.ascontiguousarray(c) for c in omega.T)
        h = np.full(m, self.series.h0)
        dh = np.zeros((3, m))
        grad = np.zeros((3, m))
        forcing = np.empty(m)
        step = np.empty(m)
        for r2_lag, r2 in zip(self._r2_lag, self._r2):
            dh *= w3
            dh[0] += 1.0
            dh[1] += r2_lag
            dh[2] += h
            np.multiply(w2, r2_lag, out=forcing)
            forcing += w1
            h *= w3
            h += forcing
            # 2 w_t = r2_t / h_t^2 - 1 / h_t, halved once at the end
            np.divide(r2, h, out=step)
            step -= 1.0
            step /= h
            grad += step * dh
        return 0.5 * grad.T

    def rough_scale(self):
        # crude, order of magnitude only; shipped configs override proposals
        return np.array([0.05 * self.series.h0, 0.1, 0.1])

    def default_init(self):
        return np.array([0.2 * self.series.h0, 0.1, 0.6])
