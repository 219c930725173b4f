"""Diagnostics for chains, control variates and replication studies."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samplers import ChainOutput, checked_integer
from .zv import degenerate_columns

__all__ = [
    "batch_means_asvar",
    "ReplicationStudy",
    "RatioReport",
    "variance_ratio",
    "ZeroMeanReport",
    "cv_zero_mean_test",
    "LinnikReport",
    "linnik_estimate",
    "MomentReport",
    "moment_diagnostic",
    "ReferenceReport",
    "long_chain_reference",
]

MIN_BATCH_COUNT = 10


def batch_means_asvar(series, batch_count: int) -> float | np.ndarray:
    """Batch-means estimate of the asymptotic variance of the series mean.

    Splits the first batch_count * floor(N / batch_count) entries into equal
    batches and returns batch_size * var(batch means, ddof=1).  Dividing by N
    gives the squared standard error of the overall mean.  An (N,) series
    gives a float; an (N, k) array gives a (k,) array, one estimate per
    column, equal to the k one-column calls.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("series must be 1-d or 2-d")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite entries")
    batch_count = checked_integer("batch_count", batch_count, MIN_BATCH_COUNT)
    n = x.shape[0]
    if n < 2 * batch_count:
        raise ValueError(f"need at least {2 * batch_count} points for {batch_count} batches, got {n}")
    batch_size = n // batch_count
    # one contiguous row per column, reduced along the last axis: the sums
    # then run in the order a lone 1-d series takes, bit for bit.  A series
    # whose transpose is contiguous is not copied, and splitting the last
    # axis into batches is a view
    rows = np.ascontiguousarray(x.T)[..., : batch_size * batch_count]
    batches = rows.reshape(-1, batch_count, batch_size)
    asvar = batch_size * batches.mean(axis=-1).var(axis=-1, ddof=1)
    return float(asvar[0]) if x.ndim == 1 else asvar


def _default_batch_count(n):
    return max(MIN_BATCH_COUNT, int(np.sqrt(n)))


# ---------------------------------------------------------------------------
# replication studies and variance ratios


@dataclass
class ReplicationStudy:
    """Across-replication estimates for the ordinary and ZV estimators.

    ordinary_estimates is (R, P); zv_estimates maps degree -> (R, P); seeds
    holds the per-replication fit-chain seeds.
    """

    ordinary_estimates: np.ndarray
    zv_estimates: dict[int, np.ndarray]
    seeds: np.ndarray
    parameter_names: tuple[str, ...]


@dataclass(frozen=True)
class RatioReport:
    """Variance ratio var(ordinary)/var(ZV) with a bootstrap interval.

    infinite flags a ZV variance that is numerically zero; the point and the
    interval ends are +inf in that case rather than an exception.
    """

    point: float
    lower: float
    upper: float
    infinite: bool


MIN_INTERVAL_REPLICATIONS = 20


def variance_ratio(
    study: ReplicationStudy,
    parameter: int,
    degree: int,
    resamples: int = 1000,
    seed: int = 0,
    min_replications: int = MIN_INTERVAL_REPLICATIONS,
) -> RatioReport:
    """Paired percentile bootstrap over replications of the variance ratio.

    The same resampled replication indices feed numerator and denominator.
    Intervals are reported only when the study has at least min_replications
    replications; below that the bounds are NaN and only the point is given.
    The default floor is MIN_INTERVAL_REPLICATIONS (20); a caller that wants
    an interval from a smaller study may pass a lower floor, down to 2.
    Resamples that draw a single replication R times leave both arms with
    zero variance; their ratio is 0/0, so they are left out of the interval.
    An exact control variate (zero ZV variance, positive ordinary variance)
    still gives a ratio of +inf.
    """
    ord_est = np.asarray(study.ordinary_estimates[:, parameter], dtype=float)
    if degree not in study.zv_estimates:
        raise KeyError(f"study has no degree {degree} estimates")
    zv_est = np.asarray(study.zv_estimates[degree][:, parameter], dtype=float)
    R = ord_est.size
    if R < 2:
        raise ValueError(f"need at least 2 replications for a variance ratio, got {R}")

    point = float(_variance_ratios(ord_est, zv_est))
    lower = upper = float("nan")
    if R >= min_replications:
        idx = np.random.default_rng(seed).integers(0, R, size=(resamples, R))
        # a resample of one replication drawn R times has zero variance in both
        # arms, up to rounding in the mean, so its ratio is undefined
        idx = idx[(idx != idx[:, :1]).any(axis=1)]
        ratios = _variance_ratios(ord_est[idx], zv_est[idx])
        # the point estimate is itself a member of the bootstrap distribution;
        # widen the interval in the rare resampling runs that leave it outside
        lower = upper = point
        if ratios.size:
            # order statistics, not interpolation: resampled ratios can be inf when
            # a control variate is exact, and interpolating across inf gives nan
            lower = min(float(np.percentile(ratios, 2.5, method="lower")), lower)
            upper = max(float(np.percentile(ratios, 97.5, method="higher")), upper)
    return RatioReport(
        point=point,
        lower=lower,
        upper=upper,
        infinite=bool(np.isinf(point)),
    )


def _variance_ratios(o, z):
    """var(o) / var(z), ddof 1, along the last axis; +inf where var(z) is 0."""
    vo = o.var(axis=-1, ddof=1)
    vz = z.var(axis=-1, ddof=1)
    with np.errstate(divide="ignore"):
        return np.where(vz == 0.0, np.inf, vo / np.where(vz == 0.0, 1.0, vz))


# ---------------------------------------------------------------------------
# control variate sanity checks


@dataclass(frozen=True)
class ZeroMeanReport:
    """Per-column z-scores of mean(g) against its batch-means standard error."""

    z_scores: np.ndarray
    degenerate: np.ndarray
    batch_count: int


MIN_ZERO_MEAN_DRAWS = 1000


def cv_zero_mean_test(G) -> ZeroMeanReport:
    """Check that every column of the (N, K) control variate array G averages to zero.

    z is each column's mean over its batch-means standard error, from
    max(MIN_BATCH_COUNT, floor(sqrt(N))) batches.  |z| persistently above
    about 4 points at a violated unbiasedness condition (wrong gradient,
    unhandled boundary) rather than bad luck.  Degenerate (constant) columns
    get NaN and a flag instead of a z-score.
    """
    N, K = G.shape
    if N < MIN_ZERO_MEAN_DRAWS:
        raise ValueError(f"need at least {MIN_ZERO_MEAN_DRAWS} draws, got {N}")
    bc = _default_batch_count(N)
    # contiguous rows, as in batch_means_asvar: each column's sums as on its
    # own; batch_means_asvar takes their transpose without a second copy
    rows = np.ascontiguousarray(G.T)
    asvar = batch_means_asvar(rows.T, bc)
    degenerate = degenerate_columns(G) | (asvar == 0.0)
    z = np.full(K, np.nan)
    keep = ~degenerate
    z[keep] = rows[keep].mean(axis=-1) / np.sqrt(asvar[keep] / N)
    return ZeroMeanReport(z_scores=z, degenerate=degenerate, batch_count=bc)


def _running_mean_flags(series_matrix):
    """(last running mean, divergent flags) per column of an (N, K) matrix.

    Divergent when the running mean over the second half of the chain exceeds
    twice the median of the whole running-mean trace.  Advisory only.
    """
    N = series_matrix.shape[0]
    running = np.cumsum(series_matrix, axis=0)
    running /= np.arange(1, N + 1)[:, None]
    median = np.median(running, axis=0)
    tail_max = running[N // 2 :].max(axis=0)
    return running[-1].copy(), tail_max > 2.0 * median


@dataclass(frozen=True)
class LinnikReport:
    """Mean squared gradient per coordinate with divergence flags.

    estimates targets E_pi[(d log pi / dx_j)^2], which is finite only when
    the target has enough tail regularity; divergent marks coordinates whose
    running mean fails the stability heuristic.
    """

    estimates: np.ndarray
    divergent: np.ndarray


def linnik_estimate(chain: ChainOutput) -> LinnikReport:
    estimates, divergent = _running_mean_flags(chain.gradients**2)
    return LinnikReport(estimates=estimates, divergent=divergent)


@dataclass(frozen=True)
class MomentReport:
    """Running means of |g|^(2+delta) per control variate column."""

    delta: float
    means: np.ndarray
    stable: np.ndarray


MOMENT_DELTA = 0.5


def moment_diagnostic(G) -> MomentReport:
    """Check the 2+delta moments of G's (N, K) columns that variance-ratio asymptotics lean on.

    delta is MOMENT_DELTA.  A column whose running mean of |g|^(2+delta) keeps
    drifting signals that the CLT behind the ratio intervals is on thin ice
    for this target.
    """
    series = np.abs(G) ** (2.0 + MOMENT_DELTA)
    means, divergent = _running_mean_flags(series)
    return MomentReport(delta=MOMENT_DELTA, means=means, stable=~divergent)


# ---------------------------------------------------------------------------
# long reference chain


@dataclass(frozen=True)
class ReferenceReport:
    """Point estimates and 95% batch-means intervals from one long chain."""

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    length: int
    asvar: np.ndarray


def long_chain_reference(chain: ChainOutput) -> ReferenceReport:
    """Ordinary estimates of all coordinate means from one long sampled chain.

    asvar is each coordinate mean's batch-means asymptotic variance over
    max(MIN_BATCH_COUNT, floor(sqrt(N))) batches, and the intervals are
    mean +- 1.96 sqrt(asvar/N).
    """
    N = chain.length
    point = chain.draws.mean(axis=0)
    asvar = batch_means_asvar(chain.draws, _default_batch_count(N))
    half = 1.96 * np.sqrt(asvar / N)
    return ReferenceReport(
        point=point,
        lower=point - half,
        upper=point + half,
        length=N,
        asvar=asvar,
    )
