"""Samplers producing chains with the log-density gradient at every draw.

Every retained draw carries grad log pi evaluated at that draw, so the
control variate stage never re-touches the model.  Random-walk Metropolis
stores draws only in its loop; its gradients are a function of the draws
alone, and chain_gradients computes them for a list of chains with one call
of the model's batch form grad_log_density((m, d)) (a model whose batch form
needs (m, n) temporaries bounds them itself).  The call takes each row that
differs from the row before it in its chain, and every other row copies the
gradient of the row it repeats.  A random-walk chain sampled with
compute_gradients calls it on itself after its loop; a study's replication
samples its chains without gradients and calls it once on all of them
(defers_gradients says which sampler's chains allow that).  The probit
Gibbs sampler takes its gradients from its own sweeps: the sweep after a
retained draw computes that draw's signed linear predictor s_i x_i'beta and
its log Phi, and ProbitTarget.grad_from_predictor turns blocks of
_GIBBS_GRADIENT_ROWS such rows into gradient rows.
Random-walk Metropolis validates each proposal once, by calling log_density
and reading SupportError as a rejection.  Every random-walk chain takes its
start and its geometry from one pilot Gaussian N(m, Sigma):
SamplerConfig.pilot_mean and pilot_cov when they are set, else the model's
default_pilot().  resolve_pilot checks either and turns it into (m, A, P)
with one Cholesky of Sigma.  The chain starts at m, where start_log_density
takes its log-density and names the start and the failed bound when m is
outside the support; a Gibbs chain starts at zeros (chain_start states
both).  The random walk has one move rule: step k proposes x + A z_k with
the lower-triangular A = s chol(Sigma), s = proposal_scale or 2.38/sqrt(d)
(Roberts, Gelman & Gilks 1997).  It has one step rule: it screens each
proposal with the pilot and calls log_density, as
ChainOutput.log_density_calls counts, only for proposals that pass (delayed
acceptance, Christen & Fox 2005); the chain still leaves pi invariant.
All randomness comes from SamplerConfig.seed: both samplers spawn two numpy
Generators from SeedSequence(seed) (_streams), one for normals and one for
uniforms, and draw each in blocks, random-walk Metropolis of _RNG_BLOCK
steps and Gibbs of _GIBBS_UNIFORMS // n sweeps (the draws do not depend on
the block sizes).
Identical configs give bit-identical output.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .models import ProbitTarget, SupportError, special

__all__ = [
    "SamplerConfig",
    "ChainOutput",
    "rw_metropolis",
    "gibbs_probit",
    "sample_chain",
]

# steps per block of random-walk normals and uniforms; the chain's draws are
# the same for any block size
_RNG_BLOCK = 4096
# uniforms per block of probit Gibbs sweeps, _GIBBS_UNIFORMS // n sweeps of n
# (at least one): 512 KB, a block of 327 sweeps on the 200-row design
_GIBBS_UNIFORMS = 1 << 16
# retained draws whose gradients the Gibbs sampler computes in one call
_GIBBS_GRADIENT_ROWS = 64


def is_integer(value) -> bool:
    """The package's one integer rule: an integral number that is not a bool.

    3 and 3.0 pass; True, "3", None, NaN and infinities do not.
    """
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def checked_integer(name, value, least, error=ValueError) -> int:
    """int(value) when it passes is_integer and is >= least; else error naming name and repr(value)."""
    if not (is_integer(value) and value >= least):
        what = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise error(f"{name} must be {what}, got {value!r}")
    return int(value)


@dataclass
class SamplerConfig:
    """Chain length bookkeeping.

    length    retained draws after burn-in and thinning, >= 1
    burn_in   discarded initial steps, >= 0
    seed      u64 seed of the chain's random numbers: each sampler draws
              its normals from the first and its uniforms from the second
              Generator of SeedSequence(seed).spawn(2)
    proposal_scale  s > 0 (checked_scale): the random walk steps by
                 s * chol(Sigma) z, the factor A of resolve_pilot; None
                 means s = 2.38/sqrt(d)
    pilot_mean, pilot_cov  mean m (d entries) and covariance Sigma (d x d,
                 symmetric positive definite) of a pilot chain, the Gaussian
                 whose mean a random walk starts at and that it screens
                 proposals with and steps by; both None (the model's
                 default_pilot()) or both set; resolve_pilot checks them.
                 A Gibbs chain starts at zeros
    thin      keep every thin-th post-burn-in step; the chain advances
              burn_in + length * thin steps in total
    compute_gradients  True computes grad log pi at every retained draw
              (see the module docstring); False skips it (the output then
              cannot feed the control variate stage until chain_gradients
              gives it its gradients)
    """

    length: int
    burn_in: int = 0
    seed: int = 0
    proposal_scale: float | None = None
    pilot_mean: np.ndarray | None = None
    pilot_cov: np.ndarray | None = None
    thin: int = 1
    compute_gradients: bool = True

    def __post_init__(self):
        for name, least in (("length", 1), ("burn_in", 0), ("thin", 1)):
            setattr(self, name, checked_integer(name, getattr(self, name), least))
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a u64, got {self.seed!r}")
        self.seed = int(self.seed)
        self.proposal_scale = checked_scale(self.proposal_scale)


@dataclass(frozen=True)
class ChainOutput:
    """Immutable chain: draws (N, d), gradients (N, d) aligned row by row.

    A chain sampled with compute_gradients=False carries a (0, d) gradients
    array; has_gradients distinguishes the two.  log_density_calls counts
    the model's log_density calls made by the chain's steps, burn-in
    included and the check of the start excluded: one per proposal that
    passes the screen, none for Gibbs.  gradient_rows counts the gradient
    rows computed for it: a random-walk chain's rows that differ from the
    row before them (chain_gradients), every draw of a Gibbs chain, and 0
    for a chain without gradients.
    """

    draws: np.ndarray
    gradients: np.ndarray
    accept_rate: float
    log_density_calls: int = 0
    gradient_rows: int = 0

    def __post_init__(self):
        self.draws.setflags(write=False)
        self.gradients.setflags(write=False)

    @property
    def length(self):
        return self.draws.shape[0]

    @property
    def dimension(self):
        return self.draws.shape[1]

    @property
    def has_gradients(self):
        return self.gradients.shape[0] == self.draws.shape[0]


# ---------------------------------------------------------------------------
# random walk Metropolis-Hastings


def checked_scale(proposal_scale):
    """proposal_scale as a float, or None when it is unset; ValueError unless
    it is unset or a finite number > 0."""
    if proposal_scale is None:
        return None
    if not (isinstance(proposal_scale, numbers.Real) and not isinstance(proposal_scale, bool)
            and math.isfinite(proposal_scale) and proposal_scale > 0):
        raise ValueError(f"proposal_scale must be a finite number > 0, got {proposal_scale!r}")
    return float(proposal_scale)


def _finite_array(name, value, shape, what, model):
    """value as a float array of the given shape; ValueError naming name unless it is one, all finite."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != shape or not np.all(np.isfinite(array)):
        shown = value if array is None else array.tolist()
        raise ValueError(f"{name} must be {what} for model {model.tag}, got {shown!r}")
    return array


def resolve_pilot(model, mean, cov, proposal_scale=None):
    """(m, A, P) of the random walk's pilot Gaussian N(m, Sigma), the given
    mean and cov or model.default_pilot() when neither is set: the mean m,
    the lower-triangular step factor A = s chol(Sigma) and the precision
    P = Sigma^-1.  s is proposal_scale (as checked_scale returns it), or
    2.38/sqrt(d) when it is None.

    ValueError naming the key unless both are set or both are None, m has d
    finite entries and Sigma is a finite, symmetric, positive definite d x d
    matrix; the Cholesky factorization that gives A is the positive
    definiteness check.  P is symmetrized, so it is exactly symmetric.
    """
    d = model.dimension
    if mean is None and cov is None:
        mean, cov = model.default_pilot()
    elif mean is None or cov is None:
        missing = "pilot_mean" if mean is None else "pilot_cov"
        raise ValueError(f"pilot_mean and pilot_cov must be set together; {missing} is not")
    m = _finite_array("pilot_mean", mean, (d,), f"{d} finite numbers", model)
    sigma = _finite_array("pilot_cov", cov, (d, d), f"a {d} x {d} matrix of finite numbers", model)
    if not np.array_equal(sigma, sigma.T):
        raise ValueError("pilot_cov must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("pilot_cov must be positive definite") from None
    scale = 2.38 / math.sqrt(d) if proposal_scale is None else proposal_scale
    precision = np.linalg.inv(sigma)
    return m, scale * chol, 0.5 * (precision + precision.T)


def start_log_density(model, x, pilot_mean):
    """log pi at x, a random walk's start: the mean of its resolve_pilot.
    SupportError names the start, pilot_mean when it is set and the default
    pilot mean otherwise, and the bound x fails."""
    try:
        return model.log_density(x)
    except SupportError as exc:
        key = "pilot_mean" if pilot_mean is not None else "the default pilot mean"
        raise SupportError(f"{key} {x.tolist()} is outside the support of {model.tag}: "
                           f"{exc}") from None


def chain_start(model, method, pilot_mean=None, pilot_cov=None):
    """(x, log pi(x)) at the start of a chain of sampler method: the zeros a
    "gibbs" chain starts at, or the mean of resolve_pilot(model, pilot_mean,
    pilot_cov) that an "rwmh" chain starts at, through start_log_density.
    build_model checks a config's start with it before any sampling."""
    if method == "gibbs":
        x = np.zeros(model.dimension)
        return x, model.log_density(x)
    x = resolve_pilot(model, pilot_mean, pilot_cov)[0]
    return x, start_log_density(model, x, pilot_mean)


def defers_gradients(method) -> bool:
    """True when the chains of sampler method take their gradients from a
    later chain_gradients call: random-walk Metropolis, whose gradients are a
    function of its draws.  A Gibbs chain takes them from its own sweeps."""
    return method == "rwmh"


def chain_gradients(model, chains):
    """The chains again, each with grad log pi at every row of its draws,
    from one call of the model's batch gradient.

    A row gets its own gradient when its bits differ from those of the row
    before it in its chain; row 0 always does.  The call takes those rows of
    every chain, in chain order, and every other row copies the gradient of
    the row before it, which it equals: the gradient is a function of the
    row.  Each returned chain's gradient_rows counts its own rows.
    """
    own = []
    for chain in chains:
        bits = np.ascontiguousarray(chain.draws).view(np.int64)
        own.append(np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1))))
    grads = model.grad_log_density(np.concatenate([c.draws[k] for c, k in zip(chains, own)]))
    out, start = [], 0
    for chain, k in zip(chains, own):
        rows = int(np.count_nonzero(k))
        out.append(replace(chain, gradients=grads[start:start + rows][np.cumsum(k) - 1],
                           gradient_rows=rows))
        start += rows
    return out


def _streams(seed):
    """A chain's two Generators: normals, then uniforms."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def rw_metropolis(model, config: SamplerConfig) -> ChainOutput:
    """Gaussian random walk Metropolis-Hastings on the model's support.

    The pilot q = N(m, Sigma), P = Sigma^-1, and the step factor
    A = s chol(Sigma) come from resolve_pilot: the config's pilot_mean,
    pilot_cov and proposal_scale, else the model's default_pilot().  The
    chain starts at m, checked by start_log_density.  Step k proposes
    y = x + v_k, v_k = A z_k, where z_k is row k of the first stream's
    normals, and reads u_k, the k-th uniform of the second (see _streams);
    every step takes one of each, whether it needs the uniform or not.
    v_k is the sum of z_kj times column j of A over j = 0, 1, ... in order.

    Let dq = log q(y) - log q(x) = -(x - m).(P v_k) - v_k.(P v_k) / 2.  The
    step accepts iff

        log u_k < min(0, dq) + min(0, log pi(y) - log pi(x) - dq),

    with probability min(1, q(y)/q(x)) min(1, pi(y) q(x) / (pi(x) q(y))):
    the delayed-acceptance kernel, which leaves pi invariant.  When
    log u_k >= min(0, dq) the step rejects without calling log_density, so
    only the proposals that pass the screen pay for the likelihood; the one
    uniform serves both stages.  In floating point, P v_k is the sum of v_kj
    times row j of P and v_k.(P v_k) the sum of v_kj (P v_k)_j, both over
    j = 0, 1, ... in order; the second is then halved.  (x - m).(P v_k) is math.fsum of the d
    products, x - m is taken at the start and after every accepted move,
    and every expression is evaluated left to right as written.

    A proposal outside the support (log_density raises SupportError), or
    whose log-density underflows to -inf, has difference -inf and is never
    accepted, even when u_k = 0; NaN log-density is fatal.  The acceptance
    rate, the share of steps that move, is measured over the retained phase.
    The loop stores only draws.  With config.compute_gradients the chain
    then takes its gradients from chain_gradients, one batch call on its
    rows that differ from the row before them; without, a study's
    replication passes it to chain_gradients with its other chains.
    """
    normals, uniforms = _streams(config.seed)
    d = model.dimension
    mean, factor, precision = resolve_pilot(model, config.pilot_mean, config.pilot_cov,
                                            config.proposal_scale)
    factor = factor.T
    x = mean
    logp = start_log_density(model, x, config.pilot_mean)
    if not np.isfinite(logp):
        raise FloatingPointError(f"non-finite log-density {logp} at the start {x}")
    xc = (x - mean).tolist()

    draws = np.empty((config.length, d))
    burn_in = config.burn_in
    thin = config.thin
    retained_accepts = 0
    calls = 0
    retained_steps = config.length * thin
    total = burn_in + retained_steps
    # the loop runs on locals, which saves an attribute or global lookup per
    # name per step
    log_density = model.log_density
    fsum = math.fsum
    neg_inf = -math.inf
    i = 0
    next_kept = burn_in  # the step whose state is retained draw i

    for start in range(0, total, _RNG_BLOCK):
        n = min(_RNG_BLOCK, total - start)
        # one (n, d) block of normals gives the steps' moves A z, each the
        # sum of z_j times column j of A in order of j: elementwise, not a
        # dgemm, whose rounding can depend on n.  The log-uniforms become
        # Python floats, so the accept test compares floats.  np.log, not
        # math.log: the two differ in the last bit on some uniforms
        z = normals.standard_normal((n, d))
        moves = z[:, :1] * factor[0]
        for j in range(1, d):
            moves += z[:, j:j + 1] * factor[j]
        log_u = np.log(uniforms.random(n)).tolist()
        # each move's P v and v.(P v) / 2, by elementwise operations in the
        # order the docstring states, so no row depends on the block
        pd = moves[:, :1] * precision[0]
        for j in range(1, d):
            pd += moves[:, j:j + 1] * precision[j]
        halves = moves[:, 0] * pd[:, 0]
        for j in range(1, d):
            halves += moves[:, j] * pd[:, j]
        halves *= 0.5
        # the rows of P v as d-tuples of one flat list: a list of row lists
        # would hold a block's worth of containers at once and set off the
        # garbage collector, whose full pass in a forked pool worker touches
        # every page the worker shares with its parent
        screens = zip(zip(*[iter(pd.ravel().tolist())] * d), halves.tolist())
        for step, move, lu, (pdk, half) in zip(range(start, start + n), moves, log_u, screens):
            dq = -fsum(map(mul, xc, pdk)) - half
            first = dq if dq < 0.0 else 0.0
            if lu < first:
                prop = x + move
                calls += 1
                try:
                    lp = log_density(prop)
                except SupportError:
                    lp = neg_inf
                # log_density returns a Python float, and NaN is the one
                # float unequal to itself: cheaper than calling math.isnan
                if lp != lp:
                    raise FloatingPointError(f"NaN log-density at proposal {prop}")
                diff = lp - logp - dq
                diff = first + (diff if diff < 0.0 else 0.0)
                if lu < diff:
                    x = prop
                    logp = lp
                    xc = (x - mean).tolist()
                    if step >= burn_in:
                        retained_accepts += 1
            if step == next_kept:
                draws[i] = x
                i += 1
                next_kept += thin

    chain = ChainOutput(draws=draws, gradients=np.empty((0, d)),
                        accept_rate=retained_accepts / retained_steps, log_density_calls=calls)
    return chain_gradients(model, [chain])[0] if config.compute_gradients else chain


# ---------------------------------------------------------------------------
# probit Gibbs (latent variable data augmentation)


def gibbs_probit(model: ProbitTarget, config: SamplerConfig) -> ChainOutput:
    """Gibbs sampler for the flat-prior probit posterior.

    Latent u_i ~ N(x_i'beta, 1) truncated to (0, inf) when y_i = 1 and to
    (-inf, 0) when y_i = 0, then beta ~ N((X'X)^{-1} X'u, (X'X)^{-1}).
    X'X, (X'X)^{-1} and the sign-folded design come from the model.
    Sweep k takes the k-th n uniforms of the second stream for its latents
    and the k-th d normals z_k of the first for its noise chol((X'X)^{-1}) z_k
    (see _streams).  Both are drawn in blocks of _GIBBS_UNIFORMS // n sweeps,
    and the draws do not depend on that size.
    The gradient at a draw needs st = s_design beta and log Phi(st), which
    the next sweep computes anyway.  A sweep that follows a retained draw
    writes them into a row of two (_GIBBS_GRADIENT_ROWS, n) buffers; each
    full block, and the last partial one, goes through
    model.grad_from_predictor, and grad_log_density is never called.  The
    pair is computed once more after the last sweep, for the last draw.
    """
    if model.tag != "probit":
        raise ValueError(f"gibbs sampling is implemented for probit only, got {model.tag}")
    if config.proposal_scale is not None:
        raise ValueError("gibbs_probit does not take a proposal_scale")
    if config.pilot_mean is not None or config.pilot_cov is not None:
        raise ValueError("gibbs_probit does not take a pilot")
    normals, uniforms = _streams(config.seed)
    s_design = model.s_design
    n, d = s_design.shape
    try:
        np.linalg.cholesky(model.xtx)
    except np.linalg.LinAlgError:
        raise ValueError("design is numerically rank deficient") from None
    chol_cov = np.linalg.cholesky(model.xtx_inv)
    # y = 1 truncates the latent below at 0, y = 0 above at 0: with t = X beta,
    # latent = t + s z, where z = -q, q = ndtri_exp(log_ndtr(s t) + log1p(-u)),
    # is a standard normal conditioned on (-s t, inf), drawn through the
    # survival function in log space.  With s = sign folded into the design
    # and the projection, a sweep works on s * latent = s t - q; multiplying
    # by +-1 is exact, so the draws equal those of the unfolded latent
    s_proj = model.xtx_inv @ s_design.T
    # bound once per chain, so the sweep pays no attribute lookup
    log_ndtr, ndtri_exp = special.log_ndtr, special.ndtri_exp

    beta = np.zeros(d)
    length, burn_in, thin = config.length, config.burn_in, config.thin
    total = burn_in + length * thin
    draws = np.empty((length, d))
    # (st, log Phi(st)) rows of retained draws whose gradients are pending
    block = min(_GIBBS_GRADIENT_ROWS, length) if config.compute_gradients else 0
    st_rows = np.empty((block, n))
    log_phi_rows = np.empty((block, n))
    gradients = np.empty((length if block else 0, d))
    st_free = st = np.empty(n)
    log_phi_free = log_phi = np.empty(n)
    # ndarray.dot makes the same cblas_dgemv call as @, so the draws are
    # those of the @ form bit for bit
    s_design.dot(beta, out=st)
    log_ndtr(st, out=log_phi)
    sweeps = max(1, _GIBBS_UNIFORMS // n)
    for start in range(0, total, sweeps):
        m = min(sweeps, total - start)
        # log1p(-u) for the whole block in one pass.  The stacked matmul
        # makes one dgemv per row, the call chol_cov.dot(z_k) makes; an
        # (m, d) @ chol_cov.T dgemm can round differently, and differently
        # for different m
        log_v = uniforms.random((m, n))
        np.negative(log_v, out=log_v)
        np.log1p(log_v, out=log_v)
        noise = np.matmul(chol_cov, normals.standard_normal((m, d))[:, :, None])[:, :, 0]
        for step, q, z in zip(range(start, start + m), log_v, noise):
            q += log_phi
            ndtri_exp(q, out=q)
            np.subtract(st, q, out=q)
            beta = s_proj.dot(q)
            beta += z
            offset = step - burn_in
            kept = offset >= 0 and offset % thin == 0
            if kept:
                i = offset // thin
                draws[i] = beta
            # the next sweep's st and log Phi(st) belong to this draw: a
            # kept draw gets a buffer row.  After the last sweep they are
            # needed only when its draw is kept
            record = kept and block > 0
            if record:
                r = i % block
                st, log_phi = st_rows[r], log_phi_rows[r]
            else:
                st, log_phi = st_free, log_phi_free
            s_design.dot(beta, out=st)
            log_ndtr(st, out=log_phi)
            if record and (r == block - 1 or i == length - 1):
                gradients[i - r:i + 1] = model.grad_from_predictor(st_rows[:r + 1],
                                                                   log_phi_rows[:r + 1])

    return ChainOutput(draws=draws, gradients=gradients, accept_rate=1.0,
                       gradient_rows=gradients.shape[0])


def sample_chain(model, config: SamplerConfig, method: str = "rwmh") -> ChainOutput:
    """Dispatch on sampler method; "gibbs" is probit only."""
    if method == "rwmh":
        return rw_metropolis(model, config)
    if method == "gibbs":
        return gibbs_probit(model, config)
    raise ValueError(f"unknown sampler method {method!r}, expected 'rwmh' or 'gibbs'")
