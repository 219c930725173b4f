"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals: finite
differences instead of analytic gradients, quadrature instead of sampling,
explicit loops instead of vectorized identities.
"""

import numpy as np
from scipy import integrate
from scipy.special import expit, log_ndtr, ndtr, ndtri, ndtri_exp


def in_git_checkout():
    """True inside a git checkout with a HEAD commit, for the scripts that compare revisions."""
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "--verify", "HEAD"],
                              capture_output=True, timeout=30).returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False


def head_checkout_with_these_scripts(into):
    """A clone of this checkout's HEAD at into, with the working tree's scripts copied in.

    The clone shares the repository's objects (git clone --shared) and
    writes nothing to the repository.  A script run from the clone with
    --rev HEAD compares HEAD with HEAD, so its identity checks hold whatever
    uncommitted changes the working tree carries, while the scripts under
    test are the working tree's.
    """
    import shutil
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    clone = Path(into)
    subprocess.run(["git", "clone", "--quiet", "--shared", str(root), str(clone)],
                   capture_output=True, check=True, timeout=120)
    for script in (root / "scripts").glob("*.py"):
        shutil.copy(script, clone / "scripts" / script.name)
    return clone


def run_fresh(code, stdin=b""):
    """Run code in a fresh interpreter that imports this checkout's zvmcmc.

    stdin goes to the interpreter as bytes; returns its CompletedProcess,
    with stdout as bytes, and raises if it exits nonzero.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)


def fd_gradient(fn, x, rel_h=1e-5):
    """Central finite-difference gradient with per-coordinate relative step.

    The absolute floor keeps the step nonzero at the origin; the relative part
    keeps it small next to support boundaries at tiny coordinate scales.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        h = rel_h * abs(x[j]) + 1e-8
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        out[j] = (fn(hi) - fn(lo)) / (2.0 * h)
    return out


def quad_expectation(integrand, log_density, lo, hi):
    """E[integrand(x)] under the density exp(log_density) on (lo, hi).

    Normalizes explicitly so the oracle works for unnormalized targets.
    """

    def w(x):
        return np.exp(log_density(np.array([x])))

    z, _ = integrate.quad(w, lo, hi, limit=200)
    num, _ = integrate.quad(lambda x: integrand(x) * w(x), lo, hi, limit=200)
    return num / z


def ar1_series(rho, sigma, length, seed):
    """Stationary AR(1) draws; asymptotic variance sigma^2 (1+rho)/(1-rho)."""
    rng = np.random.default_rng(seed)
    innov_sd = sigma * np.sqrt(1.0 - rho * rho)
    x = np.empty(length)
    x[0] = rng.normal(0.0, sigma)
    for t in range(1, length):
        x[t] = rho * x[t - 1] + rng.normal(0.0, innov_sd)
    return x


def hand_control_variate(alpha, x, z):
    """Single-monomial control variate evaluated by the defining sum.

    alpha is the exponent vector, x one draw, z = -grad(log pi)/2 at x.
    Written as the literal formula, term by term, as an oracle for the
    vectorized implementation.
    """
    alpha = np.asarray(alpha, dtype=int)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j in range(alpha.size):
        if alpha[j] == 0:
            continue
        down = alpha.copy()
        down[j] -= 1
        total += alpha[j] * np.prod(x**down) * z[j]
        if alpha[j] >= 2:
            down2 = alpha.copy()
            down2[j] -= 2
            total -= 0.5 * alpha[j] * (alpha[j] - 1) * np.prod(x**down2)
    return total


def reference_control_variates(chain, basis, center=None, scale=None):
    """G written one column at a time by the defining sum, an oracle for
    eval_control_variates that must agree bit for bit.

    Column alpha starts from 0 and adds, for each j with alpha_j > 0 in
    order of j, alpha_j times z_j x_0^e_0 x_1^e_1 ... (e = alpha with
    e_j - 1, every factor x^0 = 1 included), then, when alpha_j >= 2,
    -alpha_j (alpha_j - 1) / 2 times x_0^e_0 x_1^e_1 ... (e = alpha with
    e_j - 2), each product taken left to right.  x^e is 1 times x, e times.
    x and z are those of the standardized chain when center or scale is set.
    """
    x = np.array(chain.draws, dtype=float)
    z = -0.5 * chain.gradients
    d = x.shape[1]
    if center is not None or scale is not None:
        c = np.zeros(d) if center is None else np.broadcast_to(np.asarray(center, float), (d,))
        s = np.ones(d) if scale is None else np.broadcast_to(np.asarray(scale, float), (d,))
        x = (x - c) / s
        z = z * s

    def power(k, e):
        out = np.ones(x.shape[0])
        for _ in range(e):
            out = out * x[:, k]
        return out

    G = np.empty((x.shape[0], basis.size))
    for col, alpha in enumerate(basis.active):
        nz = [j for j in range(d) if alpha[j] > 0]
        column = np.zeros(x.shape[0])
        for j in nz:
            term = z[:, j].copy()
            for k in nz:
                term = term * power(k, alpha[k] - (k == j))
            column = column + alpha[j] * term
            if alpha[j] >= 2:
                term = np.full(x.shape[0], -0.5 * alpha[j] * (alpha[j] - 1))
                for k in nz:
                    term = term * power(k, alpha[k] - 2 * (k == j))
                column = column + term
        G[:, col] = column
    return G


def reference_rw_metropolis(model, config):
    """Random-walk Metropolis written as a plain per-step loop, an oracle for
    the sampler's optimised loop.

    The two generators are spawned from SeedSequence(config.seed).  Each
    step draws one normal row z from the first and one uniform u from the
    second, without blocks; the proposal is y = x + v, v = A z, where A is
    the package's resolve_proposal factor and v = z_0 A[:, 0] + z_1 A[:, 1]
    + ..., summed in order of j one step at a time.  With the pilot
    N(m, Sigma), P = Sigma^-1, dq = -(x - m).(P v) - v.(P v) / 2.  The step
    rejects without calling log_density when log u >= min(0, dq), and
    otherwise accepts when log u < min(0, dq) + min(0, log pi(y) - log pi(x)
    - dq).  P v sums v_j times row j of P, and v.(P v) the products
    v_j (P v)_j, in order of j; (x - m).(P v) is math.fsum of its products.
    Retained draws are picked by step % thin.  log_density_calls counts the
    steps' calls, the start's check excluded.  The pilot (the config's or the
    model's default) with its checks, the proposal factor and the start
    point come from the package, so only the loop itself is under test.
    The gradients keep the rule the loop once kept itself: a retained draw
    is marked moved when the chain accepted a proposal since the draw before
    it (row 0 always is), one grad_log_density call takes the moved rows,
    and every other row copies the gradient of the row before it.
    gradient_rows counts the moved rows.
    """
    import math

    from zvmcmc.models import SupportError
    from zvmcmc.samplers import (
        ChainOutput,
        default_start,
        resolve_init,
        resolve_pilot,
        resolve_proposal,
    )

    normal_seed, uniform_seed = np.random.SeedSequence(config.seed).spawn(2)
    normal_rng = np.random.default_rng(normal_seed)
    uniform_rng = np.random.default_rng(uniform_seed)
    d = model.dimension
    mean, sigma, precision = resolve_pilot(model, config.pilot_mean, config.pilot_cov)
    factor = resolve_proposal(config.proposal_scale, sigma)
    x, logp = resolve_init(model, config.init,
                           *default_start(model, "rwmh", config.pilot_mean, config.pilot_cov))
    if not np.isfinite(logp):
        raise FloatingPointError(f"non-finite log-density {logp} at init {x}")

    draws = np.empty((config.length, d))
    moved = np.empty(config.length, dtype=bool)
    since_kept = True
    retained_accepts = 0
    calls = 0
    retained_steps = config.length * config.thin
    total = config.burn_in + retained_steps

    for step in range(total):
        z = normal_rng.standard_normal(d)
        move = z[0] * factor[:, 0]
        for j in range(1, d):
            move = move + z[j] * factor[:, j]
        log_u = np.log(uniform_rng.random())
        pd = move[0] * precision[0]
        for j in range(1, d):
            pd = pd + move[j] * precision[j]
        quad = move[0] * pd[0]
        for j in range(1, d):
            quad = quad + move[j] * pd[j]
        dq = -math.fsum(float(a * b) for a, b in zip(x - mean, pd)) - 0.5 * quad
        accept = False
        if log_u < min(0.0, dq):
            prop = x + move
            calls += 1
            try:
                lp = model.log_density(prop)
            except SupportError:
                lp = -np.inf
            if math.isnan(lp):
                raise FloatingPointError(f"NaN log-density at proposal {prop}")
            accept = log_u < min(0.0, dq) + min(0.0, lp - logp - dq)
        if accept:
            x = prop
            logp = lp
            since_kept = True
            if step >= config.burn_in:
                retained_accepts += 1
        offset = step - config.burn_in
        if offset >= 0 and offset % config.thin == 0:
            i = offset // config.thin
            draws[i] = x
            moved[i] = since_kept
            since_kept = False

    if config.compute_gradients:
        gradients = model.grad_log_density(draws[moved])[np.cumsum(moved) - 1]
    else:
        gradients = np.empty((0, d))
    return ChainOutput(
        draws=draws,
        gradients=gradients,
        accept_rate=retained_accepts / retained_steps,
        log_density_calls=calls,
        gradient_rows=int(np.count_nonzero(moved)) if config.compute_gradients else 0,
    )


def std_lower(a, u):
    """Quantile u of a standard normal conditioned on (a, inf).

    Computed through the survival function in log space, so bounds far beyond
    5 sd stay exact.
    """
    return -ndtri_exp(log_ndtr(-a) + np.log1p(-u))


def _std_two_sided(a, b, u):
    if a >= 0.0:
        la = log_ndtr(-a)
        lb = log_ndtr(-b)
        return -ndtri_exp(la + np.log1p(-u * (-np.expm1(lb - la))))
    if b <= 0.0:
        return -_std_two_sided(-b, -a, 1.0 - u)
    q = ndtr(a) + u * (ndtr(b) - ndtr(a))
    return ndtri(min(q, np.nextafter(1.0, 0.0)))


def truncated_normal_draw(mean, sd, lower, upper, rng) -> float:
    """One draw from N(mean, sd^2) restricted to (lower, upper).

    Inverse-CDF in the numerically stable tail, so one-sided bounds tens of
    standard deviations out are handled without rejection loops.  The probit
    Gibbs sweep draws its latents with the one-sided case, vectorized and
    with the response signs folded in.
    """
    if not (np.isfinite(mean) and np.isfinite(sd) and sd > 0.0):
        raise ValueError(f"need finite mean and sd > 0, got mean={mean}, sd={sd}")
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    a = (lower - mean) / sd
    b = (upper - mean) / sd
    while True:
        u = rng.random()
        if a == -np.inf and b == np.inf:
            z = rng.standard_normal()
        elif b == np.inf:
            z = std_lower(a, u)
        elif a == -np.inf:
            z = -std_lower(-b, u)
        else:
            z = _std_two_sided(a, b, u)
        value = mean + sd * z
        # u == 0 can land exactly on a bound; the interval is open
        if lower < value < upper:
            return float(value)


def garch_variance_path(series, omega):
    """Conditional variance path h_1..h_T of GarchTarget's banded solve at omega.

    Exposes the model's own recursion, for tests that check it against a
    hand loop.
    """
    from zvmcmc import GarchTarget

    model = GarchTarget(series)
    band, h, _ = model._work
    return model._h_path(np.asarray(omega, dtype=float), band, h)


def reference_logit_grad_rows(data, beta):
    """Logit gradient rows (y - expit(X beta)) X at (m, d) rows, with scipy's expit."""
    beta = np.asarray(beta, dtype=float)
    return np.stack([(data.response - expit(data.design @ b)) @ data.design for b in beta])


def reference_garch_grad_rows(model, omega):
    """The likelihood's gradient rows of GarchTarget's batch gradient, written
    with a temporary per step, an oracle for its allocation-free loop.

    The h and dh recursions are stepped on (m,) rows in the same order of
    operations, so the two agree bit for bit.
    """
    series = model.series
    r2 = series.returns**2
    r2_lag = np.concatenate(([0.0], r2[:-1]))
    m = omega.shape[0]
    w1, w2, w3 = (np.ascontiguousarray(c) for c in omega.T)
    h = np.full(m, series.h0)
    dh = np.zeros((3, m))
    grad = np.zeros((3, m))
    forcing = np.empty(m)
    step = np.empty(m)
    for lag, now in zip(r2_lag, r2):
        dh *= w3
        dh[0] += 1.0
        dh[1] += lag
        dh[2] += h
        np.multiply(w2, lag, out=forcing)
        forcing += w1
        h *= w3
        h += forcing
        np.divide(now, h, out=step)
        step -= 1.0
        step /= h
        grad += step * dh
    return 0.5 * grad.T


def reference_demgbp_returns(seed, length):
    """(returns, h0) of the synthetic GARCH(1,1) series drawn one scalar at a
    time with numpy scalars, an oracle for synthetic_demgbp_returns.
    """
    rng = np.random.default_rng(seed)
    om1, om2, om3 = 0.01, 0.15, 0.80
    warmup = 200
    h = om1 / (1.0 - om2 - om3)
    r = 0.0
    out = np.empty(length)
    for t in range(-warmup, length):
        h = om1 + om3 * h + om2 * r * r
        r = np.sqrt(h) * rng.standard_normal()
        if t >= 0:
            out[t] = r
    return out, float(np.var(out, ddof=1))
