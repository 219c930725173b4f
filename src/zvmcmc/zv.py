"""Polynomial control variates and the zero-variance estimator.

For a monomial m(x) the control variate is

    g(x) = -0.5 * laplacian(m)(x) + grad(m)(x) . z(x),   z = -0.5 grad log pi,

which has zero mean under pi whenever the boundary terms of the integration
by parts vanish.  Coefficients a = -Sigma_gg^{-1} sigma_gf are estimated
from centered sample moments (sample covariances), and the renormalized
function is

    ftilde = f + G a.

fit_and_renormalize is the one fit path: every study replication goes through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samplers import ChainOutput, checked_integer, is_integer

__all__ = [
    "InsufficientSampleError",
    "MonomialBasis",
    "ZVFit",
    "monomial_basis",
    "default_exclusions",
    "standardization_from_chain",
    "eval_control_variates",
    "degenerate_columns",
    "fit_coefficients",
    "renormalize",
    "fit_and_renormalize",
]

SUPPORTED_DEGREES = (1, 2, 3)
DEGENERATE_REL_TOL = 1e-12
CONDITION_LIMIT = 1e10
RIDGE_REL = 1e-10


class InsufficientSampleError(RuntimeError):
    """Fewer draws than active control variates, the moment system is singular."""


@dataclass(frozen=True)
class MonomialBasis:
    """Multi-index basis in graded lexicographic order.

    exponents holds every multi-index with 1 <= |alpha| <= degree; excluded
    lists the ones removed for unbiasedness.  The active tuple (their
    difference, order preserved) indexes the control variate columns.
    """

    dimension: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]
    excluded: tuple[tuple[int, ...], ...]

    @property
    def active(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a for a in self.exponents if a not in self.excluded)

    @property
    def size(self) -> int:
        return len(self.exponents) - len(self.excluded)


def _compositions(d, total):
    # lexicographically descending within one grade
    if d == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _compositions(d - 1, total - k):
            yield (k,) + rest


def monomial_basis(dimension: int, degree: int, exclusions=()) -> MonomialBasis:
    """All monomials of total degree 1..degree in the stated order.

    The full basis has C(dimension + degree, dimension) - 1 elements before
    exclusions.  Each exclusion must name an exponent tuple that exists.
    """
    dimension = checked_integer("dimension", dimension, 1)
    if not is_integer(degree) or degree not in SUPPORTED_DEGREES:
        raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}, got {degree!r}")
    degree = int(degree)
    exponents = tuple(
        alpha for total in range(1, degree + 1) for alpha in _compositions(dimension, total)
    )
    # duplicates dropped, first occurrences kept in order
    cleaned = tuple(dict.fromkeys(tuple(int(k) for k in e) for e in exclusions))
    for e in cleaned:
        if e not in exponents:
            raise ValueError(f"exclusion {e} is not a basis exponent for d={dimension}, p={degree}")
    return MonomialBasis(dimension, degree, exponents, cleaned)


def default_exclusions(model) -> tuple[tuple[int, ...], ...]:
    """Pure first-degree monomials dropped for boundary-constrained coordinates.

    One-sided supports with positive density at the boundary (exponential,
    gamma) leak a boundary term through the linear monomial, so models flag
    those coordinates and everything else keeps the full basis.
    """
    return tuple(tuple(int(i == j) for i in range(model.dimension))
                 for j in model.constrained_coordinates)


def standardization_from_chain(chain: ChainOutput, uncentered=()):
    """Per-coordinate center and scale for conditioning the moment system.

    Coordinates with zero sample spread keep scale 1 so constant directions
    stay untouched.  Coordinates listed in uncentered keep center 0: pass a
    model's constrained_coordinates, whose boundary term default_exclusions
    removes only from monomials in the uncentered coordinate.
    """
    center = chain.draws.mean(axis=0)
    center[list(uncentered)] = 0.0
    scale = chain.draws.std(axis=0, ddof=1) if chain.length > 1 else np.ones(chain.dimension)
    scale = np.where(scale > 0.0, scale, 1.0)
    return center, scale


def eval_control_variates(
    chain: ChainOutput, basis: MonomialBasis, center=None, scale=None
) -> np.ndarray:
    """G, the (N, K) control variates on the chain, one column per basis.active entry.

    With center/scale the monomials are taken in x' = (x - center)/scale and
    the gradient term is rescaled accordingly; that is the same method applied
    to the affinely transformed chain, whose target is the transformed
    density, so every column keeps zero mean while the moment system stays
    far better conditioned when coordinate scales differ wildly.
    """
    if chain.dimension != basis.dimension:
        raise ValueError(
            f"chain dimension {chain.dimension} does not match basis dimension {basis.dimension}"
        )
    if not chain.has_gradients:
        raise ValueError("chain was sampled without gradients; control variates need them")
    X = chain.draws
    Z = -0.5 * chain.gradients
    N, d = X.shape
    if center is not None or scale is not None:
        c = np.zeros(d) if center is None else np.broadcast_to(np.asarray(center, float), (d,))
        s = np.ones(d) if scale is None else np.broadcast_to(np.asarray(scale, float), (d,))
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s)) and np.all(s > 0.0)):
            raise ValueError("center must be finite and scale finite positive")
        X = (X - c) / s
        # z of the transformed density: z'_j = scale_j * z_j
        Z = Z * s
    # contiguous rows per coordinate, and its powers 1..degree, reused
    # across columns; power 0 is never formed
    Z = np.ascontiguousarray(Z.T)
    pw = [[None, np.ascontiguousarray(x)] for x in X.T]
    for j in range(d):
        for k in range(1, basis.degree):
            pw[j].append(pw[j][k] * pw[j][1])

    def factors(alpha, j, down):
        # x_k^(alpha_k - down [k = j]) in order of k, leaving out x^0 = 1
        return [pw[k][a - down * (k == j)] for k, a in enumerate(alpha) if a - down * (k == j)]

    # Column alpha is the sum over j with alpha_j > 0, in order of j, of
    # alpha_j z_j prod_k x_k^(alpha_k - [k = j]), each followed when
    # alpha_j >= 2 by -alpha_j (alpha_j - 1) / 2 prod_k x_k^(alpha_k - 2 [k = j]),
    # every product taken left to right.  Multiplying by 1 is exact, so the
    # factors x^0 and alpha_j = 1 are left out, and the column starts from
    # its first term instead of 0 + that term; one work array takes the rest
    active = basis.active
    G = np.empty((len(active), N))
    work = np.empty(N)
    for col, alpha in enumerate(active):
        acc = G[col]
        for n, j in enumerate(j for j in range(d) if alpha[j] > 0):
            term = work if n else acc
            np.copyto(term, Z[j])
            for factor in factors(alpha, j, 1):
                term *= factor
            if alpha[j] != 1:
                term *= alpha[j]
            if n:
                acc += work
            if alpha[j] >= 2:
                half = -0.5 * alpha[j] * (alpha[j] - 1)
                rest = factors(alpha, j, 2)
                if not rest:
                    acc += half
                    continue
                np.multiply(rest[0], half, out=work)
                for factor in rest[1:]:
                    work *= factor
                acc += work
    # back to (N, K) rows; adding 0.0 turns a -0.0 into 0.0, as the sum from
    # 0 does, so G equals that sum bit for bit
    return np.add(G.T, 0.0, out=np.empty((N, len(active))))


def degenerate_columns(G) -> np.ndarray:
    """(K,) flags of the columns of an (N, K) G whose variance is at most
    DEGENERATE_REL_TOL times their mean square, both as sums over the N rows:
    fit_coefficients drops these columns, cv_zero_mean_test gives them no z-score.
    """
    return _moments(G)[2]


def _moments(G):
    """(centered copy Gc, Gram matrix Gc'Gc, degenerate_columns flags) of an (N, K) G.

    A column's sum of squares about its mean is its diagonal entry of the
    Gram matrix, and its sum of squares that plus N mean^2.
    """
    g_mean = G.mean(axis=0)
    Gc = G - g_mean
    gram = Gc.T @ Gc
    centered = np.diag(gram)
    degenerate = centered <= DEGENERATE_REL_TOL * (centered + G.shape[0] * g_mean**2)
    return Gc, gram, degenerate


@dataclass(frozen=True)
class ZVFit:
    """Fitted coefficients plus the conditioning evidence.

    coefficients has one row per active basis element, zeros at dropped
    (degenerate) columns; it is (K,) for an (N,) f and (K, m) for an (N, m) f.
    condition_estimate is the eigenvalue ratio of the equilibrated kept block
    of Sigma_gg before any ridge; it and the other flags depend on G only.
    """

    coefficients: np.ndarray
    condition_estimate: float
    dropped_columns: tuple[int, ...]
    ridge_applied: bool = False


def fit_coefficients(G, f_values) -> ZVFit:
    """Solve a = -Sigma_gg^{-1} sigma_gf from centered sample moments.

    G is the (N, K) control variate array and f_values is (N,) or (N, m);
    Sigma_gg does not depend on f, so the m columns share one solve and each
    gets the coefficients of its own fit.
    Columns that degenerate_columns flags are dropped with zero coefficient.
    The kept system is equilibrated to unit diagonal before solving;
    equilibration only reorders the floating point work and leaves the
    solution unchanged in exact arithmetic.  A condition estimate above
    CONDITION_LIMIT triggers one ridge refit with RIDGE_REL * trace/K on the
    diagonal, flagged on the result.
    """
    f = np.asarray(f_values, dtype=float)
    N, K = G.shape
    if f.ndim not in (1, 2) or f.shape[0] != N:
        raise ValueError(f"f_values must have shape ({N},) or ({N}, m), got {f.shape}")
    if not np.all(np.isfinite(G)) or not np.all(np.isfinite(f)):
        raise ValueError("control variates and f values must be finite")

    # Centered sample moments.  E[g] = 0 under pi, so covariances and raw
    # second moments agree in population; in finite samples the raw-moment
    # solve lets the regression cancel part of the nonzero mean of f against
    # chance fluctuations of the g means, badly distorting the coefficients.
    Gc, gram, dropped = _moments(G)
    fc = f - f.mean(axis=0)
    sigma_gg = gram / N
    sigma_gg = 0.5 * (sigma_gg + sigma_gg.T)
    sigma_gf = (Gc.T @ fc) / N

    keep = ~dropped
    coefficients = np.zeros((K,) + f.shape[1:])
    condition, ridge_applied = 1.0, False

    if keep.any():
        ka = int(keep.sum())
        if N <= ka:
            raise InsufficientSampleError(
                f"{N} draws cannot identify {ka} control variate coefficients"
            )
        S = sigma_gg[np.ix_(keep, keep)]
        d = np.sqrt(np.diag(S))
        Se = S / np.outer(d, d)
        # per-row scalings broadcast over the m right-hand sides of an (N, m) f
        rows = (slice(None),) + (None,) * (f.ndim - 1)
        se = sigma_gf[keep] / d[rows]
        w, V = np.linalg.eigh(Se)
        condition = float(w[-1] / w[0]) if w[0] > 0.0 else np.inf
        if condition > CONDITION_LIMIT:
            lam = RIDGE_REL * float(np.trace(Se)) / ka
            w = w + lam
            ridge_applied = True
        ae = -V @ ((V.T @ se) / w[rows])
        coefficients[keep] = ae / d[rows]

    return ZVFit(
        coefficients=coefficients,
        condition_estimate=condition,
        dropped_columns=tuple(int(i) for i in np.flatnonzero(dropped)),
        ridge_applied=ridge_applied,
    )


def renormalize(f_values, G, fit: ZVFit) -> np.ndarray:
    """ftilde = f + G a, same mean as f under pi, hopefully far less variance.

    G is the (N, K) control variate array; f_values is (N,) or (N, m), as it
    was passed to fit_coefficients.
    """
    f = np.asarray(f_values, dtype=float)
    expected = G.shape[:1] + fit.coefficients.shape[1:]
    if f.shape != expected:
        raise ValueError(f"f_values must have shape {expected}, got {f.shape}")
    if fit.coefficients.shape[0] != G.shape[1]:
        raise ValueError("fit and control variates disagree on column count")
    return f + G @ fit.coefficients


def fit_and_renormalize(fit_chain: ChainOutput, eval_chain: ChainOutput, bases, f_fit, f_eval,
                        center=None, scale=None) -> dict:
    """{degree: (fit, ftilde)}: coefficients fitted on fit_chain, f renormalized on eval_chain.

    bases maps degree -> MonomialBasis; f_fit and f_eval are f at each chain's
    draws, (N,) or (N, m); center and scale go to eval_control_variates.  Each
    chain's control variates are built once, with the top-degree basis, and a
    lower degree uses their column prefix, so every basis must be a prefix of
    the top one (ValueError otherwise).  eval_chain = fit_chain is the
    single-chain protocol, which builds them once in all.
    """
    top = bases[max(bases)]
    if any(b.active != top.active[:b.size] for b in bases.values()):
        raise ValueError("every basis must be a column prefix of the top-degree basis")
    cv_fit = eval_control_variates(fit_chain, top, center=center, scale=scale)
    cv_eval = cv_fit if eval_chain is fit_chain else eval_control_variates(
        eval_chain, top, center=center, scale=scale)
    out = {}
    for p, basis in bases.items():
        fit = fit_coefficients(cv_fit[:, :basis.size], f_fit)
        out[p] = (fit, renormalize(f_eval, cv_eval[:, :basis.size], fit))
    return out
