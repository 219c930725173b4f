"""Zero-variance MCMC: post-process Markov chain output with polynomial
control variates built from gradients of the log target density.

The estimator replaces a function f of the chain by

    ftilde(x) = f(x) - 0.5 * laplacian(P)(x) + grad(P)(x) . z(x),
    z(x) = -0.5 * grad(log pi)(x),

with P a polynomial whose coefficients are fitted to minimise variance.
ftilde has the same mean as f under pi and, when the target is close to
Gaussian, a variance that is orders of magnitude smaller.
"""

__version__ = "0.1.0"

from .models import (
    BinaryRegressionData,
    ExponentialTarget,
    GammaTarget,
    GarchPrior,
    GarchTarget,
    GaussianTarget,
    LogitTarget,
    ProbitTarget,
    ReturnsSeries,
    SupportError,
)
from .samplers import (
    ChainOutput,
    SamplerConfig,
    gibbs_probit,
    rw_metropolis,
    sample_chain,
)
from .zv import (
    InsufficientSampleError,
    MonomialBasis,
    ZVFit,
    default_exclusions,
    eval_control_variates,
    fit_and_renormalize,
    fit_coefficients,
    monomial_basis,
    renormalize,
    standardization_from_chain,
)
from .diagnostics import (
    LinnikReport,
    MomentReport,
    RatioReport,
    ReferenceReport,
    ReplicationStudy,
    ZeroMeanReport,
    batch_means_asvar,
    cv_zero_mean_test,
    linnik_estimate,
    long_chain_reference,
    moment_diagnostic,
    variance_ratio,
)
from .data_io import (
    DataLoadError,
    export_chain,
    export_study,
    load_design_matrix,
    load_returns,
    synthetic_banknote,
    synthetic_demgbp_returns,
)
from .experiments import ConfigError, ExperimentConfig, run_coverage, run_diagnose, run_study
