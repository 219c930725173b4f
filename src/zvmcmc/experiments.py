"""Replication studies tying models, samplers and control variates together.

A study runs R independent replications.  Replication r samples a list of
chains, each (file role, draws, seed): ("fit", fit_length, base_seed + 2r)
then ("eval", eval_length, base_seed + 2r + 1), or under single_chain the
one ("fit", eval_length, base_seed + 2r).  It fits control variate
coefficients on the first chain and averages both the plain f and the
renormalized ftilde on the last.  Across-replication variances of those
averages give the variance-reduction ratios.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import __version__
from .data_io import (
    _jsonable,
    export_chain,
    load_design_matrix,
    load_returns,
    synthetic_banknote,
    synthetic_demgbp_returns,
)
from .diagnostics import (
    MIN_BATCH_COUNT,
    MIN_ZERO_MEAN_DRAWS,
    ReplicationStudy,
    cv_zero_mean_test,
    linnik_estimate,
    long_chain_reference,
    moment_diagnostic,
    variance_ratio,
)
from .models import (
    ExponentialTarget,
    GammaTarget,
    GarchTarget,
    GaussianTarget,
    LogitTarget,
    ProbitTarget,
    SupportError,
    _Toy,
)
from .samplers import (SamplerConfig, chain_gradients, checked_integer, default_start,
                       defers_gradients, is_integer, resolve_init, sample_chain)
from .zv import (
    SUPPORTED_DEGREES,
    InsufficientSampleError,
    MonomialBasis,
    default_exclusions,
    eval_control_variates,
    fit_and_renormalize,
    monomial_basis,
    standardization_from_chain,
)

__all__ = ["ConfigError", "ExperimentConfig", "build_model", "control_variate_bases", "run_study",
           "run_coverage", "run_diagnose", "write_study_csv"]

# model kind -> (target class, the config keys its constructor reads, the sampler
# that runs it); the toys take those keys as their arguments (the exponential
# and gamma take none and run at their constructors' defaults), probit and
# logit read their data and garch its data
_KINDS = {"gaussian": (GaussianTarget, ("mu", "sigma2"), "rwmh"),
          "exponential": (ExponentialTarget, (), "rwmh"),
          "gamma": (GammaTarget, (), "rwmh"),
          "probit": (ProbitTarget, (), "gibbs"),
          "logit": (LogitTarget, (), "rwmh"),
          "garch": (GarchTarget, (), "rwmh")}

# seed offsets for streams outside the per-replication pairs; far above any
# realistic 2 * replications
_BOOTSTRAP_SEED_OFFSET = 10_000_079
_REFERENCE_SEED_OFFSET = 10_000_019

# ratio_method of a study's variance ratio when it has an interval; a single
# replication has no variance, so its ratio is "unavailable"
STUDY_RATIO_METHOD = "bootstrap-percentile"


class ConfigError(ValueError):
    """Configuration rejected before any sampling started."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numbers(name, value) -> tuple:
    try:
        if all(_is_real(v) for v in value):
            return tuple(float(v) for v in value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be a list of numbers, got {value!r}")


def _integers(name, value) -> tuple:
    try:
        if not isinstance(value, str) and all(is_integer(v) for v in value):
            return tuple(int(v) for v in value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be a list of integers, got {value!r}")


@dataclass
class ExperimentConfig:
    """Flat experiment description; one JSON object, every field overridable.

    Defaults follow the shipped experiment protocol: 1000 burn-in, 2000-draw
    fit chains, replications with paired seeds, two-chain estimation.  The
    model kind picks the sampler (see sampler); no key chooses it.

    With single_chain the one chain per replication has eval_length draws and
    serves both roles; fit_length is not used by that protocol, and
    build_model rejects one set away from its default.

    pilot_mean (d numbers) and pilot_cov (d lists of d numbers, symmetric
    positive definite), the mean m and covariance Sigma of a pilot chain,
    give the Gaussian that random-walk Metropolis starts at, screens each
    proposal with before it calls the likelihood, and steps by: it proposes
    x + s chol(Sigma) z with s = proposal_scale, or 2.38/sqrt(d) when that is
    null (samplers.rw_metropolis).  Both pilot keys are null or both set;
    both null take the model's default_pilot() (models).  build_model checks
    them and s, a finite number > 0; the Gibbs sampler rejects all three.

    A key exists when a shipped config, workload or script sets it, directly
    or through a flag it passes, or when it is a deployment input
    (data_path, add_intercept, output_dir).  Everything else runs at the
    library's default, reachable from the library: another start through
    SamplerConfig(init=), other toy parameters through the
    ExponentialTarget and GammaTarget constructors, another GARCH prior
    through GarchTarget(series, GarchPrior(sd)), other synthetic data through
    synthetic_banknote(seed=) and synthetic_demgbp_returns(seed=), other
    monomials through monomial_basis(dimension, degree, exclusions), any f
    through zv.fit_and_renormalize(..., f_fit, f_eval), and another bootstrap
    size through diagnostics.variance_ratio(..., resamples=).
    """

    model_kind: str
    data_path: str | None = None
    add_intercept: bool = False
    mu: float = 0.0
    sigma2: float = 1.0
    burn_in: int = 1000
    fit_length: int = 2000
    eval_length: int = 2000
    thin: int = 1
    proposal_scale: float | None = None
    pilot_mean: tuple | None = None
    pilot_cov: tuple | None = None
    base_seed: int = 0
    degrees: tuple = (1, 2)
    single_chain: bool = False
    replications: int = 100
    reference_length: int = 1_000_000
    diagnose_length: int = 20_000
    threads: int = 0
    output_dir: str = "out"
    keep_chains: bool = False
    notes: str | None = None

    def __post_init__(self):
        if self.model_kind not in _KINDS:
            raise ConfigError(f"model_kind must be one of {tuple(_KINDS)}, got {self.model_kind!r}")
        degrees = _integers("degrees", self.degrees)
        if not degrees or any(p not in SUPPORTED_DEGREES for p in degrees):
            raise ConfigError(f"degrees must be a non-empty subset of {list(SUPPORTED_DEGREES)}, "
                              f"got {list(degrees)}")
        if len(set(degrees)) != len(degrees):
            raise ConfigError(f"degrees must not repeat, got {list(degrees)}")
        self.degrees = degrees
        # a fit or eval phase needs 100 draws, and a reference or diagnose
        # chain must be long enough for its own checks
        for name, least in (("burn_in", 0), ("fit_length", 100), ("eval_length", 100), ("thin", 1),
                            ("replications", 1), ("reference_length", 2 * MIN_BATCH_COUNT),
                            ("diagnose_length", MIN_ZERO_MEAN_DRAWS), ("threads", 0), ("base_seed", 0)):
            setattr(self, name, checked_integer(name, getattr(self, name), least, ConfigError))
        for name in ("add_intercept", "single_chain", "keep_chains"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("mu", "sigma2", "proposal_scale"):
            v, positive = getattr(self, name), name != "mu"
            if name == "proposal_scale" and v is None:
                continue
            if not (_is_real(v) and math.isfinite(v) and (v > 0.0 or not positive)):
                raise ConfigError(f"{name} must be a finite number{' > 0' if positive else ''}, got {v!r}")
        if self.base_seed >= 2**63:
            raise ConfigError(f"base_seed too large for the seed arithmetic, got {self.base_seed}")
        if self.pilot_mean is not None:
            self.pilot_mean = _numbers("pilot_mean", self.pilot_mean)
        if self.pilot_cov is not None:
            try:
                self.pilot_cov = tuple(_numbers("pilot_cov", row) for row in self.pilot_cov)
            except (TypeError, ConfigError):
                raise ConfigError(f"pilot_cov must be a list of lists of numbers, "
                                  f"got {self.pilot_cov!r}") from None
        for name in ("data_path", "output_dir", "notes"):
            v = getattr(self, name)
            if not (isinstance(v, str) or (v is None and name != "output_dir")):
                raise ConfigError(f"{name} must be a string, got {type(v).__name__}")
        if self.output_dir == "":
            raise ConfigError("output_dir must not be empty")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "model_kind" not in raw:
            raise ConfigError("config is missing required key 'model_kind'")
        return cls(**raw)

    @classmethod
    def from_file(cls, path, overrides=None) -> "ExperimentConfig":
        """Read a JSON config; keys in overrides replace the file's values."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
        return cls.from_dict({**raw, **(overrides or {})})

    @property
    def sampler(self) -> str:
        """The sampler method that runs: the model kind's, Gibbs for probit and
        random-walk Metropolis for every other kind."""
        return _KINDS[self.model_kind][2]


def build_model(config: ExperimentConfig):
    """Construct the model kind's target, loading or generating its data.

    The target class and the model keys it reads come from the kind's row of
    _KINDS, as does the sampler that config.sampler names.  Every driver and
    `zvmcmc validate` build the model before anything else, so this is also
    where the config is checked against the model, once and before any
    sampling.  First, a key set away from its default that the model kind,
    data source or sampler never reads is rejected by name.  Then the
    chain's start, a random walk's pilot mean or a Gibbs chain's zeros, goes
    through the samplers' own default_start and resolve_init, so a bad pilot
    or start reads as the sampler would print it and the start's log_density
    call loads what the model imports lazily before a pool forks.  Raises
    ConfigError otherwise.
    """
    model = _target(config)
    unread = _unread_keys(config)
    for field in fields(ExperimentConfig):
        if field.name in unread and getattr(config, field.name) != field.default:
            raise ConfigError(f"{field.name} is set but never read: {unread[field.name]}")
    try:
        resolve_init(model, None, *default_start(model, config.sampler, config.pilot_mean,
                                                 config.pilot_cov))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model


def _unread_keys(config: ExperimentConfig) -> dict:
    """{key: why} for each model, data or sampler key that this config's run never reads."""
    kind = config.model_kind
    unread = {key: f"only model {other} reads it" for other, (_, keys, _) in _KINDS.items()
              if other != kind for key in keys}
    if issubclass(_KINDS[kind][0], _Toy):
        unread["data_path"] = "toy models read no data"
    if kind not in ("probit", "logit") or config.data_path is None:
        unread["add_intercept"] = "only a probit or logit design loaded from data_path reads it"
    if config.sampler == "gibbs":
        unread["proposal_scale"] = "the gibbs sampler takes no proposal"
        unread["pilot_mean"] = unread["pilot_cov"] = "the gibbs sampler takes no pilot"
    if config.single_chain:
        unread["fit_length"] = "a single-chain run samples one chain of eval_length draws"
    return unread


def _target(config: ExperimentConfig):
    target, keys, _ = _KINDS[config.model_kind]
    if issubclass(target, _Toy):
        return target(*(getattr(config, key) for key in keys))
    # only the regression and GARCH targets read a data file; without one
    # they read the synthetic data set of the generator's default seed
    if config.data_path is not None and not os.path.exists(config.data_path):
        raise ConfigError(f"data file not found: {config.data_path}")
    if target is GarchTarget:
        return GarchTarget(load_returns(config.data_path) if config.data_path is not None
                           else synthetic_demgbp_returns())
    return target(load_design_matrix(config.data_path, add_intercept=config.add_intercept)
                  if config.data_path is not None else synthetic_banknote())


def _model_entry(config: ExperimentConfig, model, parameters) -> dict:
    return {"kind": model.tag, "dimension": model.dimension, "parameters": parameters,
            "sampler": config.sampler}


def _summary(estimates) -> dict:
    # across-replication mean and variance; one replication has no variance
    return {"estimate_mean": estimates.mean(),
            "variance": estimates.var(ddof=1) if estimates.size > 1 else None}


def control_variate_bases(config: ExperimentConfig, model) -> dict[int, MonomialBasis]:
    """The monomial basis of each configured degree, keyed in config.degrees order.

    Each basis leaves out the model's default_exclusions of total degree up
    to its own.  Bases list monomials in graded order, so every lower-degree
    basis is a column prefix of the top-degree one, as zv.fit_and_renormalize
    requires.
    """
    exclusions = default_exclusions(model)
    return {p: monomial_basis(model.dimension, p, tuple(e for e in exclusions if sum(e) <= p))
            for p in config.degrees}


def _chain_config(config: ExperimentConfig, length, seed, thin=1,
                  compute_gradients=True) -> SamplerConfig:
    # build_model has rejected a proposal or pilot on the Gibbs sampler,
    # which takes neither
    return SamplerConfig(length=length, burn_in=config.burn_in, seed=seed, thin=thin,
                         proposal_scale=config.proposal_scale, pilot_mean=config.pilot_mean,
                         pilot_cov=config.pilot_cov, compute_gradients=compute_gradients)


def _calls_per_step(config: ExperimentConfig, chain, thin):
    """The chain's log_density calls per step; it took config.burn_in + length * thin steps."""
    return chain.log_density_calls / (config.burn_in + chain.length * thin)


# the numerical failures that cost one replication; anything else is a bug
# and fails the whole study
_REPLICATION_FAILURES = (SupportError, FloatingPointError, InsufficientSampleError,
                         np.linalg.LinAlgError)


def _replicate(config: ExperimentConfig, model, bases, chains_dir, r):
    seed = config.base_seed + 2 * r
    # (file role, draws, seed) of each chain in sampling order; the controls
    # are fitted on the first chain and averaged on the last
    plan = ([("fit", config.eval_length, seed)] if config.single_chain else
            [("fit", config.fit_length, seed), ("eval", config.eval_length, seed + 1)])
    out = {"r": r, "error": None, "fit_seed": seed, "eval_seed": plan[-1][2]}
    # chains whose gradients are a function of their draws are sampled
    # without them, and one model call then computes every chain's rows
    deferred = defers_gradients(config.sampler)
    try:
        chains, seconds = [], []
        for _, length, chain_seed in plan:
            t0 = time.perf_counter()
            chains.append(sample_chain(model, _chain_config(config, length, chain_seed, config.thin,
                                                            compute_gradients=not deferred),
                                       method=config.sampler))
            seconds.append(time.perf_counter() - t0)
        gradient_seconds = 0.0
        if deferred:
            t0 = time.perf_counter()
            chains = chain_gradients(model, chains)
            gradient_seconds = time.perf_counter() - t0
            # each chain pays for its share of the pass's rows
            rows = sum(chain.gradient_rows for chain in chains)
            seconds = [t + gradient_seconds * chain.gradient_rows / rows
                       for t, chain in zip(seconds, chains)]

        t0 = time.perf_counter()
        if chains_dir is not None:
            for (role, _, _), chain in zip(plan, chains):
                export_chain(chain, os.path.join(chains_dir, f"rep{r:04d}_{role}.csv"))

        fit_chain, eval_chain = chains[0], chains[-1]
        center, scale = standardization_from_chain(fit_chain, model.constrained_coordinates)
        fits = fit_and_renormalize(fit_chain, eval_chain, bases, fit_chain.draws, eval_chain.draws,
                                   center, scale)
        out.update(ordinary=eval_chain.draws.mean(axis=0),
                   zv={p: ftilde.mean(axis=0) for p, (_, ftilde) in fits.items()},
                   dropped={p: bool(fit.dropped_columns) for p, (fit, _) in fits.items()},
                   ridge={p: fit.ridge_applied for p, (fit, _) in fits.items()},
                   accept=[chain.accept_rate for chain in chains],
                   calls=[_calls_per_step(config, chain, config.thin) for chain in chains],
                   gradient_rows=[chain.gradient_rows / chain.length for chain in chains],
                   seconds=seconds,
                   gradient_seconds=gradient_seconds,
                   t_post=time.perf_counter() - t0)
    except _REPLICATION_FAILURES as exc:  # recorded, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Libraries are found by path in /proc/self/maps; numpy and scipy each ship
    their own, under prefixed and 64-bit-suffixed symbol names.  Returns []
    where the maps cannot be read or no library exports both functions.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{name}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
    return controls


@contextmanager
def _single_threaded_blas():
    """Hold every loaded OpenBLAS at one thread; give back the caller's counts on exit.

    Each driver enters it around its whole run, after build_model has loaded
    every OpenBLAS the model uses.  A process pool forked inside it gives each
    worker a count of 1, so no worker starts a BLAS thread pool of its own,
    whose helper threads would busy-wait on CPUs the other workers need;
    setting the count inside a freshly forked worker instead starts that pool
    there.  In one process, a small product such as the batched regression
    gradient's (1024, 4) x (4, 200) sometimes cost about nine times as much on
    several threads as on one.  With no OpenBLAS found this does nothing;
    results are the same either way.
    """
    saved = [(put, get()) for get, put in _openblas_thread_controls()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)


def run_study(config: ExperimentConfig) -> dict:
    """Run the full replication study.

    Returns the report in its written JSON form, the form export_study writes
    to study.json (see run_diagnose).  Wall-clock numbers live only under
    report["timing"] so the rest is reproducible byte for byte.

    Replication r samples the list of chains the module docstring gives;
    seeds.fit and seeds.eval hold its first and last chains' seeds, and with
    config.keep_chains each chain is written to
    <config.output_dir>/chains/rep<r>_<role>.csv.  timing books the first
    chain's seconds as fit_chain_seconds and the rest as eval_chain_seconds
    (0 under single_chain); the ordinary arm pays for the last chain, the ZV
    arm for every chain plus post_seconds.  A random-walk replication
    samples its chains without gradients and then computes all their
    gradient rows in one chain_gradients call; gradient_seconds sums those
    calls, and each chain's seconds are its sampling time plus the share of
    its replication's call that its gradient rows make up.

    The accept block holds the first (fit) and last (eval) chains' mean
    accept rates, their mean log_density calls per step, burn-in included
    (the share of proposals that pass the screen for a random-walk chain,
    and 0 for Gibbs), and their mean gradient rows per draw (the share of a
    random-walk chain's draws that differ from the draw before them, and 1
    for Gibbs).

    A replication that fails numerically (SupportError, FloatingPointError,
    InsufficientSampleError, LinAlgError) is listed under replication_errors
    and the report is marked partial; any other exception fails the study.

    Every coordinate and degree carries the variance ratio var(ordinary) /
    var(ZV).  With R >= 2 completed replications its ratio_method is
    "bootstrap-percentile", and ratio_lower and ratio_upper are the 95% paired
    percentile bootstrap interval from diagnostics.variance_ratio with that
    function's default of 1000 resamples; its default floor of 20
    replications does not apply to studies.  With a single replication the
    ratio and its bounds are None and ratio_method is "unavailable".

    With more than one worker (config.threads, 0 = one per CPU this process
    may use, but never more than config.replications) replications run in a
    process pool.  Every driver computes BLAS single-threaded, in one
    process or in a pool (_single_threaded_blas), and the report outside
    "timing" is the same for any worker count.
    """
    model = build_model(config)
    with _single_threaded_blas():
        return _jsonable(_study(config, model, control_variate_bases(config, model)))


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has
    one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chains_dir(config: ExperimentConfig):
    """<output_dir>/chains, made if missing, with config.keep_chains; else None."""
    if not config.keep_chains:
        return None
    chains_dir = os.path.join(config.output_dir, "chains")
    os.makedirs(chains_dir, exist_ok=True)
    return chains_dir


def _study(config: ExperimentConfig, model, bases):
    """run_study's report before its JSON conversion, on a built model and its
    control_variate_bases: estimates are arrays and degree keys are ints."""
    replicate = partial(_replicate, config, model, bases, _chains_dir(config))
    parameter_names = model.parameter_names

    t_start = time.perf_counter()
    reps = range(config.replications)
    workers = min(config.threads if config.threads > 0 else _usable_cpus(), config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(replicate, reps, chunksize=max(1, len(reps) // (4 * workers))))
    else:
        rows = [replicate(r) for r in reps]
    total_seconds = time.perf_counter() - t_start

    good = [row for row in rows if row["error"] is None]
    errors = [{"replication": row["r"], "error": row["error"]} for row in rows if row["error"] is not None]
    if not good:
        raise RuntimeError(
            "every replication failed; first error: " + errors[0]["error"]
        )

    ordinary = np.vstack([row["ordinary"] for row in good])
    zv_estimates = {p: np.vstack([row["zv"][p] for row in good]) for p in config.degrees}
    seeds = np.array([row["fit_seed"] for row in good], dtype=np.uint64)
    study = ReplicationStudy(
        ordinary_estimates=ordinary,
        zv_estimates=zv_estimates,
        seeds=seeds,
        parameter_names=parameter_names,
    )

    results = {}
    boot_seed = config.base_seed + _BOOTSTRAP_SEED_OFFSET
    for j, name in enumerate(parameter_names):
        entry = {"ordinary": _summary(ordinary[:, j]), "zv": {}}
        for p in config.degrees:
            deg_entry = _summary(zv_estimates[p][:, j])
            if len(good) > 1:
                rep = variance_ratio(study, j, p, seed=boot_seed + j * 10 + p, min_replications=2)
                deg_entry.update(
                    ratio=rep.point,
                    ratio_infinite=rep.infinite,
                    ratio_lower=rep.lower,
                    ratio_upper=rep.upper,
                    ratio_method=STUDY_RATIO_METHOD,
                )
            else:
                deg_entry.update(ratio=None, ratio_infinite=False, ratio_lower=None,
                                 ratio_upper=None, ratio_method="unavailable")
            deg_entry["dropped_column_replications"] = sum(row["dropped"][p] for row in good)
            deg_entry["ridge_replications"] = sum(row["ridge"][p] for row in good)
            entry["zv"][p] = deg_entry
        results[name] = entry

    t_fit = sum(row["seconds"][0] for row in good)
    t_eval = sum((t for row in good for t in row["seconds"][1:]), 0.0)
    t_post = sum(row["t_post"] for row in good)
    t_ordinary = sum(row["seconds"][-1] for row in good)
    t_zv = t_fit + t_eval + t_post
    report = {
        "schema": "zvmcmc-study-v1",
        "package_version": __version__,
        "config": config,
        "model": _model_entry(config, model, parameter_names),
        "protocol": "single-chain" if config.single_chain else "two-chain",
        "degrees": config.degrees,
        "replications_requested": config.replications,
        "replications_completed": len(good),
        "partial": bool(errors),
        "replication_errors": errors,
        "seeds": {
            "base": config.base_seed,
            "fit": [row["fit_seed"] for row in good],
            "eval": [row["eval_seed"] for row in good],
        },
        "per_replication_estimates": {"ordinary": ordinary, "zv": zv_estimates},
        "accept": {
            "fit_rate_mean": np.mean([row["accept"][0] for row in good]),
            "eval_rate_mean": np.mean([row["accept"][-1] for row in good]),
            "fit_calls_per_step_mean": np.mean([row["calls"][0] for row in good]),
            "eval_calls_per_step_mean": np.mean([row["calls"][-1] for row in good]),
            "fit_gradient_rows_per_draw_mean": np.mean([row["gradient_rows"][0] for row in good]),
            "eval_gradient_rows_per_draw_mean": np.mean([row["gradient_rows"][-1]
                                                         for row in good]),
        },
        "results": results,
        "timing": {
            "fit_chain_seconds": t_fit,
            "eval_chain_seconds": t_eval,
            "post_seconds": t_post,
            "gradient_seconds": sum(row["gradient_seconds"] for row in good),
            "total_seconds": total_seconds,
            "ordinary_seconds": t_ordinary,
            "zv_seconds": t_zv,
            "zv_over_ordinary": (t_zv / t_ordinary) if t_ordinary > 0 else None,
        },
    }
    return report


def write_study_csv(report: dict, path) -> None:
    """One row per completed replication, parameter and estimator.

    The replication column holds the replication's id r, the one
    replication_errors uses, recovered from its fit seed base_seed + 2r.
    """
    import csv as _csv

    degrees = report["degrees"]
    params = report["model"]["parameters"]
    fit_seeds = report["seeds"]["fit"]
    eval_seeds = report["seeds"]["eval"]
    per_rep = report["per_replication_estimates"]
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["replication", "parameter", "method", "estimate", "fit_seed", "eval_seed"])
        for i in range(len(fit_seeds)):
            r = (fit_seeds[i] - report["seeds"]["base"]) // 2
            for j, name in enumerate(params):
                writer.writerow([r, name, "ordinary", f"{per_rep['ordinary'][i][j]:.17g}",
                                 fit_seeds[i], eval_seeds[i]])
                for p in degrees:
                    writer.writerow([r, name, f"zv{p}", f"{per_rep['zv'][str(p)][i][j]:.17g}",
                                     fit_seeds[i], eval_seeds[i]])


def _coverage_entry(est, reference, names, basis):
    """One degree's coverage block for the (R, d) ZV estimates est of basis; z is NaN when R < 2."""
    mask = (est >= reference.lower[None, :]) & (est <= reference.upper[None, :])
    R = est.shape[0]
    var = est.var(axis=0, ddof=1) if R > 1 else np.full(est.shape[1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (est.mean(axis=0) - reference.point) / np.sqrt(var / R + reference.asvar / reference.length)
    return {
        "empty_basis": basis.size == 0,
        "fraction": mask.mean(),
        "events_inside": mask.sum(),
        "events_total": mask.size,
        "per_parameter": dict(zip(names, mask.mean(axis=0))),
        "z_scores": dict(zip(names, z)),
    }


def run_coverage(config: ExperimentConfig) -> dict:
    """Unbiasedness check against a long ordinary reference chain.

    One ordinary chain of reference_length draws (no gradients) gives a 95%
    batch-means interval per coordinate.  Each of the R replications then
    draws a single short chain of eval_length draws, fits and evaluates the
    control variates on it, and the report counts how often each ZV estimate
    lands inside the reference interval, per degree, pooled over coordinates.
    Next to the counts, each degree gives per parameter the z-score of the
    mean ZV estimate against the reference point by their combined standard
    error sqrt(var(ZV, ddof=1)/R + asvar/N).  Unlike the counts, it does not
    rest on the reference interval being wider than the estimates' spread;
    with R = 1 it is NaN, written null.  A degree whose basis is empty (the
    exponential and gamma toys at degree 1) is marked empty_basis: its ZV
    estimate is the plain mean of a short chain, whose spread can be far
    wider than the reference interval, so its fraction is no test; its
    z-score still is.

    Returns the report in its written JSON form, the form export_study writes
    to coverage.json (see run_diagnose).  Its "reference" block is the
    reference chain's seed and then the fields of its ReferenceReport.  The
    replications' own study report, without its timing block, is the
    "study" block.  With config.keep_chains each replication's chain is
    written as in run_study; the reference chain has no gradients and is not.
    """
    if not config.single_chain:
        raise ConfigError("the coverage protocol estimates from single chains; set single_chain to true")
    model = build_model(config)
    with _single_threaded_blas():
        bases = control_variate_bases(config, model)

        t0 = time.perf_counter()
        ref_seed = config.base_seed + _REFERENCE_SEED_OFFSET
        ref_chain = sample_chain(
            model, _chain_config(config, config.reference_length, ref_seed, compute_gradients=False),
            method=config.sampler)
        reference = long_chain_reference(ref_chain)
        t_reference = time.perf_counter() - t0

        study = _study(config, model, bases)
        coverage = {p: _coverage_entry(est, reference, study["model"]["parameters"], bases[p])
                    for p, est in study["per_replication_estimates"]["zv"].items()}
        return _jsonable({
            "schema": "zvmcmc-coverage-v1",
            "package_version": __version__,
            "config": config,
            "model": study["model"],
            "reference": {"seed": ref_seed, **vars(reference)},
            "coverage": coverage,
            "study": {k: v for k, v in study.items() if k != "timing"},
            "timing": {
                "reference_seconds": t_reference,
                "study_seconds": study["timing"]["total_seconds"],
                "total_seconds": time.perf_counter() - t0,
            },
        })


def run_diagnose(config: ExperimentConfig) -> dict:
    """Draw one chain and run every diagnostic on it.

    The blocks zero_mean, linnik, moment_2_plus_delta and reference are the
    fields of the diagnostics functions' results.  The reference point,
    interval and batch-means asymptotic variance come from the same chain,
    so this stays a single-chain operation.  The chain block gives its
    accept rate and log_density calls per step (see run_study).  All flags
    are advisory.  With config.keep_chains the chain is written to
    <output_dir>/chains/diagnose.csv.

    The report is returned in its written JSON form, the form export_study
    writes to diagnose.json: arrays are lists, NaN is None and +-inf are the
    strings "inf" and "-inf".
    """
    model = build_model(config)
    with _single_threaded_blas():
        p_max = max(config.degrees)
        basis = control_variate_bases(config, model)[p_max]
        t0 = time.perf_counter()
        chain = sample_chain(model, _chain_config(config, config.diagnose_length, config.base_seed),
                             method=config.sampler)
        center, scale = standardization_from_chain(chain, model.constrained_coordinates)
        cv = eval_control_variates(chain, basis, center=center, scale=scale)
        checks = {"zero_mean": cv_zero_mean_test(cv), "linnik": linnik_estimate(chain),
                  "moment_2_plus_delta": moment_diagnostic(cv), "reference": long_chain_reference(chain)}
        elapsed = time.perf_counter() - t0
        if config.keep_chains:
            export_chain(chain, os.path.join(_chains_dir(config), "diagnose.csv"))

        return _jsonable({
            "schema": "zvmcmc-diagnose-v1",
            "package_version": __version__,
            "config": config,
            "model": _model_entry(config, model, model.parameter_names),
            "chain": {
                "length": chain.length,
                "burn_in": config.burn_in,
                "seed": config.base_seed,
                "accept_rate": chain.accept_rate,
                "calls_per_step": _calls_per_step(config, chain, 1),
            },
            "basis": {
                "degree": p_max,
                "size": basis.size,
                "exponents": basis.active,
                "excluded": basis.excluded,
            },
            **checks,
            "timing": {"total_seconds": elapsed},
        })
