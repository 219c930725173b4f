import copy
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from zvmcmc import (
    ConfigError,
    ExperimentConfig,
    ExponentialTarget,
    GammaTarget,
    GarchTarget,
    GaussianTarget,
    InsufficientSampleError,
    LogitTarget,
    ProbitTarget,
    SamplerConfig,
    SupportError,
    cv_zero_mean_test,
    eval_control_variates,
    fit_and_renormalize,
    fit_coefficients,
    linnik_estimate,
    long_chain_reference,
    moment_diagnostic,
    monomial_basis,
    run_coverage,
    run_diagnose,
    run_study,
    sample_chain,
    standardization_from_chain,
    synthetic_banknote,
)
from zvmcmc import experiments
from zvmcmc.data_io import _jsonable
from zvmcmc.diagnostics import ReferenceReport
from zvmcmc.experiments import (
    _coverage_entry,
    _openblas_thread_controls,
    _single_threaded_blas,
    build_model,
    control_variate_bases,
    write_study_csv,
)
from zvmcmc.samplers import chain_gradients

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# ---------------------------------------------------------------------------
# config construction and validation


# the shipped GARCH pilot covariance
GARCH_COV = [[4.533e-06, 1.856e-05, -4.131e-05], [1.856e-05, 0.0004226, -0.0004255],
             [-4.131e-05, -0.0004255, 0.0006005]]


def gaussian_dict(**overrides):
    base = {
        "model_kind": "gaussian",
        "mu": 2.0,
        "sigma2": 3.0,
        "burn_in": 200,
        "fit_length": 400,
        "eval_length": 400,
        "degrees": [1, 2],
        "replications": 4,
        "base_seed": 7,
    }
    if overrides.get("single_chain"):
        # a single-chain run never reads fit_length
        del base["fit_length"]
    base.update(overrides)
    return base


class TestConfigValidation:
    def test_minimal_config_uses_defaults(self):
        cfg = ExperimentConfig.from_dict({"model_kind": "gaussian"})
        assert cfg.sampler == "rwmh"
        assert cfg.degrees == (1, 2)
        assert cfg.fit_length == 2000 and cfg.eval_length == 2000
        assert cfg.single_chain is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: fitlength"):
            ExperimentConfig.from_dict(gaussian_dict(fitlength=500))

    def test_missing_model_kind_rejected(self):
        with pytest.raises(ConfigError, match="model_kind"):
            ExperimentConfig.from_dict({"burn_in": 100})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(["model_kind", "gaussian"])

    def test_bad_model_kind(self):
        with pytest.raises(ConfigError, match="model_kind"):
            ExperimentConfig(model_kind="weibull")

    def test_sampler_type_is_an_unknown_key(self):
        # the model kind picks the sampler; no key restates or overrides it
        for value in ("auto", "rwmh", "gibbs", "hmc"):
            with pytest.raises(ConfigError, match="^unknown config keys: sampler_type$"):
                ExperimentConfig.from_dict({"model_kind": "probit", "sampler_type": value})

    def test_bad_f_transform(self):
        # every run estimates the coordinate means; any other f goes through
        # zv.fit_and_renormalize, so no value of f_transform is a config
        for value in ("identity", "square", "cube", ["exp"], None):
            with pytest.raises(ConfigError, match="^unknown config keys: f_transform$"):
                ExperimentConfig.from_dict({"model_kind": "gaussian", "f_transform": value})

    @pytest.mark.parametrize("degrees", [[], [0], [4], [1, 2, 4], "12", [1, 1]])
    def test_bad_degrees(self, degrees):
        with pytest.raises(ConfigError, match="degrees"):
            ExperimentConfig(model_kind="gaussian", degrees=degrees)

    def test_degrees_coerced_to_int_tuple(self):
        cfg = ExperimentConfig(model_kind="gaussian", degrees=[3.0, 1])
        assert cfg.degrees == (3, 1)

    def test_short_phase_rejected(self):
        with pytest.raises(ConfigError, match="^fit_length must be an integer >= 100, got 99$"):
            ExperimentConfig(model_kind="gaussian", fit_length=99)
        with pytest.raises(ConfigError, match="^eval_length must be an integer >= 100, got 50$"):
            ExperimentConfig(model_kind="gaussian", eval_length=50)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="burn_in"):
            ExperimentConfig(model_kind="gaussian", burn_in=-1)
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig(model_kind="gaussian", replications=0)

    def test_fractional_length_rejected(self):
        with pytest.raises(ConfigError, match="fit_length"):
            ExperimentConfig(model_kind="gaussian", fit_length=250.5)
        # exact floats pass and become ints
        cfg = ExperimentConfig(model_kind="gaussian", burn_in=1000.0)
        assert cfg.burn_in == 1000 and isinstance(cfg.burn_in, int)

    def test_thin_validation(self):
        with pytest.raises(ConfigError, match="thin"):
            ExperimentConfig(model_kind="gaussian", thin=0)
        with pytest.raises(ConfigError, match="thin"):
            ExperimentConfig(model_kind="gaussian", thin=1.5)
        assert ExperimentConfig(model_kind="gaussian", thin=5).thin == 5

    def test_base_seed_bound(self):
        with pytest.raises(ConfigError, match="base_seed"):
            ExperimentConfig(model_kind="gaussian", base_seed=2**63)
        ExperimentConfig(model_kind="gaussian", base_seed=2**63 - 1)

    def test_exclusions_validation(self):
        # the bases always leave out the model's default_exclusions
        for value in ("default", "all", [[0, "x"]], [[0, 1, 0], [0, 0, 2]]):
            with pytest.raises(ConfigError, match="^unknown config keys: exclusions$"):
                ExperimentConfig.from_dict({"model_kind": "garch", "exclusions": value})

    def test_prior_sd_validation(self):
        # GARCH runs under GarchPrior's default; another prior is GarchTarget's argument
        for value in ([1000.0, 1000.0, 1000.0], [1.0, 2.0], [1.0, -2.0, 3.0]):
            with pytest.raises(ConfigError, match="^unknown config keys: prior_sd$"):
                ExperimentConfig.from_dict({"model_kind": "garch", "prior_sd": value})

    def test_notes_must_be_string(self):
        with pytest.raises(ConfigError, match="notes"):
            ExperimentConfig(model_kind="gaussian", notes=42)

    def test_written_config_reads_back(self):
        # a report's config block is asdict(config) with every tuple written as a list
        cfg = ExperimentConfig.from_dict(gaussian_dict(proposal_scale=1.5, pilot_mean=[0.0],
                                                       pilot_cov=[[1.0]]))
        assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(gaussian_dict()))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.mu == 2.0 and cfg.base_seed == 7

    def test_from_file_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(gaussian_dict()))
        cfg = ExperimentConfig.from_file(p, {"base_seed": 3, "degrees": [2]})
        assert cfg.base_seed == 3 and cfg.degrees == (2,) and cfg.mu == 2.0
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_file(p, {"base_seed": 3})

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "nope.json")

    def test_from_file_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{model_kind: gaussian}")
        with pytest.raises(ConfigError, match="malformed JSON"):
            ExperimentConfig.from_file(p)


# ---------------------------------------------------------------------------
# model construction


class _Stop(Exception):
    """Raised by a sampler spy to end a run once it has seen the call."""


class TestBuildModel:
    @pytest.mark.parametrize("kind,target,sampler", [
        ("gaussian", GaussianTarget, "rwmh"), ("exponential", ExponentialTarget, "rwmh"),
        ("gamma", GammaTarget, "rwmh"), ("probit", ProbitTarget, "gibbs"),
        ("logit", LogitTarget, "rwmh"), ("garch", GarchTarget, "rwmh")])
    def test_the_model_kind_picks_the_target_and_the_sampler(self, monkeypatch, kind, target,
                                                             sampler):
        calls = []

        def spy(model, config, method="rwmh"):
            calls.append((type(model), method))
            raise _Stop

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", spy)
        cfg = ExperimentConfig(model_kind=kind)
        assert type(build_model(cfg)) is target
        assert cfg.sampler == sampler
        with pytest.raises(_Stop):
            run_diagnose(cfg)
        assert calls == [(target, sampler)]

    def test_gaussian(self):
        model = build_model(ExperimentConfig(model_kind="gaussian", mu=1.5, sigma2=4.0))
        assert isinstance(model, GaussianTarget)
        assert model.mu == 1.5 and model.sigma2 == 4.0

    def test_exponential(self):
        # the exponential and gamma kinds are their constructors' defaults
        model = build_model(ExperimentConfig(model_kind="exponential"))
        assert isinstance(model, ExponentialTarget)
        assert model.lam == 1.0

    def test_gamma(self):
        model = build_model(ExperimentConfig(model_kind="gamma"))
        assert isinstance(model, GammaTarget)
        assert (model.shape, model.scale) == (3.0, 1.0)

    def test_probit_synthetic(self):
        model = build_model(ExperimentConfig(model_kind="probit"))
        assert isinstance(model, ProbitTarget)
        assert model.dimension == 4

    def test_logit_synthetic_seed_changes_data(self):
        # a config reads the generator's default data set; another seed is
        # synthetic_banknote's argument
        x = np.full(4, 0.1)
        built = build_model(ExperimentConfig(model_kind="logit"))
        assert isinstance(built, LogitTarget)
        assert built.log_density(x) == LogitTarget(synthetic_banknote()).log_density(x)
        assert built.log_density(x) != LogitTarget(synthetic_banknote(seed=2)).log_density(x)

    def test_garch_synthetic(self):
        model = build_model(ExperimentConfig(model_kind="garch"))
        assert isinstance(model, GarchTarget)
        assert model.dimension == 3
        assert len(model.series.returns) == 1974

    def test_probit_from_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n1.0,1\n-1.0,0\n2.0,1\n-2.0,0\n0.5,1\n-0.5,0\n")
        cfg = ExperimentConfig(model_kind="probit", data_path=str(p), add_intercept=True)
        model = build_model(cfg)
        assert model.dimension == 2

    def test_missing_data_file(self):
        cfg = ExperimentConfig(model_kind="probit", data_path="/does/not/exist.csv")
        with pytest.raises(ConfigError, match="not found"):
            build_model(cfg)

    # init: the chain's start, which a config sets as its pilot_mean
    @pytest.mark.parametrize("kind,init,bound", [
        ("exponential", [0.0], "x must be > 0"),
        ("gamma", [-1.0], "x must be > 0"),
        ("garch", [0.0, 0.1, 0.5], "omega_1 must be > 0"),
        ("garch", [1e-5, -0.1, 0.5], "omega_2 must be >= 0"),
        ("garch", [1e-5, 0.1, -0.5], "omega_3 must be >= 0"),
    ])
    def test_an_init_outside_the_support_names_its_bound(self, kind, init, bound):
        cov = GARCH_COV if kind == "garch" else [[1.0]]
        with pytest.raises(ConfigError) as raised:
            build_model(ExperimentConfig(model_kind=kind, pilot_mean=init, pilot_cov=cov))
        assert str(raised.value) == f"pilot_mean {init} is outside the support of {kind}: {bound}"

    @pytest.mark.parametrize("fields,key,message", [
        ({"pilot_mean": [0.01, 0.16, 0.8]}, "pilot_cov", "must be set together"),
        ({"pilot_cov": GARCH_COV}, "pilot_mean", "must be set together"),
        ({"pilot_mean": [0.01, 0.16], "pilot_cov": GARCH_COV}, "pilot_mean",
         "must be 3 finite numbers"),
        ({"pilot_mean": 0.01, "pilot_cov": GARCH_COV}, "pilot_mean", "must be a list of numbers"),
        ({"pilot_mean": [0.01, 0.16, 0.8], "pilot_cov": [row[:2] for row in GARCH_COV[:2]]},
         "pilot_cov", "must be a 3 x 3 matrix"),
        ({"pilot_mean": [0.01, 0.16, 0.8], "pilot_cov": [GARCH_COV[0], GARCH_COV[1][:2],
                                                         GARCH_COV[2]]},
         "pilot_cov", "must be a 3 x 3 matrix"),
        ({"pilot_mean": [0.01, 0.16, 0.8], "pilot_cov": GARCH_COV[0]}, "pilot_cov",
         "must be a list of lists of numbers"),
        ({"pilot_mean": [0.01, 0.16, 0.8],
          "pilot_cov": [GARCH_COV[0], GARCH_COV[1], [0.0, *GARCH_COV[2][1:]]]},
         "pilot_cov", "must be symmetric"),
        ({"pilot_mean": [0.01, 0.16, 0.8], "pilot_cov": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                                         [0.0, 0.0, 1.0]]},
         "pilot_cov", "must be positive definite"),
    ], ids=["mean-alone", "cov-alone", "mean-length", "mean-not-a-list", "cov-shape", "cov-ragged",
            "cov-not-nested", "cov-not-symmetric", "cov-not-positive-definite"])
    def test_a_bad_surrogate_is_rejected_naming_its_key(self, fields, key, message):
        with pytest.raises(ConfigError) as raised:
            build_model(ExperimentConfig.from_dict({"model_kind": "garch", **fields}))
        assert str(raised.value).startswith(key) or f"; {key} is not" in str(raised.value)
        assert message in str(raised.value)

    @pytest.mark.parametrize("key", ["pilot_mean", "pilot_cov"])
    def test_the_gibbs_sampler_takes_no_surrogate(self, key):
        value = [0.0] * 4 if key == "pilot_mean" else np.eye(4).tolist()
        with pytest.raises(ConfigError,
                           match=f"^{key} is set but never read: the gibbs sampler takes no pilot$"):
            build_model(ExperimentConfig.from_dict({"model_kind": "probit", key: value}))

    def test_the_surrogate_reaches_the_sampler(self, monkeypatch):
        configs = []

        def spy(model, config, method="rwmh"):
            configs.append(config)
            raise _Stop

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", spy)
        cfg = ExperimentConfig.from_dict({"model_kind": "garch", "pilot_mean": [0.01, 0.16, 0.8],
                                          "pilot_cov": GARCH_COV, "replications": 1})
        with pytest.raises(_Stop):
            run_diagnose(cfg)
        assert configs[0].pilot_mean == cfg.pilot_mean
        assert configs[0].pilot_cov == cfg.pilot_cov
        # no config key sets init, so the chain starts at the pilot mean
        assert configs[0].init is None


# ---------------------------------------------------------------------------
# run_study on a cheap closed-form target

MU, SIGMA2 = 2.0, 3.0


@pytest.fixture(scope="module")
def gaussian_config():
    return ExperimentConfig.from_dict(gaussian_dict())


@pytest.fixture(scope="module")
def gaussian_run(gaussian_config):
    return run_study(gaussian_config)


def without_timing(report):
    out = copy.deepcopy(report)
    out.pop("timing")
    return out


def zv_column(report, p, j=0):
    """Column j of the degree-p per-replication ZV estimates of a study report."""
    return np.array(report["per_replication_estimates"]["zv"][str(p)])[:, j]


class TestRunStudy:
    def test_report_schema(self, gaussian_config, gaussian_run):
        report = gaussian_run
        assert report["schema"] == "zvmcmc-study-v1"
        assert report["config"] == json.loads(json.dumps(asdict(gaussian_config)))
        assert report["model"] == {
            "kind": "gaussian", "dimension": 1, "parameters": ["x"], "sampler": "rwmh",
        }
        assert report["protocol"] == "two-chain"
        assert report["degrees"] == [1, 2]
        assert report["replications_requested"] == 4
        assert report["replications_completed"] == 4
        assert report["partial"] is False
        assert report["replication_errors"] == []

    def test_seed_arithmetic(self, gaussian_run):
        report = gaussian_run
        assert report["seeds"]["base"] == 7
        assert report["seeds"]["fit"] == [7, 9, 11, 13]
        assert report["seeds"]["eval"] == [8, 10, 12, 14]

    @pytest.mark.parametrize("command,single_chain",
                             [("run", False), ("run", True), ("coverage", True)])
    def test_every_reported_seed_is_the_seed_of_a_sampled_chain(self, monkeypatch, tmp_path,
                                                                command, single_chain):
        used = []

        def spy(model, config, method="rwmh"):
            chain = sample_chain(model, config, method=method)
            used.append(config.seed)
            return chain

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", spy)
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            single_chain=single_chain, replications=3, reference_length=2000, threads=1))
        if command == "run":
            report = study = run_study(cfg)
        else:
            report = run_coverage(cfg)
            study = report["study"]
            assert report["reference"]["seed"] in used
        seeds = study["seeds"]
        assert len(seeds["fit"]) == len(seeds["eval"]) == 3
        assert set(seeds["fit"]) | set(seeds["eval"]) <= set(used)
        # one chain per replication under single-chain: its seed is both seeds
        assert (seeds["eval"] == seeds["fit"]) == single_chain
        write_study_csv(study, tmp_path / "study.csv")
        rows = [line.split(",") for line in (tmp_path / "study.csv").read_text().splitlines()[1:]]
        assert {int(row[k]) for row in rows for k in (4, 5)} <= set(used)

    def test_per_replication_estimates_shape(self, gaussian_run):
        per = gaussian_run["per_replication_estimates"]
        assert np.shape(per["ordinary"]) == (4, 1)
        assert list(per["zv"]) == ["1", "2"]
        assert all(np.shape(per["zv"][p]) == (4, 1) for p in ("1", "2"))
        assert all(type(v) is float for rows in (per["ordinary"], *per["zv"].values())
                   for row in rows for v in row)

    def test_accept_rates(self, gaussian_run):
        report = gaussian_run
        acc = report["accept"]
        assert 0.0 < acc["fit_rate_mean"] <= 1.0
        assert 0.0 < acc["eval_rate_mean"] <= 1.0
        assert list(acc) == ["fit_rate_mean", "eval_rate_mean", "fit_calls_per_step_mean",
                             "eval_calls_per_step_mean", "fit_gradient_rows_per_draw_mean",
                             "eval_gradient_rows_per_draw_mean"]
        # the Gaussian toy's default pilot is the target itself: the screen
        # passes under half of the proposals, and stage 2 accepts nearly
        # every one it passes
        for phase in ("fit", "eval"):
            calls = acc[f"{phase}_calls_per_step_mean"]
            assert 0.3 < calls < 0.6
            assert abs(calls - acc[f"{phase}_rate_mean"]) < 0.05
            # unthinned, a draw gets its own gradient row when the step that
            # kept it moved, and row 0 always does: rows and accepts per
            # draw differ by at most one in the 400 draws
            rows = acc[f"{phase}_gradient_rows_per_draw_mean"]
            assert abs(rows - acc[f"{phase}_rate_mean"]) <= 1 / 400

    def test_the_accept_block_reports_the_screens_calls_per_step(self, monkeypatch):
        chains = []

        def spy(model, config, method="rwmh"):
            chains.append((sample_chain(model, config, method=method), config))
            return chains[-1][0]

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", spy)
        shipped = json.loads((CONFIGS / "garch_demgbp.json").read_text())
        cfg = ExperimentConfig.from_dict({**shipped, "burn_in": 200, "fit_length": 100,
                                          "eval_length": 100, "thin": 2, "degrees": [1],
                                          "replications": 2, "threads": 1})
        acc = run_study(cfg)["accept"]
        rates = [chain.log_density_calls / (c.burn_in + c.length * c.thin) for chain, c in chains]
        assert all(0.0 < rate < 1.0 for rate in rates)
        assert acc["fit_calls_per_step_mean"] == np.mean(rates[0::2])
        assert acc["eval_calls_per_step_mean"] == np.mean(rates[1::2])

    def test_results_block(self, gaussian_run):
        report = gaussian_run
        entry = report["results"]["x"]
        assert abs(entry["ordinary"]["estimate_mean"] - MU) < 0.5
        assert entry["ordinary"]["variance"] > 0
        for p in ("1", "2"):
            deg = entry["zv"][p]
            assert abs(deg["estimate_mean"] - MU) < 0.5
            assert deg["ratio_infinite"] or deg["ratio"] > 1.0
            assert deg["ratio_method"] == "bootstrap-percentile"
            assert deg["dropped_column_replications"] == 0
            assert deg["ridge_replications"] == 0

    def test_linear_cv_is_exact_for_gaussian(self, gaussian_run):
        # residual of x against the degree-1 control variate is constant, so
        # every replication lands on mu to rounding error
        assert np.allclose(zv_column(gaussian_run, 1), MU, atol=1e-8)

    def test_timing_block(self, gaussian_run):
        report = gaussian_run
        t = report["timing"]
        for key in ("fit_chain_seconds", "eval_chain_seconds", "post_seconds",
                    "total_seconds", "ordinary_seconds", "zv_seconds", "zv_over_ordinary"):
            assert key in t
        assert t["zv_over_ordinary"] > 1.0
        # two chains: the ordinary arm pays for the eval chain, the zv arm
        # for both chains and the post-processing
        assert t["eval_chain_seconds"] > 0.0
        assert t["ordinary_seconds"] == t["eval_chain_seconds"]
        assert t["zv_seconds"] == pytest.approx(
            t["fit_chain_seconds"] + t["eval_chain_seconds"] + t["post_seconds"], rel=1e-12)
        assert [e - f for f, e in zip(report["seeds"]["fit"], report["seeds"]["eval"])] == [1] * 4

    def test_deterministic_given_config(self, gaussian_config, gaussian_run):
        first = gaussian_run
        second = run_study(ExperimentConfig.from_dict(asdict(gaussian_config)))
        assert json.dumps(without_timing(first), sort_keys=True) == \
            json.dumps(without_timing(second), sort_keys=True)

    def test_threads_do_not_change_results(self, gaussian_config, gaussian_run):
        serial = gaussian_run
        cfg = ExperimentConfig.from_dict({**asdict(gaussian_config), "threads": 2})
        pooled = run_study(cfg)
        serial = without_timing(serial)
        pooled = without_timing(pooled)
        serial["config"].pop("threads")
        pooled["config"].pop("threads")
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)

    def test_threads_0_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a study on one usable CPU started a process pool")

        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        cfg = ExperimentConfig.from_dict(gaussian_dict(replications=2, threads=0))
        report = run_study(cfg)
        assert report["replications_completed"] == 2

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        assert experiments._usable_cpus() == 3

    def test_study_csv(self, gaussian_run, tmp_path):
        report = gaussian_run
        path = tmp_path / "study.csv"
        write_study_csv(report, path)
        lines = path.read_text().strip().split("\n")
        # header + R * d * (ordinary + two zv degrees)
        assert lines[0] == "replication,parameter,method,estimate,fit_seed,eval_seed"
        assert len(lines) == 1 + 4 * 1 * 3
        first = lines[1].split(",")
        assert first[:3] == ["0", "x", "ordinary"]
        assert float(first[3]) == report["per_replication_estimates"]["ordinary"][0][0]
        assert first[4:] == ["7", "8"]


def small_study(name, **overrides):
    """A shipped config with short chains, one replication at a time."""
    return ExperimentConfig.from_file(CONFIGS / name, {
        "burn_in": 200, "fit_length": 300, "eval_length": 400, "replications": 2, "threads": 1,
        **overrides})


def replicated(monkeypatch, cfg, r):
    """(the row of replication r, the chains it sampled, the chains
    chain_gradients returned to it) of a study of cfg."""
    sampled, passed = [], []

    def sample(model, config, method="rwmh"):
        sampled.append(sample_chain(model, config, method=method))
        return sampled[-1]

    def gradients(model, chains):
        passed.extend(chain_gradients(model, chains))
        return passed[-len(chains):]

    monkeypatch.setattr(experiments, "sample_chain", sample)
    monkeypatch.setattr(experiments, "chain_gradients", gradients)
    model = build_model(cfg)
    row = experiments._replicate(cfg, model, control_variate_bases(cfg, model), None, r)
    assert row["error"] is None
    return row, sampled, passed


class TestGradientPass:
    def test_a_random_walk_replication_makes_one_gradient_call(self, monkeypatch):
        shapes = []
        original = GarchTarget.grad_log_density

        def spy(self, omega):
            shapes.append(np.shape(omega))
            return original(self, omega)

        monkeypatch.setattr(GarchTarget, "grad_log_density", spy)
        row, sampled, passed = replicated(monkeypatch, small_study("garch_demgbp.json"), 0)
        # the chains come out of the sampler without gradients, and one call
        # takes the rows of both that differ from the row before them
        assert [chain.has_gradients for chain in sampled] == [False, False]
        changed = [1 + np.count_nonzero(np.any(np.diff(c.draws, axis=0) != 0.0, axis=1))
                   for c in sampled]
        assert shapes == [(sum(changed), 3)]
        assert [chain.gradient_rows for chain in passed] == changed
        assert row["gradient_rows"] == [n / c.length for n, c in zip(changed, sampled)]
        assert row["gradient_seconds"] > 0.0

    def test_a_gibbs_replication_makes_no_gradient_call(self, monkeypatch):
        def spy(self, beta):
            raise AssertionError("grad_log_density called")

        monkeypatch.setattr(ProbitTarget, "grad_log_density", spy)
        row, sampled, passed = replicated(monkeypatch, small_study("probit_banknote.json"), 0)
        assert [chain.has_gradients for chain in sampled] == [True, True]
        assert passed == []
        assert row["gradient_rows"] == [1.0, 1.0] and row["gradient_seconds"] == 0.0

    @pytest.mark.parametrize("name,single_chain", [
        ("logit_banknote.json", False), ("garch_demgbp.json", False), ("toys.json", False),
        ("toys.json", True)])
    def test_the_merged_pass_gives_each_chain_the_gradients_it_has_alone(self, monkeypatch,
                                                                         name, single_chain):
        overrides = {"single_chain": True, "fit_length": 2000} if single_chain else {}
        cfg = small_study(name, **overrides)
        model = build_model(cfg)
        for r in range(2):
            _, _, passed = replicated(monkeypatch, cfg, r)
            plan = ([(cfg.eval_length, cfg.base_seed + 2 * r)] if single_chain else
                    [(cfg.fit_length, cfg.base_seed + 2 * r),
                     (cfg.eval_length, cfg.base_seed + 2 * r + 1)])
            assert len(passed) == len(plan)
            for chain, (length, seed) in zip(passed, plan):
                alone = sample_chain(model, experiments._chain_config(cfg, length, seed, cfg.thin))
                assert np.array_equal(chain.draws, alone.draws)
                assert np.array_equal(chain.gradients, alone.gradients)
                assert chain.gradient_rows == alone.gradient_rows


def blas_study(kind, threads):
    # 1100-draw chains give each chain one full 1024-row gradient block, whose
    # products are large enough for a multi-threaded OpenBLAS to split
    config = ExperimentConfig.from_file(CONFIGS / f"{kind}_banknote.json", {
        "burn_in": 200, "fit_length": 1100, "eval_length": 1100, "replications": 4,
        "threads": threads})
    report = run_study(config)
    report = without_timing(report)
    report["config"].pop("threads")
    return json.dumps(report, sort_keys=True)


def blas_thread_counts():
    return [get() for get, _ in _openblas_thread_controls()]


class TestBlasThreads:
    @pytest.mark.parametrize("kind", ["logit", "probit"])
    def test_worker_count_does_not_change_blas_models(self, kind):
        counts = blas_thread_counts()
        serial = blas_study(kind, 1)
        pooled = blas_study(kind, 2)
        assert serial == pooled
        assert blas_thread_counts() == counts

    def test_pool_gives_the_same_report_when_no_openblas_is_found(self, monkeypatch):
        found = blas_study("logit", 2)
        monkeypatch.setattr(experiments, "_openblas_thread_controls", lambda: [])
        assert blas_study("logit", 2) == found

    @pytest.mark.parametrize("command", ["run", "diagnose", "coverage"])
    def test_every_driver_holds_one_thread_in_one_process(self, monkeypatch, command):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        seen = []

        def spy(model, config, method="rwmh"):
            seen.append(blas_thread_counts())
            return sample_chain(model, config, method=method)

        monkeypatch.setattr(experiments, "sample_chain", spy)
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            replications=2, threads=1, reference_length=2000, single_chain=command == "coverage"))
        before = blas_thread_counts()
        try:
            for _, put in controls:
                put(2)
            {"run": run_study, "diagnose": run_diagnose, "coverage": run_coverage}[command](cfg)
            assert blas_thread_counts() == [2] * len(controls)
        finally:
            for (_, put), count in zip(controls, before):
                put(count)
        assert seen and all(counts == [1] * len(controls) for counts in seen)

    def test_holds_one_thread_and_restores_the_callers_counts(self):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        before = blas_thread_counts()
        try:
            for _, put in controls:
                put(2)
            with _single_threaded_blas():
                assert blas_thread_counts() == [1] * len(controls)
            assert blas_thread_counts() == [2] * len(controls)
            with pytest.raises(RuntimeError, match="body failed"):
                with _single_threaded_blas():
                    assert blas_thread_counts() == [1] * len(controls)
                    raise RuntimeError("body failed")
            assert blas_thread_counts() == [2] * len(controls)
        finally:
            for (_, put), count in zip(controls, before):
                put(count)


class TestRunStudyVariants:
    def test_single_chain_protocol(self, tmp_path):
        # eval_length governs the one chain; build_model rejects a fit_length
        chains = tmp_path / "chains"
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            single_chain=True, eval_length=500, replications=2, keep_chains=True,
            output_dir=str(tmp_path)))
        report = run_study(cfg)
        assert report["protocol"] == "single-chain"
        assert report["accept"]["fit_rate_mean"] == report["accept"]["eval_rate_mean"]
        assert report["seeds"]["eval"] == report["seeds"]["fit"]
        # the one chain is booked as the fit chain and pays for both arms
        t = report["timing"]
        assert t["eval_chain_seconds"] == 0
        assert t["ordinary_seconds"] == t["fit_chain_seconds"] > 0.0
        assert t["zv_seconds"] == pytest.approx(
            t["fit_chain_seconds"] + t["eval_chain_seconds"] + t["post_seconds"], rel=1e-12)
        files = sorted(f.name for f in chains.iterdir())
        assert files == ["rep0000_fit.csv", "rep0001_fit.csv"]
        rows = (chains / "rep0000_fit.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 500

    def test_two_chain_exports_both(self, tmp_path):
        # keep_chains alone asks for the chains, under <output_dir>/chains
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            replications=1, keep_chains=True, output_dir=str(tmp_path / "out")))
        run_study(cfg)
        files = sorted(f.name for f in (tmp_path / "out" / "chains").iterdir())
        assert files == ["rep0000_eval.csv", "rep0000_fit.csv"]
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        run_study(ExperimentConfig.from_dict(gaussian_dict(
            replications=1, output_dir=str(tmp_path / "none"))))
        assert not (tmp_path / "none").exists()

    @staticmethod
    def transformed_fits(f):
        """{degree: (fit, ftilde)} for f of a study's first Gaussian chain pair.

        Studies estimate the coordinate means; any other f goes through
        zv.fit_and_renormalize, the path _replicate takes.
        """
        cfg = ExperimentConfig.from_dict(gaussian_dict())
        model = build_model(cfg)
        fit_chain, eval_chain = (
            sample_chain(model, SamplerConfig(length=400, burn_in=200, seed=seed))
            for seed in (7, 8))
        center, scale = standardization_from_chain(fit_chain, model.constrained_coordinates)
        return eval_chain, fit_and_renormalize(fit_chain, eval_chain,
                                               control_variate_bases(cfg, model),
                                               f(fit_chain.draws), f(eval_chain.draws),
                                               center, scale)

    def test_square_transform(self):
        # x^2 is spanned by the quadratic control variates, so the degree-2
        # estimate hits E[x^2] = mu^2 + sigma2 exactly
        eval_chain, fits = self.transformed_fits(np.square)
        truth = MU**2 + SIGMA2
        assert abs(np.mean(eval_chain.draws**2) - truth) < 2.0
        assert np.allclose(fits[2][1].mean(axis=0), truth, atol=1e-6)

    def test_exp_transform(self):
        _, fits = self.transformed_fits(np.exp)
        assert all(np.isfinite(ftilde.mean(axis=0)).all() for _, ftilde in fits.values())

    def test_empty_basis_falls_back_to_ordinary(self):
        # the exponential's default exclusions drop its only degree-1
        # monomial, which leaves nothing to fit, so the zv arm must reproduce
        # the ordinary estimates and a unit ratio
        cfg = ExperimentConfig(model_kind="exponential", burn_in=200, fit_length=400,
                               eval_length=400, degrees=(1,), replications=4, base_seed=7)
        report = run_study(cfg)
        per = report["per_replication_estimates"]
        assert per["zv"]["1"] == per["ordinary"]
        deg = report["results"]["x"]["zv"]["1"]
        assert deg["ratio"] == 1.0
        assert deg["dropped_column_replications"] == 0

    def test_bad_exclusion_fails_fast(self):
        # exclusions is no config key, so a config naming one never reaches a sampler
        with pytest.raises(ConfigError, match="^unknown config keys: exclusions$"):
            ExperimentConfig.from_dict(gaussian_dict(exclusions=[[1, 1]]))

    def test_one_fit_per_replication_and_degree(self, monkeypatch):
        # all d coordinates share one fit per degree; Sigma_gg depends only on G
        shapes = []

        def spy(cv, f_values):
            shapes.append(np.shape(f_values))
            return fit_coefficients(cv, f_values)

        monkeypatch.setattr("zvmcmc.zv.fit_coefficients", spy)
        cfg = ExperimentConfig(model_kind="logit", burn_in=100, fit_length=200,
                               eval_length=200, degrees=(1, 2), replications=3, threads=1)
        report = run_study(cfg)
        assert report["replications_completed"] == 3
        assert shapes == [(200, 4)] * (3 * 2)

    def test_thinning_changes_estimates_not_schema(self):
        cfg = ExperimentConfig.from_dict(gaussian_dict(thin=3, replications=2))
        report = run_study(cfg)
        assert report["replications_completed"] == 2
        base = run_study(ExperimentConfig.from_dict(gaussian_dict(replications=2)))
        assert report["per_replication_estimates"] != base["per_replication_estimates"]


def fail_one_replication(monkeypatch, exc, seed):
    """Make the chain with the given seed raise exc inside run_study."""

    def chain(model, config, method="rwmh"):
        if config.seed == seed:
            raise exc
        return sample_chain(model, config, method=method)

    monkeypatch.setattr("zvmcmc.experiments.sample_chain", chain)


class TestReplicationFailures:
    @pytest.mark.parametrize("exc", [
        FloatingPointError("NaN log-density"),
        SupportError("x must be > 0"),
        InsufficientSampleError("too few draws"),
        np.linalg.LinAlgError("singular matrix"),
    ], ids=lambda e: type(e).__name__)
    def test_numerical_failure_makes_a_partial_study(self, monkeypatch, exc):
        cfg = ExperimentConfig.from_dict(gaussian_dict(threads=1))
        # replication 1 fails on its fit chain
        fail_one_replication(monkeypatch, exc, cfg.base_seed + 2)
        report = run_study(cfg)
        assert report["partial"] is True
        assert report["replications_completed"] == cfg.replications - 1
        assert report["replication_errors"] == [
            {"replication": 1, "error": f"{type(exc).__name__}: {exc}"}]

    def test_study_csv_labels_rows_by_replication_id(self, monkeypatch, tmp_path):
        cfg = ExperimentConfig.from_dict(gaussian_dict(threads=1))
        fail_one_replication(monkeypatch, FloatingPointError("NaN log-density"), cfg.base_seed + 2)
        report = run_study(cfg)
        path = tmp_path / "study.csv"
        write_study_csv(report, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        # replication 1 failed, so its id appears nowhere and 2 and 3 keep theirs
        assert sorted({(r[0], r[4]) for r in rows}) == [("0", "7"), ("2", "11"), ("3", "13")]

    def test_a_study_whose_every_replication_fails_names_the_first_error(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(gaussian_dict(threads=1))

        def chain(model, config, method="rwmh"):
            raise FloatingPointError(f"NaN log-density in the chain with seed {config.seed}")

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", chain)
        with pytest.raises(RuntimeError) as raised:
            run_study(cfg)
        assert str(raised.value) == ("every replication failed; first error: FloatingPointError: "
                                     f"NaN log-density in the chain with seed {cfg.base_seed}")

    @pytest.mark.parametrize("exc", [TypeError("unsupported operand"), KeyError("zv")],
                             ids=lambda e: type(e).__name__)
    def test_programming_error_fails_the_study(self, monkeypatch, exc):
        cfg = ExperimentConfig.from_dict(gaussian_dict(threads=1))
        fail_one_replication(monkeypatch, exc, cfg.base_seed + 2)
        with pytest.raises(type(exc)):
            run_study(cfg)


# ---------------------------------------------------------------------------
# run_coverage


class TestRunCoverage:
    def test_requires_single_chain(self):
        cfg = ExperimentConfig.from_dict(gaussian_dict())
        with pytest.raises(ConfigError, match="single_chain"):
            run_coverage(cfg)

    def test_gaussian_coverage_report(self):
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            single_chain=True, replications=6, reference_length=30_000, base_seed=3))
        report = run_coverage(cfg)
        assert report["schema"] == "zvmcmc-coverage-v1"
        ref = report["reference"]
        assert ref["length"] == 30_000
        assert ref["lower"][0] < ref["point"][0] < ref["upper"][0]
        # the long reference chain should bracket the true mean here
        assert ref["lower"][0] < MU < ref["upper"][0]
        for p in ("1", "2"):
            cov = report["coverage"][p]
            assert cov["events_total"] == 6
            assert 0.0 <= cov["fraction"] <= 1.0
            assert cov["events_inside"] == round(cov["fraction"] * 6)
            assert set(cov["per_parameter"]) == {"x"}
        # the exact linear control variate pins every estimate to mu
        assert report["coverage"]["1"]["fraction"] == 1.0
        for p in ("1", "2"):
            z = report["coverage"][p]["z_scores"]["x"]
            ref_se = np.sqrt(ref["asvar"][0] / ref["length"])
            zv = np.array(report["study"]["per_replication_estimates"]["zv"][p])[:, 0]
            se = np.sqrt(zv.var(ddof=1) / 6 + ref_se**2)
            assert z == pytest.approx((zv.mean() - ref["point"][0]) / se, rel=1e-12)
        assert "timing" not in report["study"]
        assert report["study"]["schema"] == "zvmcmc-study-v1"
        assert set(report["timing"]) == {"reference_seconds", "study_seconds", "total_seconds"}


    def test_mean_z_score_does_not_rest_on_the_reference_interval(self):
        # a reference interval far narrower than the estimates' spread: every
        # estimate falls outside it, while their mean agrees with the
        # reference point and gets a small z-score by the combined standard
        # error; estimates as tight but off the reference get a large one
        point, half = np.array([1.0, -2.0]), np.array([1e-4, 1e-4])
        reference = ReferenceReport(point=point, lower=point - half, upper=point + half,
                                    length=100_000, asvar=(half / 1.96) ** 2 * 100_000)
        spread = np.array([[-0.02], [0.03], [-0.01], [0.025], [-0.025]]) * np.array([1.0, 2.0])
        basis = monomial_basis(2, 1)
        entry = _coverage_entry(point + spread, reference, ("a", "b"), basis)
        assert entry["empty_basis"] is False
        assert (entry["events_inside"], entry["events_total"], entry["fraction"]) == (0, 10, 0.0)
        assert entry["per_parameter"] == {"a": 0.0, "b": 0.0}
        assert set(entry["z_scores"]) == {"a", "b"}
        assert all(abs(z) < 0.2 for z in entry["z_scores"].values())
        off = _coverage_entry(point + 0.05 + spread / 10, reference, ("a", "b"), basis)
        assert all(z > 20 for z in off["z_scores"].values())
        one = _coverage_entry(point[None, :], reference, ("a", "b"), basis)
        assert one["events_inside"] == 2 and all(np.isnan(z) for z in one["z_scores"].values())

    def test_a_degree_whose_basis_is_empty_is_marked(self):
        # the exponential toy leaves out its linear monomial, so degree 1 has
        # no control variate and its estimate is the plain mean
        report = run_coverage(ExperimentConfig(
            model_kind="exponential", single_chain=True, burn_in=100, eval_length=200,
            degrees=(1, 2), replications=2, reference_length=2000, threads=1))
        assert [report["coverage"][p]["empty_basis"] for p in ("1", "2")] == [True, False]
        assert list(report["coverage"]["1"])[0] == "empty_basis"
        study = report["study"]["per_replication_estimates"]
        assert study["zv"]["1"] == study["ordinary"]

    def test_reference_chain_starts_at_the_configured_init(self, monkeypatch):
        starts = []

        def spy(model, config, method="rwmh"):
            chain = sample_chain(model, config, method=method)
            starts.append((config.length, round(chain.draws[0, 0], 6)))
            return chain

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", spy)
        # a step of 1e-9 keeps every chain at its start, the pilot mean, so
        # the reference point shows where the reference chain began
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            single_chain=True, replications=2, reference_length=3000, pilot_mean=[9.0],
            pilot_cov=[[1.0]], proposal_scale=1e-9, threads=1))
        report = run_coverage(cfg)
        assert starts == [(3000, 9.0), (400, 9.0), (400, 9.0)]
        assert report["reference"]["point"][0] == pytest.approx(9.0, abs=1e-6)

    def test_gibbs_coverage_rejects_proposal_sd(self, monkeypatch):
        # proposal_sd is retired: a Gibbs config carrying it fails as an
        # unknown key, and so does any other
        sampled = []
        monkeypatch.setattr("zvmcmc.experiments.sample_chain", lambda *a, **k: sampled.append(a))
        with pytest.raises(ConfigError, match="^unknown config keys: proposal_sd$"):
            run_coverage(ExperimentConfig.from_dict(
                {"model_kind": "probit", "single_chain": True, "burn_in": 100, "eval_length": 200,
                 "degrees": [1], "replications": 2, "reference_length": 2000,
                 "proposal_sd": [0.1, 0.1, 0.1, 0.1], "threads": 1}))
        assert sampled == []

    def test_builds_the_model_once(self, monkeypatch):
        calls = []

        def spy(**kwargs):
            calls.append(kwargs)
            return synthetic_banknote(**kwargs)

        monkeypatch.setattr("zvmcmc.experiments.synthetic_banknote", spy)
        cfg = ExperimentConfig(model_kind="probit", single_chain=True, burn_in=100, eval_length=200,
                               degrees=(1,), replications=2, reference_length=2000, threads=1)
        run_coverage(cfg)
        # the generator's own default seed applies
        assert calls == [{}]

    @pytest.mark.parametrize("keep", [True, False])
    def test_keep_chains_writes_the_replication_chains(self, tmp_path, keep):
        # the reference chain has no gradients and is never written
        out = tmp_path / "out"
        run_coverage(ExperimentConfig.from_dict(gaussian_dict(
            single_chain=True, replications=2, reference_length=2000, keep_chains=keep,
            output_dir=str(out))))
        if keep:
            assert sorted(f.name for f in (out / "chains").iterdir()) == [
                "rep0000_fit.csv", "rep0001_fit.csv"]
            assert len((out / "chains" / "rep0000_fit.csv").read_text().splitlines()) == 1 + 400
        else:
            assert not out.exists()

    def test_reference_block_has_the_keys_of_diagnoses_and_the_seed(self):
        cfg = ExperimentConfig.from_dict(gaussian_dict(
            single_chain=True, replications=2, reference_length=2000, diagnose_length=2000))
        diagnosed = run_diagnose(cfg)["reference"]
        assert list(run_coverage(cfg)["reference"]) == ["seed", *diagnosed]
        assert list(diagnosed) == ["point", "lower", "upper", "length", "asvar"]


# ---------------------------------------------------------------------------
# run_diagnose


class TestRunDiagnose:
    def test_gaussian_diagnose_report(self):
        cfg = ExperimentConfig.from_dict(gaussian_dict(diagnose_length=2000))
        report = run_diagnose(cfg)
        assert report["schema"] == "zvmcmc-diagnose-v1"
        assert report["model"]["sampler"] == "rwmh"
        assert report["chain"]["length"] == 2000
        assert report["chain"]["seed"] == 7
        # the screen passes under half of the proposals
        assert 0.3 < report["chain"]["calls_per_step"] < 0.6
        basis = report["basis"]
        assert basis["degree"] == 2 and basis["size"] == 2
        assert basis["exponents"] == [[1], [2]]
        zm = report["zero_mean"]
        assert len(zm["z_scores"]) == 2
        assert all(abs(z) < 8 for z in zm["z_scores"])
        assert zm["degenerate"] == [False, False]
        lk = report["linnik"]
        assert lk["divergent"] == [False]
        assert abs(lk["estimates"][0] - 1.0 / SIGMA2) < 0.15
        assert report["moment_2_plus_delta"]["stable"] == [True, True]
        assert report["reference"]["lower"][0] < report["reference"]["upper"][0]
        assert report["timing"]["total_seconds"] > 0

    def test_each_diagnostics_block_is_the_written_form_of_its_result(self, monkeypatch):
        chains, arrays = [], []

        def chain_spy(model, config, method="rwmh"):
            chains.append(sample_chain(model, config, method=method))
            return chains[-1]

        def array_spy(chain, basis, center=None, scale=None):
            arrays.append(eval_control_variates(chain, basis, center=center, scale=scale))
            return arrays[-1]

        monkeypatch.setattr("zvmcmc.experiments.sample_chain", chain_spy)
        monkeypatch.setattr("zvmcmc.experiments.eval_control_variates", array_spy)
        report = run_diagnose(ExperimentConfig.from_dict(gaussian_dict(diagnose_length=2000)))
        (chain,), (G,) = chains, arrays
        expected = {"zero_mean": cv_zero_mean_test(G), "linnik": linnik_estimate(chain),
                    "moment_2_plus_delta": moment_diagnostic(G),
                    "reference": long_chain_reference(chain)}
        for key, result in expected.items():
            assert report[key] == _jsonable(result)
            assert list(report[key]) == [f.name for f in fields(result)]

    @pytest.mark.parametrize("keep", [True, False])
    def test_keep_chains_writes_the_chain(self, tmp_path, keep):
        out = tmp_path / "out"
        report = run_diagnose(ExperimentConfig.from_dict(gaussian_dict(
            diagnose_length=2000, keep_chains=keep, output_dir=str(out))))
        if keep:
            assert [f.name for f in (out / "chains").iterdir()] == ["diagnose.csv"]
            rows = np.loadtxt(out / "chains" / "diagnose.csv", delimiter=",", skiprows=1)
            assert rows.shape == (2000, 3)
            assert rows[:, 1].mean() == pytest.approx(report["reference"]["point"][0], rel=1e-12)
        else:
            assert not out.exists()

    def test_exponential_degree2_control_variate_has_zero_mean(self):
        # centering x would leak the boundary term of pi(0) > 0 into (x - c)^2
        cfg = ExperimentConfig(model_kind="exponential", degrees=(2,), diagnose_length=20000)
        report = run_diagnose(cfg)
        assert report["basis"]["exponents"] == [[2]]
        assert max(abs(z) for z in report["zero_mean"]["z_scores"]) < 4

    def test_probit_diagnose_uses_gibbs(self):
        cfg = ExperimentConfig(model_kind="probit",
                               burn_in=200, diagnose_length=1200, degrees=(1,))
        report = run_diagnose(cfg)
        assert report["model"]["sampler"] == "gibbs"
        assert report["chain"]["accept_rate"] == 1.0
        assert report["chain"]["calls_per_step"] == 0.0
        assert report["basis"]["size"] == 4
