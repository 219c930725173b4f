import copy
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from helpers import run_fresh

import zvmcmc
import zvmcmc.samplers
from zvmcmc import (ConfigError, ExperimentConfig, SamplerConfig, SupportError, run_coverage,
                    run_diagnose, run_study, sample_chain)
from zvmcmc.cli import main
from zvmcmc.experiments import build_model


def write_config(tmp_path, **overrides):
    raw = {
        "model_kind": "gaussian",
        "mu": 2.0,
        "sigma2": 3.0,
        "burn_in": 200,
        "fit_length": 400,
        "eval_length": 400,
        "degrees": [1, 2],
        "replications": 3,
        "base_seed": 7,
        "threads": 1,
        "diagnose_length": 2000,
        "output_dir": str(tmp_path / "out"),
    }
    if overrides.get("model_kind", "gaussian") != "gaussian":
        # the Gaussian parameters would be keys the model never reads
        del raw["mu"], raw["sigma2"]
    if overrides.get("single_chain"):
        # a single-chain run never reads fit_length
        del raw["fit_length"]
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def without_timing(report):
    out = copy.deepcopy(report)
    out.pop("timing")
    return out


def test_run_prints_bootstrap_interval_for_small_study(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    degree_parts = re.findall(r"degree (\d) ratio ([^;\n]*)", printed)
    assert [p for p, _ in degree_parts] == ["1", "2"]
    for _, text in degree_parts:
        assert re.fullmatch(r"\S+ \[\S+, \S+\]", text), text
    assert "point only" not in printed
    with open(tmp_path / "out" / "study.json") as fh:
        written = json.load(fh)
    for deg in written["results"]["x"]["zv"].values():
        assert deg["ratio_method"] == "bootstrap-percentile"
        assert deg["ratio_lower"] is not None and deg["ratio_upper"] is not None


def test_run_single_replication_prints_point_only(tmp_path, capsys):
    path = write_config(tmp_path, replications=1)
    assert main(["run", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("(point only)") == 2


@pytest.mark.parametrize("replications", [1, 3])
def test_coverage_prints_the_worst_mean_z_per_degree(tmp_path, capsys, replications):
    path = write_config(tmp_path, single_chain=True, reference_length=5000,
                        replications=replications)
    assert main(["coverage", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(tmp_path / "out" / "coverage.json") as fh:
        written = json.load(fh)
    if replications == 1:
        want = "degree 1 n/a, degree 2 n/a"
    else:
        want = ", ".join(f"degree {p} {abs(entry['z_scores']['x']):.4g} (x)"
                         for p, entry in written["coverage"].items())
    assert printed[-2] == "mean ZV estimate against the reference point, worst |z|: " + want


@pytest.mark.parametrize("command,overrides", [
    ("run", {"replications": 1}),
    ("run", {"replications": 3}),
    # one replication: every coverage z-score is NaN, written null
    ("coverage", {"single_chain": True, "replications": 1, "reference_length": 5000}),
    ("diagnose", {}),
], ids=["run-1", "run-3", "coverage-1", "diagnose"])
def test_returned_report_equals_the_written_file(tmp_path, command, overrides):
    path = write_config(tmp_path, **overrides)
    run, name = {"run": (run_study, "study.json"), "coverage": (run_coverage, "coverage.json"),
                 "diagnose": (run_diagnose, "diagnose.json")}[command]
    returned = run(ExperimentConfig.from_file(path))
    assert json.loads(json.dumps(returned, allow_nan=False)) == returned
    assert main([command, "--config", str(path)]) == 0
    with open(tmp_path / "out" / name) as fh:
        written = json.load(fh)
    assert without_timing(returned) == without_timing(written)
    if command == "coverage":
        assert [z for entry in returned["coverage"].values() for z in entry["z_scores"].values()] == \
            [None, None]


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import, in every process and pool worker
    src = str(Path(zvmcmc.__file__).resolve().parents[1])
    code = "import sys, zvmcmc.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# the compiled cores of scipy.special and scipy.linalg, loaded with them
SCIPY_CORES = ("scipy.special._ufuncs", "scipy.linalg._fblas")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scipy_cores_after(code):
    """The SCIPY_CORES in sys.modules after code runs in a fresh interpreter."""
    report = f"\nimport sys\nprint(*(m for m in {SCIPY_CORES!r} if m in sys.modules))"
    return run_fresh(code + report).stdout.decode().splitlines()[-1].split()


def test_cli_import_and_the_logit_and_toy_models_leave_scipy_unloaded():
    code = ("import zvmcmc.cli\n"
            "from zvmcmc.experiments import ExperimentConfig, build_model\n"
            "for kind in ('logit', 'gaussian', 'exponential', 'gamma'):\n"
            "    build_model(ExperimentConfig.from_dict({'model_kind': kind}))")
    assert scipy_cores_after(code) == []


def test_a_logit_run_leaves_scipy_unloaded(tmp_path):
    argv = ["run", "--config", str(CONFIGS / "logit_banknote.json"), "--replications", "1",
            "--threads", "1", "--out", str(tmp_path)]
    code = f"from zvmcmc.cli import main\nassert main({argv!r}) == 0"
    assert scipy_cores_after(code) == []
    assert json.loads((tmp_path / "study.json").read_text())["replications_completed"] == 1


@pytest.mark.parametrize("config,loaded", [("probit_banknote.json", ["scipy.special._ufuncs"]),
                                           ("garch_demgbp.json", ["scipy.linalg._fblas"])],
                         ids=["probit", "garch"])
def test_building_a_model_loads_only_the_scipy_subpackage_it_needs(config, loaded):
    code = ("from zvmcmc.experiments import ExperimentConfig, build_model\n"
            f"build_model(ExperimentConfig.from_file({str(CONFIGS / config)!r}))")
    assert scipy_cores_after(code) == loaded


def test_validate_takes_the_config_flags_of_the_other_commands_and_no_more(capsys):
    from zvmcmc.cli import _build_parser

    parser = _build_parser()
    for command in ("validate", "run", "coverage", "diagnose"):
        args = parser.parse_args([command, "--config", "c.json"])
        assert (args.command, args.config) == (command, "c.json")
    # every flag but --config is parsed under the name of the config key it overrides
    assert sorted(vars(args)) == ["base_seed", "command", "config", "diagnose_length", "keep_chains",
                                  "output_dir", "threads"]
    assert sorted(vars(parser.parse_args(["validate", "--config", "c.json"]))) == [
        "command", "config"]
    # run, coverage and diagnose all take --keep-chains, validate does not
    for command in ("run", "coverage", "diagnose"):
        assert parser.parse_args([command, "--config", "c.json", "--keep-chains"]).keep_chains is True
    for flag in (["--out", "x"], ["--seed", "3"], ["--threads", "1"], ["--keep-chains"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["validate", "--config", "c.json", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err
    # degrees, single_chain and add_intercept are set in the config file only
    for command in ("validate", "run", "coverage", "diagnose"):
        for flag in (["--degrees", "1,2"], ["--single-chain"], ["--add-intercept"]):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--config", "c.json", *flag])
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_the_version_is_a_flag_and_not_a_command(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--version"])
    assert raised.value.code == 0
    assert capsys.readouterr().out == f"zvmcmc {zvmcmc.__version__}\n"
    with pytest.raises(SystemExit) as raised:
        main(["version"])
    assert raised.value.code == 2
    assert "invalid choice: 'version'" in capsys.readouterr().err


def fail_chains(monkeypatch, seeds=None):
    """Make every chain, or the chains with the given seeds, raise FloatingPointError."""

    def chain(model, config, method="rwmh"):
        if seeds is None or config.seed in seeds:
            raise FloatingPointError("NaN log-density at proposal [1.0]")
        return sample_chain(model, config, method=method)

    monkeypatch.setattr("zvmcmc.experiments.sample_chain", chain)


def test_a_study_whose_every_replication_fails_exits_1(tmp_path, capsys, monkeypatch):
    fail_chains(monkeypatch)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 1
    assert capsys.readouterr().err == (
        "error: RuntimeError: every replication failed; first error: "
        "FloatingPointError: NaN log-density at proposal [1.0]\n")
    assert not (tmp_path / "out" / "study.json").exists()


def test_a_partial_study_says_so_and_exits_0(tmp_path, capsys, monkeypatch):
    # replication 1's fit chain has seed base_seed + 2
    fail_chains(monkeypatch, seeds={9})
    assert main(["run", "--config", str(write_config(tmp_path, base_seed=7))]) == 0
    assert "replications 2/3 (partial; see replication_errors in the report)\n" in \
        capsys.readouterr().out
    with open(tmp_path / "out" / "study.json") as fh:
        written = json.load(fh)
    assert written["partial"] is True
    assert written["replication_errors"] == [
        {"replication": 1, "error": "FloatingPointError: NaN log-density at proposal [1.0]"}]


def test_diagnose_keep_chains_flag_writes_the_chain(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["diagnose", "--config", str(path), "--keep-chains"]) == 0
    out = tmp_path / "out"
    assert [f.name for f in (out / "chains").iterdir()] == ["diagnose.csv"]
    assert len((out / "chains" / "diagnose.csv").read_text().splitlines()) == 1 + 2000
    assert json.loads((out / "diagnose.json").read_text())["config"]["keep_chains"] is True


@pytest.mark.parametrize("command", ["validate", "run", "coverage", "diagnose"])
def test_a_config_naming_a_sampler_is_rejected(tmp_path, capsys, command):
    # the model kind picks the sampler, so sampler_type is no config key
    path = write_config(tmp_path, model_kind="probit", sampler_type="gibbs")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: sampler_type\n"
    assert not (tmp_path / "out").exists()


def test_validate_prints_basis_sizes_of_shipped_configs(capsys):
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("logit_banknote", "probit_banknote", "toys", "garch_demgbp", "coverage_probit",
                 "coverage_garch", "coverage_logit", "coverage_gaussian", "coverage_exponential",
                 "coverage_gamma"):
        assert main(["validate", "--config", str(configs / f"{name}.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config ok: model logit (dimension 4), sampler rwmh, degree 1: 4 terms, degree 2: 14 terms",
        "config ok: model probit (dimension 4), sampler gibbs, degree 1: 4 terms, degree 2: 14 terms",
        "config ok: model gaussian (dimension 1), sampler rwmh, degree 1: 1 terms, degree 2: 2 terms",
        "config ok: model garch (dimension 3), sampler rwmh, degree 1: 3 terms, degree 2: 9 terms, "
        "degree 3: 19 terms",
        "config ok: model probit (dimension 4), sampler gibbs, degree 1: 4 terms, degree 2: 14 terms",
        "config ok: model garch (dimension 3), sampler rwmh, degree 1: 3 terms, degree 2: 9 terms, "
        "degree 3: 19 terms",
        "config ok: model logit (dimension 4), sampler rwmh, degree 1: 4 terms, degree 2: 14 terms",
        "config ok: model gaussian (dimension 1), sampler rwmh, degree 1: 1 terms, degree 2: 2 terms, "
        "degree 3: 3 terms",
        "config ok: model exponential (dimension 1), sampler rwmh, degree 1: 0 terms, "
        "degree 2: 1 terms, degree 3: 2 terms",
        "config ok: model gamma (dimension 1), sampler rwmh, degree 1: 0 terms, degree 2: 1 terms, "
        "degree 3: 2 terms",
    ]


LOGIT_PILOT = {"pilot_mean": [0.0] * 4, "pilot_cov": np.eye(4).tolist()}


@pytest.mark.parametrize("command", ["validate", "run", "coverage", "diagnose"])
@pytest.mark.parametrize("fields,message", [
    # proposal_sd is retired, so a scale beside it is refused for the key
    ({"model_kind": "logit", "proposal_scale": 1.6, "proposal_sd": [0.1], **LOGIT_PILOT},
     "unknown config keys: proposal_sd"),
    # a scale needs the whole pilot or none of it (the model's default)
    ({"model_kind": "logit", "proposal_scale": 1.6, "pilot_mean": [0.0] * 4},
     "pilot_mean and pilot_cov must be set together; pilot_cov is not"),
    ({"model_kind": "logit", "proposal_scale": 0, **LOGIT_PILOT},
     "proposal_scale must be a finite number > 0, got 0"),
    ({"model_kind": "logit", "proposal_scale": -1.6, **LOGIT_PILOT},
     "proposal_scale must be a finite number > 0, got -1.6"),
    ({"model_kind": "logit", "proposal_scale": math.inf, **LOGIT_PILOT},
     "proposal_scale must be a finite number > 0, got inf"),
    ({"model_kind": "logit", "proposal_scale": True, **LOGIT_PILOT},
     "proposal_scale must be a finite number > 0, got True"),
    ({"model_kind": "probit", "proposal_scale": 1.6},
     "proposal_scale is set but never read: the gibbs sampler takes no proposal"),
], ids=["scale-beside-sd", "scale-without-pilot", "scale-zero", "scale-negative",
        "scale-infinite", "scale-bool", "scale-gibbs"])
def test_a_bad_proposal_scale_is_rejected_before_sampling(tmp_path, capsys, monkeypatch, command,
                                                          fields, message):
    sampled = []
    for name in ("rw_metropolis", "gibbs_probit"):
        monkeypatch.setattr(zvmcmc.samplers, name, lambda *args, **kwargs: sampled.append(args))
    path = write_config(tmp_path, **{"single_chain": True, **fields})
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sampled == []


# the proposal's geometry is the pilot covariance: a scalar, one of the wrong
# size, and one with a zero variance
SINGULAR_COV = np.diag([1.0, 0.0, 1.0, 1.0]).tolist()
MODEL_SIZED_FIELD_ERRORS = [
    ({"model_kind": "logit", "pilot_mean": [0.0] * 4, "pilot_cov": 0.1},
     "pilot_cov must be a list of lists of numbers, got 0.1"),
    ({"model_kind": "logit", "pilot_mean": [0.0] * 4, "pilot_cov": np.eye(3).tolist()},
     "pilot_cov must be a 4 x 4 matrix of finite numbers for model logit"),
    ({"model_kind": "logit", "pilot_mean": [0.0] * 4, "pilot_cov": SINGULAR_COV},
     "pilot_cov must be positive definite"),
    # the chain starts at the pilot mean
    ({"model_kind": "logit", "pilot_mean": [0.0, 0.0], "pilot_cov": np.eye(4).tolist()},
     "pilot_mean must be 4 finite numbers for model logit, got [0.0, 0.0]"),
    ({"model_kind": "garch", "pilot_mean": [-1, 0.1, 0.5], "pilot_cov": np.eye(3).tolist()},
     "pilot_mean [-1.0, 0.1, 0.5] is outside the support of garch: omega_1 must be > 0"),
]

# malformed values of plain config fields, each a ConfigError naming the field
MALFORMED_FIELD_ERRORS = [
    ({"burn_in": None}, "burn_in must be a non-negative integer, got None"),
    ({"burn_in": "abc"}, "burn_in must be a non-negative integer, got 'abc'"),
    ({"thin": None}, "thin must be an integer >= 1, got None"),
    ({"replications": None}, "replications must be an integer >= 1, got None"),
    ({"mu": None}, "mu must be a finite number, got None"),
    ({"sigma2": "abc"}, "sigma2 must be a finite number > 0, got 'abc'"),
    ({"sigma2": -1}, "sigma2 must be a finite number > 0, got -1"),
    # a retired key is unknown, whatever its value
    ({"model_kind": "gamma", "gamma_shape": -2}, "unknown config keys: gamma_shape"),
    ({"model_kind": "exponential", "lam": 0}, "unknown config keys: lam"),
    ({"model_kind": "logit", "synthetic_seed": 1.5}, "unknown config keys: synthetic_seed"),
    ({"model_kind": "logit", "synthetic_seed": -1}, "unknown config keys: synthetic_seed"),
    ({"model_kind": "logit", "data_path": 7}, "data_path must be a string, got int"),
    ({"output_dir": 5}, "output_dir must be a string, got int"),
    ({"output_dir": ""}, "output_dir must not be empty"),
    # chains too short for the checks that read them
    ({"diagnose_length": 999}, "diagnose_length must be an integer >= 1000, got 999"),
    ({"reference_length": 10}, "reference_length must be an integer >= 20, got 10"),
    ({"exclusions": [[5]]}, "unknown config keys: exclusions"),
    ({"exclusions": [[3, 1]]}, "unknown config keys: exclusions"),
    ({"exclusions": [[2, 0]]}, "unknown config keys: exclusions"),
    # values of the wrong JSON type that Python would otherwise coerce
    ({"single_chain": "false"}, "single_chain must be true or false, got 'false'"),
    ({"keep_chains": 1}, "keep_chains must be true or false, got 1"),
    ({"model_kind": "logit", "add_intercept": "true"}, "add_intercept must be true or false, got 'true'"),
    ({"degrees": [1.5, 2]}, "degrees must be a list of integers, got [1.5, 2]"),
    ({"replications": True}, "replications must be an integer >= 1, got True"),
    ({"sigma2": True}, "sigma2 must be a finite number > 0, got True"),
    ({"prior_sd": [True, 1.0, 1.0]}, "unknown config keys: prior_sd"),
    ({"exclusions": [[1.5]]}, "unknown config keys: exclusions"),
]


@pytest.mark.parametrize("command", ["validate", "run", "coverage", "diagnose"])
@pytest.mark.parametrize("fields,message", MODEL_SIZED_FIELD_ERRORS + MALFORMED_FIELD_ERRORS, ids=[
    "proposal-scalar", "proposal-length", "proposal-zero", "init-length", "init-support",
    "burn-in-null", "burn-in-text", "thin-null", "replications-null", "mu-null", "sigma2-text",
    "sigma2-negative", "gamma-shape-negative", "lam-zero", "synthetic-seed-fraction",
    "synthetic-seed-negative", "data-path-number", "output-dir-number", "output-dir-empty", "diagnose-length-short",
    "reference-length-short", "exclusion-above-degree-3",
    "exclusion-long-above-degree-3", "exclusion-long", "single-chain-text", "keep-chains-number",
    "add-intercept-text", "degrees-fraction", "replications-bool", "sigma2-bool", "prior-sd-bool",
    "exclusion-fraction"])
def test_model_sized_fields_are_rejected_before_sampling(tmp_path, capsys, monkeypatch, command,
                                                         fields, message):
    sampled = []
    for name in ("rw_metropolis", "gibbs_probit"):
        monkeypatch.setattr(zvmcmc.samplers, name, lambda *args, **kwargs: sampled.append(args))
    path = write_config(tmp_path, **{"single_chain": True, **fields})
    assert main([command, "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert sampled == []
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_model_sized_fields_that_fit_pass_validate(tmp_path, capsys):
    # a scale without a pilot steps by the model's default pilot
    for fields in ({"model_kind": "logit", "proposal_scale": 1.6},
                   {"model_kind": "exponential", "pilot_mean": [0.5], "pilot_cov": [[1.0]]},
                   {"model_kind": "garch", "pilot_mean": [1e-5, 0.0, 0.5],
                    "pilot_cov": np.eye(3).tolist()}):
        path = write_config(tmp_path, **fields)
        assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.count("config ok") == 3


@pytest.mark.parametrize("fields,error", [
    ({"model_kind": "logit", "pilot_mean": [0.0] * 4, "pilot_cov": np.eye(3).tolist()}, ValueError),
    ({"model_kind": "logit", "pilot_mean": [0.0] * 4, "pilot_cov": SINGULAR_COV}, ValueError),
    ({"model_kind": "logit", "pilot_mean": [0.0, 0.0], "pilot_cov": np.eye(4).tolist()}, ValueError),
    ({"model_kind": "garch", "pilot_mean": [-1, 0.1, 0.5], "pilot_cov": np.eye(3).tolist()},
     SupportError),
], ids=["proposal-length", "proposal-zero", "init-length", "init-support"])
def test_validate_and_the_sampler_reject_a_chain_input_with_one_message(tmp_path, capsys, fields,
                                                                          error):
    assert main(["validate", "--config", str(write_config(tmp_path, **fields))]) == 2
    printed = capsys.readouterr().err
    model = build_model(ExperimentConfig(model_kind=fields["model_kind"]))
    chain = {key: value for key, value in fields.items() if key != "model_kind"}
    with pytest.raises(error) as raised:
        sample_chain(model, SamplerConfig(length=10, **chain))
    assert type(raised.value) is error
    assert printed == f"error: {raised.value}\n"


def data_files(tmp_path):
    design = tmp_path / "design.csv"
    # not separable: with x1 = 0.5 at y = 0 and -0.5 at y = 1, no line splits
    # the responses, so the logit posterior has a mode for its default pilot
    design.write_text("x1,y\n1.0,1\n-1.0,0\n2.0,1\n-2.0,0\n0.5,0\n-0.5,1\n")
    prices = tmp_path / "prices.csv"
    prices.write_text("date,price\n" + "".join(f"d{i},{1.0 + 0.01 * (i % 3)}\n" for i in range(30)))
    return {"design": str(design), "prices": str(prices)}


# keys set away from their default that the model kind, data source or sampler never reads
UNREAD_KEYS = [
    ({"model_kind": "gaussian", "data_path": "no/such/file.csv", "add_intercept": True},
     "data_path"),
    ({"model_kind": "gaussian", "add_intercept": True}, "add_intercept"),
    ({"model_kind": "exponential", "synthetic_seed": 9}, "synthetic_seed"),
    ({"model_kind": "gamma", "prior_sd": [1, 2, 3]}, "prior_sd"),
    ({"model_kind": "exponential", "mu": 1.0}, "mu"),
    ({"model_kind": "probit", "sigma2": 2.0}, "sigma2"),
    ({"model_kind": "gamma", "lam": 2.0}, "lam"),
    ({"model_kind": "logit", "gamma_shape": 2.0}, "gamma_shape"),
    ({"model_kind": "garch", "gamma_scale": 2.0}, "gamma_scale"),
    ({"model_kind": "logit", "prior_sd": [1, 2, 3]}, "prior_sd"),
    ({"model_kind": "probit", "proposal_sd": [0.1, 0.1]}, "proposal_sd"),
    ({"model_kind": "probit", "data_path": "design", "proposal_sd": [0.1]}, "proposal_sd"),
    ({"model_kind": "logit", "add_intercept": True}, "add_intercept"),
    ({"model_kind": "garch", "data_path": "prices", "add_intercept": True}, "add_intercept"),
    ({"model_kind": "logit", "data_path": "design", "synthetic_seed": 3}, "synthetic_seed"),
    ({"model_kind": "garch", "data_path": "prices", "synthetic_seed": 3}, "synthetic_seed"),
    ({"single_chain": True, "fit_length": 500}, "fit_length"),
    ({"model_kind": "probit", "surrogate_mean": [0.0, 0.0, 0.0, 0.0]}, "surrogate_mean"),
    ({"model_kind": "probit", "surrogate_cov": [[1.0, 0.0], [0.0, 1.0]]}, "surrogate_cov"),
    ({"model_kind": "probit", "pilot_mean": [0.0, 0.0]}, "pilot_mean"),
    ({"model_kind": "probit", "pilot_cov": [[1.0, 0.0], [0.0, 1.0]]}, "pilot_cov"),
]


# keys that no longer exist: never read by any run, each is refused as unknown
RETIRED_KEYS = ("synthetic_seed", "prior_sd", "lam", "gamma_shape", "gamma_scale", "exclusions",
                "f_transform", "bootstrap_resamples", "init", "surrogate_mean", "surrogate_cov",
                "proposal_sd")


@pytest.mark.parametrize("fields,key", UNREAD_KEYS, ids=[
    "toy-data-path", "toy-add-intercept", "toy-synthetic-seed", "toy-prior-sd", "mu-off-gaussian",
    "sigma2-off-gaussian", "lam-off-exponential", "gamma-shape-off-gamma", "gamma-scale-off-gamma",
    "prior-sd-off-garch", "proposal-sd-auto-gibbs", "proposal-sd-gibbs", "add-intercept-synthetic",
    "add-intercept-garch-data", "synthetic-seed-with-design", "synthetic-seed-with-prices",
    "fit-length-single-chain", "surrogate-mean-gibbs", "surrogate-cov-gibbs", "pilot-mean-gibbs",
    "pilot-cov-gibbs"])
def test_keys_the_run_never_reads_are_rejected(tmp_path, capsys, fields, key):
    files = data_files(tmp_path)
    fields = {k: files.get(v, v) if k == "data_path" else v for k, v in fields.items()}
    path = write_config(tmp_path, **fields)
    assert main(["validate", "--config", str(path)]) == 2
    expected = (f"unknown config keys: {key}" if key in RETIRED_KEYS
                else f"{key} is set but never read")
    assert f"error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_a_retired_key_is_refused_as_unknown(tmp_path, capsys, key):
    # the value is each key's old default, so only the key itself is refused
    value = {"synthetic_seed": None, "prior_sd": [1000.0, 1000.0, 1000.0], "lam": 1.0,
             "gamma_shape": 3.0, "gamma_scale": 1.0, "exclusions": "default",
             "f_transform": "identity", "bootstrap_resamples": 1000, "init": None,
             "surrogate_mean": None, "surrogate_cov": None, "proposal_sd": None}[key]
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig.from_dict({"model_kind": "gaussian", key: value})
    assert str(raised.value) == f"unknown config keys: {key}"
    path = write_config(tmp_path, **{key: value})
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"


def test_separable_data_without_a_pilot_fail_validate(tmp_path, capsys):
    design = tmp_path / "separable.csv"
    design.write_text("x1,y\n1.0,1\n-1.0,0\n2.0,1\n-2.0,0\n0.5,1\n-0.5,0\n")
    path = write_config(tmp_path, model_kind="logit", data_path=str(design), add_intercept=True)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("error: the logit posterior has no mode to centre a default "
                                       "pilot on (are the data separable?); set pilot_mean and "
                                       "pilot_cov\n")


def test_keys_that_are_read_or_at_their_default_pass_validate(tmp_path, capsys):
    files = data_files(tmp_path)
    cases = [{"model_kind": "logit", "data_path": files["design"], "add_intercept": True},
             {"model_kind": "probit", "data_path": files["design"]},
             {"model_kind": "garch", "data_path": files["prices"]},
             {"model_kind": "garch", "proposal_scale": 2.5},
             {"model_kind": "gamma"},
             {"model_kind": "exponential"},
             {"single_chain": True, "fit_length": 2000},
             # written out at their defaults, keys count as unset
             {"model_kind": "probit", "mu": 0.0, "sigma2": 1, "add_intercept": False,
              "proposal_scale": None, "pilot_mean": None, "data_path": None}]
    for fields in cases:
        assert main(["validate", "--config", str(write_config(tmp_path, **fields))]) == 0
    # the benchmark's shortened GARCH chains
    garch = Path(__file__).resolve().parents[1] / "configs" / "garch_demgbp.json"
    shortened = tmp_path / "garch_short.json"
    shortened.write_text(json.dumps({**json.loads(garch.read_text()),
                                     "fit_length": 1000, "eval_length": 2000}))
    assert main(["validate", "--config", str(shortened)]) == 0
    assert capsys.readouterr().out.count("config ok") == len(cases) + 1


def test_pool_starts_no_more_workers_than_replications(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("zvmcmc.experiments.ProcessPoolExecutor", RecordingPool)
    path = write_config(tmp_path, replications=2)
    outputs = {}
    for threads in ("6", "1"):
        out = tmp_path / f"threads{threads}"
        assert main(["run", "--config", str(path), "--threads", threads, "--out", str(out)]) == 0
        report = without_timing(json.loads((out / "study.json").read_text()))
        for key in ("threads", "output_dir"):
            report["config"].pop(key)
        outputs[threads] = (report, (out / "study.csv").read_bytes())
    assert sizes == [2]
    assert outputs["6"] == outputs["1"]
