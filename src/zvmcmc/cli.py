"""Command line front end.

Subcommands:
  run       execute a replication study from a JSON config
  coverage  check single-chain ZV estimates against a long reference chain
  diagnose  single-chain diagnostics for a config
  validate  check a config (and its data file) without sampling

zvmcmc --version prints the package version.

Each command's run function returns its report in the written JSON form,
the dict export_study writes; the command prints its summary from that
dict and writes it unchanged (run also writes study.csv from it).  With
keep_chains (or --keep-chains) every command writes its chains with
gradients under <output_dir>/chains, diagnose's as diagnose.csv.

The flags --seed, --out, --threads, --replications, --length and
--keep-chains override config keys, each parsed under its key's name;
every other key is set in the file.

Exit codes: 0 success (including a partial study, flagged in the report),
1 runtime failure, 2 bad usage, bad data file or bad config: an unknown key,
or any value of the wrong type or out of range, found before any sampling.
Out of range includes a diagnose or reference chain too short for its own
checks and an empty output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .data_io import DataLoadError, export_study
from .experiments import (
    STUDY_RATIO_METHOD,
    ConfigError,
    ExperimentConfig,
    build_model,
    control_variate_bases,
    run_coverage,
    run_diagnose,
    run_study,
    write_study_csv,
)

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zvmcmc",
        description="Variance reduction for MCMC estimates via gradient-based polynomial control variates.",
    )
    parser.add_argument("--version", action="version", version=f"zvmcmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command reads a config; validate takes only that
    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("--config", required=True, help="path to a JSON config file")
    # what run, coverage and diagnose also take, each flag under the config key it overrides
    run_args = argparse.ArgumentParser(add_help=False, parents=[config_args])
    run_args.add_argument("--out", dest="output_dir", metavar="OUT", default=None,
                          help="output directory (default from config)")
    run_args.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, default=None,
                          help="override base_seed")
    run_args.add_argument("--threads", type=int, default=None,
                          help="worker processes (0 = one per CPU this process may use); pool "
                               "workers run BLAS single-threaded, one process keeps the library "
                               "default")
    run_args.add_argument("--keep-chains", action="store_true", default=None,
                          help="write every sampled chain to CSV under the output directory")

    run_p = sub.add_parser("run", parents=[run_args], help="run a replication study")
    run_p.add_argument("--replications", type=int, default=None, help="override replication count")

    cov_p = sub.add_parser("coverage", parents=[run_args],
                           help="check ZV estimates against a long reference chain")
    cov_p.add_argument("--replications", type=int, default=None, help="override replication count")

    diag_p = sub.add_parser("diagnose", parents=[run_args], help="run single-chain diagnostics")
    diag_p.add_argument("--length", dest="diagnose_length", metavar="LENGTH", type=int,
                        default=None, help="override diagnostic chain length")

    sub.add_parser("validate", parents=[config_args], help="validate a config without sampling")
    return parser


def _load_config(args) -> ExperimentConfig:
    keys = {field.name for field in dataclasses.fields(ExperimentConfig)}
    overrides = {key: value for key, value in vars(args).items()
                 if key in keys and value is not None}
    return ExperimentConfig.from_file(args.config, overrides)


def _fmt_float(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, str):
        return v
    if np.isnan(v):
        return "n/a"
    if np.isinf(v):
        return "inf"
    return f"{v:.4g}"


def _fmt_ratio(entry: dict) -> str:
    point = "inf" if entry["ratio_infinite"] else _fmt_float(entry["ratio"])
    lower, upper = _fmt_float(entry["ratio_lower"]), _fmt_float(entry["ratio_upper"])
    # None or NaN bounds print as "n/a": there is no interval to show
    if entry["ratio_method"] == STUDY_RATIO_METHOD and "n/a" not in (lower, upper):
        return f"{point} [{lower}, {upper}]"
    return f"{point} (point only)"


def _cmd_run(config) -> dict:
    report = run_study(config)

    print(f"model {report['model']['kind']} (dimension {report['model']['dimension']}), "
          f"sampler {report['model']['sampler']}, protocol {report['protocol']}")
    done = report["replications_completed"]
    asked = report["replications_requested"]
    line = f"replications {done}/{asked}"
    if report["partial"]:
        line += " (partial; see replication_errors in the report)"
    print(line)
    acc = report["accept"]
    print(f"mean accept rate: fit {_fmt_float(acc['fit_rate_mean'])}, "
          f"eval {_fmt_float(acc['eval_rate_mean'])}")
    for name, entry in report["results"].items():
        parts = [f"ordinary var {_fmt_float(entry['ordinary']['variance'])}"]
        for p in report["degrees"]:
            parts.append(f"degree {p} ratio {_fmt_ratio(entry['zv'][str(p)])}")
        print(f"  {name}: " + "; ".join(parts))
    return report


def _cmd_coverage(config) -> dict:
    report = run_coverage(config)

    print(f"model {report['model']['kind']} (dimension {report['model']['dimension']}), "
          f"sampler {report['model']['sampler']}")
    print(f"reference chain: {report['reference']['length']} draws")
    names = report["model"]["parameters"]
    for p, entry in report["coverage"].items():
        per = ", ".join(f"{n} {entry['per_parameter'][n]:.0%}" for n in names)
        print(f"  degree {p}: {entry['events_inside']}/{entry['events_total']} inside "
              f"({entry['fraction']:.1%}; {per})"
              + ("; empty basis, so the estimate is the plain mean" if entry["empty_basis"] else ""))
    worst = []
    for p, entry in report["coverage"].items():
        # a null z-score (one replication) reads as NaN and prints n/a
        z = np.abs(np.asarray([entry["z_scores"][n] for n in names], dtype=float))
        j = int(np.nanargmax(z)) if not np.all(np.isnan(z)) else None
        worst.append(f"degree {p} " + ("n/a" if j is None else f"{_fmt_float(z[j])} ({names[j]})"))
    print("mean ZV estimate against the reference point, worst |z|: " + ", ".join(worst))
    return report


def _cmd_diagnose(config) -> dict:
    report = run_diagnose(config)

    print(f"model {report['model']['kind']} (dimension {report['model']['dimension']}), "
          f"sampler {report['model']['sampler']}, chain length {report['chain']['length']}")
    print(f"accept rate {_fmt_float(report['chain']['accept_rate'])}, "
          f"basis degree {report['basis']['degree']} with {report['basis']['size']} terms")
    z = np.asarray(report["zero_mean"]["z_scores"], dtype=float)
    degen = np.asarray(report["zero_mean"]["degenerate"], dtype=bool)
    worst = np.nanmax(np.abs(z)) if not np.all(np.isnan(z)) else float("nan")
    print(f"control variate zero-mean check: worst |z| {_fmt_float(worst)} "
          f"over {z.size} terms ({int(degen.sum())} degenerate)")
    linnik_divergent = np.asarray(report["linnik"]["divergent"], dtype=bool)
    names = report["model"]["parameters"]
    flagged = [names[i] for i in range(len(names)) if linnik_divergent[i]]
    print("gradient second-moment check: " + ("divergent for " + ", ".join(flagged) if flagged else "stable"))
    stable = np.asarray(report["moment_2_plus_delta"]["stable"], dtype=bool)
    n_unstable = int((~stable).sum())
    print(f"2+delta moment check: {n_unstable} unstable of {stable.size} terms")
    ref_point = np.asarray(report["reference"]["point"], dtype=float)
    ref_lo = np.asarray(report["reference"]["lower"], dtype=float)
    ref_hi = np.asarray(report["reference"]["upper"], dtype=float)
    for i, name in enumerate(names):
        print(f"  {name}: mean {_fmt_float(ref_point[i])} "
              f"[{_fmt_float(ref_lo[i])}, {_fmt_float(ref_hi[i])}]")
    return report


# command -> (runs it, prints a summary, returns the report; files written from
# the report).  The writers are looked up by name at write time, so a wrapper
# bound to the module attribute sees every write
_COMMANDS = {
    "run": (_cmd_run, ("study.json", "study.csv")),
    "coverage": (_cmd_coverage, ("coverage.json",)),
    "diagnose": (_cmd_diagnose, ("diagnose.json",)),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "validate":
            model = build_model(config)
            bases = control_variate_bases(config, model)
            size_text = ", ".join(f"degree {p}: {b.size} terms" for p, b in bases.items())
            print(f"config ok: model {config.model_kind} (dimension {model.dimension}), "
                  f"sampler {config.sampler}, {size_text}")
            return 0
        command, files = _COMMANDS[args.command]
        os.makedirs(config.output_dir, exist_ok=True)
        report = command(config)
        for name in files:
            path = os.path.join(config.output_dir, name)
            if name.endswith(".csv"):
                write_study_csv(report, path)
            else:
                export_study(report, path)
            print(f"wrote {path}")
    except (ConfigError, DataLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
