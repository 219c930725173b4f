#!/usr/bin/env python3
"""Unbiasedness coverage runs for the probit and GARCH studies.

Each replication estimates posterior means from one short chain with control
variates, and the report counts how often those estimates land inside the 95%
interval of a million-draw ordinary reference chain.  Chain lengths are sized
so the ZV estimator's own noise stays well under the reference interval width
(about half its standard error or less); the thinning keeps gradient work
cheap without inflating the residual variance.  The acceptance suite runs the
same settings.
"""
import pathlib
import sys

from zvmcmc import ExperimentConfig, export_study, run_coverage

PROBIT_COVERAGE = {
    "model_kind": "probit",
    "synthetic_seed": 101,
    "sampler_type": "gibbs",
    "single_chain": True,
    "burn_in": 1000,
    "fit_length": 75000,
    "eval_length": 75000,
    "thin": 2,
    "degrees": [1, 2],
    "replications": 50,
    "reference_length": 1000000,
    "base_seed": 0,
    "output_dir": "out/coverage_probit",
}

GARCH_COVERAGE = {
    "model_kind": "garch",
    "synthetic_seed": 333,
    "sampler_type": "rwmh",
    "single_chain": True,
    "burn_in": 3000,
    "fit_length": 17000,
    "eval_length": 17000,
    "thin": 20,
    "proposal_sd": [0.0022, 0.0233, 0.0269],
    "degrees": [1, 2, 3],
    "replications": 50,
    "reference_length": 1000000,
    "base_seed": 0,
    "output_dir": "out/coverage_garch",
}


def main(argv):
    outdir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, raw in (("probit", PROBIT_COVERAGE), ("garch", GARCH_COVERAGE)):
        cfg = ExperimentConfig.from_dict(raw)
        _, report = run_coverage(cfg)
        path = outdir / f"coverage_{name}.json"
        export_study(report, path)
        print(f"{name}: reference ({report['timing']['reference_seconds']:.0f}s)"
              f" study ({report['timing']['study_seconds']:.0f}s)")
        for degree, block in sorted(report["coverage"].items()):
            per = " ".join(
                f"{k}={v:.2f}" for k, v in block["per_parameter"].items()
            )
            print(f"  degree {degree}: {block['events_inside']}/{block['events_total']}"
                  f" inside ({block['fraction']:.1%})  [{per}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
