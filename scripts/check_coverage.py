#!/usr/bin/env python3
"""Run coverage on every shipped config and fail on any z-score of 3 or more.

    python scripts/check_coverage.py [--config configs/gamma.json ...] [--threads 2 --seed 0 ...]

Runs `zvmcmc coverage --config C` for each config, by default every
configs/*.json in name order, so each shipped config is checked at the
protocol and lengths it runs under `zvmcmc run`.  Every other argument is
passed on as it is (--threads, --seed, ...), and each command runs in a
fresh process from the working tree (check_identity.py's run_side) with its
report written to a temporary directory.  Each coverage report gives, per
degree and parameter, the z-score of the mean ZV estimate against a long
reference chain's point (experiments.run_coverage).  Prints one line per
config: the worst |z| of each degree, with "empty basis" beside a degree
whose basis is empty (its fraction inside the reference interval is no
test, its z-score is), and the command's seconds.  A last line gives the verdict.  Exits 0 when every
command ran and every |z| < 3, 1 otherwise (a null z-score, from a single
replication, counts as a failure).
"""
import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from ab_bench import ROOT
from check_identity import run_side

# |z| at or above this fails the check
Z_LIMIT = 3.0


def worst(entry):
    """(largest |z|, its parameter) of one degree's coverage entry; |z| is inf for a null z-score."""
    scores = {name: math.inf if z is None else abs(z) for name, z in entry["z_scores"].items()}
    name = max(scores, key=scores.get)
    return scores[name], name


def check(config, extra, out_dir):
    """(the line to print, passed) for one config."""
    t0 = time.perf_counter()
    _, err = run_side(str(ROOT), ["coverage", "--config", str(config), *extra], out_dir)
    seconds = time.perf_counter() - t0
    if err is not None:
        return f"{config.name}: FAILED: {err}", False
    report = json.loads(Path(out_dir, "coverage.json").read_text())
    parts, passed = [], True
    for degree, entry in report["coverage"].items():
        z, name = worst(entry)
        passed &= z < Z_LIMIT
        parts.append(f"degree {degree} {z:.3g} ({name}" +
                     (", empty basis)" if entry["empty_basis"] else ")"))
    return (f"{config.name}: worst |z| " + ", ".join(parts) + f"; {seconds:.1f} s"
            + ("" if passed else f"; FAILS |z| < {Z_LIMIT:g}")), passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", action="append", default=None,
                        help="config (repeatable; default every configs/*.json)")
    args, extra = parser.parse_known_args(argv)
    configs = ([Path(c).resolve() for c in args.config] if args.config else
               sorted((ROOT / "configs").glob("*.json")))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            line, passed = check(config, extra, os.path.join(tmp, config.stem))
            failures += not passed
            print(line, flush=True)
    print(f"{failures} of {len(configs)} coverage config(s) fail" if failures else
          f"every |z| < {Z_LIMIT:g} on {len(configs)} coverage config(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
