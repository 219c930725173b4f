#!/usr/bin/env python3
"""Time one fit chain per config at a git revision and in the working tree, in one process.

    python scripts/ab_chains.py --rev HEAD~1 [--config configs/logit_banknote.json ...] [--pairs 12]

src/zvmcmc at --rev is extracted with git archive into a temporary package
under another name, next to the working tree's zvmcmc; the sources import
each other only relatively, so the two copies do not mix.  For each config
both sides sample the fit chain of replication 0 (the seed, length, thinning
and sampler a study gives it, gradients included) once untimed, then --pairs
times each, alternately, the side that goes first switching every pair.
Interleaving in one process lets a kernel change be ranked on a busy machine,
where separate runs drift by more than the change.  Chains are timed in this
one process only, so effects of a study's worker pool, such as BLAS helper
threads competing with the other workers for CPUs, do not show here.

Prints, per config, each side's median and quartiles in ms, in how many
pairs the working tree was faster, and whether the two sides' draws,
gradients and accept rates are bit-identical.  Exits 1 when they differ on
any config, 2 when the revision cannot be extracted.
"""
import argparse
import importlib
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REV_PACKAGE = "zvmcmc_at_rev"


def extract_revision(rev, into):
    """Write src/zvmcmc at rev to into/REV_PACKAGE."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/zvmcmc"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (Path(into) / "src" / "zvmcmc").rename(Path(into) / REV_PACKAGE)


def fit_chain(package, config_path):
    """(package, model, sampler config, method) of replication 0's fit chain."""
    cfg = package.experiments.ExperimentConfig.from_file(config_path)
    model = package.experiments.build_model(cfg)
    chain_config = package.experiments._chain_config(cfg, cfg.fit_length, cfg.base_seed, cfg.thin)
    return package, model, chain_config, cfg.sampler


def timed(package, model, chain_config, method):
    t0 = time.perf_counter()
    chain = package.samplers.sample_chain(model, chain_config, method=method)
    return time.perf_counter() - t0, chain


def identical(a, b):
    return (np.array_equal(a.draws, b.draws) and np.array_equal(a.gradients, b.gradients)
            and a.accept_rate == b.accept_rate and a.pilot_accept_rate == b.pilot_accept_rate)


def spread(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"median {1e3 * median:9.1f} ms  (q1 {1e3 * q1:.1f}, q3 {1e3 * q3:.1f})"


def compare(old, new, config_path, pairs, rev):
    sides = {"rev": fit_chain(old, config_path), "tree": fit_chain(new, config_path)}
    same = identical(timed(*sides["rev"])[1], timed(*sides["tree"])[1])
    seconds = {"rev": [], "tree": []}
    for k in range(pairs):
        for side in (("rev", "tree") if k % 2 == 0 else ("tree", "rev")):
            seconds[side].append(timed(*sides[side])[0])
    wins = sum(t < r for r, t in zip(seconds["rev"], seconds["tree"]))
    ratio = np.median(seconds["tree"]) / np.median(seconds["rev"])
    print(config_path)
    print(f"  {rev:>12}  {spread(seconds['rev'])}")
    print(f"  {'working tree':>12}  {spread(seconds['tree'])}")
    print(f"  working tree faster in {wins}/{pairs} pairs, ratio of medians {ratio:.3f}; "
          + ("draws, gradients and accept rates bit-identical" if same else "CHAINS DIFFER"))
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--config", action="append", default=None,
                        help="config file (repeatable; default configs/logit_banknote.json)")
    parser.add_argument("--pairs", type=int, default=12, help="timed pairs per config (default 12)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    configs = args.config or [str(ROOT / "configs" / "logit_banknote.json")]

    with tempfile.TemporaryDirectory() as tmp:
        try:
            extract_revision(args.rev, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract src/zvmcmc at {args.rev}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        sys.path[:0] = [tmp, str(ROOT / "src")]
        old = importlib.import_module(REV_PACKAGE)
        new = importlib.import_module("zvmcmc")
        same = [compare(old, new, path, args.pairs, args.rev) for path in configs]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
