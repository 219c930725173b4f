#!/usr/bin/env python3
"""Time the chains of one replication per config at a git revision and in the working tree, in one process.

    python scripts/ab_chains.py --rev HEAD~1 [--config configs/logit_banknote.json ...] [--pairs 12]

ab_bench.py's checkout extracts src/zvmcmc and configs/ at --rev into a
temporary directory, and the package is imported under another name, next
to the working tree's zvmcmc; the sources import each other only
relatively, so the two copies do not mix.  ab_bench.py's shipped picks the
file each side reads: a config under configs/ is read by each side at its
own revision, so a key renamed or added between the two reads on both; a
config outside configs/ is one file that both sides read.  For each config
both sides sample the chains of replication 0 as a study samples them: the
fit chain and then the eval chain, or the one chain of a single-chain
config, each with the seed, length, thinning and sampler the study gives
it, gradients included.  Each side does so once untimed, then --pairs
times, alternately, the side that goes first switching every pair.  A
timing repeats the whole replication's sampling until at least MIN_TIMING_S
seconds have passed and gives the seconds per replication, so a fixed cost
per chain weighs as a study pays it, and a replication of a few ms is still
timed over a window that the machine's noise does not swamp.
Interleaving in one process lets a kernel change be ranked on a busy
machine, where separate runs drift by more than the change.  Chains are
timed in this one process only, so effects of a study's worker pool, such as
BLAS helper threads competing with the other workers for CPUs, do not show
here.

Prints, per config, each side's median and quartiles in ms per replication,
in how many pairs the working tree was faster, and whether the two sides'
draws, gradients and accept rates are bit-identical, chain by chain.  Exits
1 when they differ on any config, 2 when the revision cannot be extracted
or one side cannot read a config, for example one that is missing at --rev
or that sets a key the revision does not know; the reader's message is
printed as "error: <message>".
"""
import argparse
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from ab_bench import ROOT, checkout, shipped

REV_PACKAGE = "zvmcmc_at_rev"
MIN_TIMING_S = 0.2


def replication_chains(package, config_path):
    """(package, model, sampler configs, method) of replication 0's chains.

    The sampler configs are those of the fit and eval chains, in that order,
    or of the one chain of a single-chain config, with the seeds, lengths and
    thinning that the study's replication 0 gives them.
    """
    experiments = package.experiments
    cfg = experiments.ExperimentConfig.from_file(config_path)
    model = experiments.build_model(cfg)
    fit_seed, eval_seed = cfg.base_seed, cfg.base_seed + 1
    if cfg.single_chain:
        lengths_and_seeds = [(cfg.eval_length, fit_seed)]
    else:
        lengths_and_seeds = [(cfg.fit_length, fit_seed), (cfg.eval_length, eval_seed)]
    chain_configs = [experiments._chain_config(cfg, length, seed, cfg.thin)
                     for length, seed in lengths_and_seeds]
    return package, model, chain_configs, cfg.sampler


def timed(package, model, chain_configs, method):
    """Seconds per replication to sample every chain of chain_configs in turn,
    over as many replications as fill MIN_TIMING_S, and the last one's chains."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        chains = [package.samplers.sample_chain(model, c, method=method) for c in chain_configs]
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_TIMING_S:
            return elapsed / runs, chains


def identical(a, b):
    return all(np.array_equal(x.draws, y.draws) and np.array_equal(x.gradients, y.gradients)
               and x.accept_rate == y.accept_rate
               for x, y in zip(a, b, strict=True))


def spread(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"median {1e3 * median:9.1f} ms per replication  (q1 {1e3 * q1:.1f}, q3 {1e3 * q3:.1f})"


def compare(old, new, config_path, rev_root, pairs, rev):
    sides = {"rev": replication_chains(old, Path(rev_root, shipped(config_path))),
             "tree": replication_chains(new, ROOT / shipped(config_path))}
    same = identical(timed(*sides["rev"])[1], timed(*sides["tree"])[1])
    seconds = {"rev": [], "tree": []}
    for k in range(pairs):
        for side in (("rev", "tree") if k % 2 == 0 else ("tree", "rev")):
            seconds[side].append(timed(*sides[side])[0])
    wins = sum(t < r for r, t in zip(seconds["rev"], seconds["tree"]))
    ratio = np.median(seconds["tree"]) / np.median(seconds["rev"])
    chains = len(sides["tree"][2])
    print(f"{config_path}: replication 0, "
          + ("fit and eval chains" if chains == 2 else "the one chain of a single-chain config"))
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
        failed = checkout(args.rev, tmp)
        if failed:
            print(failed, file=sys.stderr)
            return 2
        (Path(tmp) / "src" / "zvmcmc").rename(Path(tmp) / REV_PACKAGE)
        sys.path[:0] = [tmp, str(ROOT / "src")]
        old = importlib.import_module(REV_PACKAGE)
        new = importlib.import_module("zvmcmc")
        unreadable = tuple(error for package in (old, new) for error in (
            package.experiments.ConfigError, package.data_io.DataLoadError))
        try:
            same = [compare(old, new, path, tmp, args.pairs, args.rev) for path in configs]
        except unreadable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
