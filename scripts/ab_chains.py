#!/usr/bin/env python3
"""Time one replication per config at a git revision and in the working tree, in one process.

    python scripts/ab_chains.py --rev HEAD~1 [--config configs/logit_banknote.json ...] [--pairs 12]

ab_bench.py's checkout extracts src/zvmcmc and configs/ at --rev into a
temporary directory, and the package is imported under another name, next
to the working tree's zvmcmc; the sources import each other only
relatively, so the two copies do not mix.  ab_bench.py's shipped picks the
file each side reads: a config under configs/ is read by each side at its
own revision, so a key renamed or added between the two reads on both; a
config outside configs/ is one file that both sides read.  For each config
both sides run replication 0 of the study through their own
experiments._replicate, which samples its chains (the fit chain and then
the eval chain, or the one chain of a single-chain config), computes their
gradients and fits and evaluates the control variates, exactly as a study
does.  Each side does so once untimed, writing its chains to a directory of
its own, then --pairs times, alternately, the side that goes first
switching every pair.  A timing repeats the replication until at least
MIN_TIMING_S seconds have passed and gives the seconds per replication, so
a fixed cost per replication weighs as a study pays it, and a replication
of a few ms is still timed over a window that the machine's noise does not
swamp.  Interleaving in one process lets a kernel change be ranked on a
busy machine, where separate runs drift by more than the change.
Replications are timed in this one process only, so effects of a study's
worker pool, such as BLAS helper threads competing with the other workers
for CPUs, do not show here.

Prints, per config, each side's median and quartiles in ms per replication,
in how many pairs the working tree was faster, and whether the two sides
are bit-identical: every entry of the replication's result that both sides
hold, apart from its timings, and the bytes of every chain CSV.  Exits 1
when they differ on any config, 2 when the revision cannot be extracted or
one side cannot read a config, for example one that is missing at --rev or
that sets a key the revision does not know; the reader's message is printed
as "error: <message>".
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
# the entries of a replication's result that hold wall-clock seconds
TIMING_KEYS = ("seconds", "t_post", "gradient_seconds")


def replication(package, config_path):
    """(package, config, model, bases) that run replication 0 of config_path's study."""
    experiments = package.experiments
    cfg = experiments.ExperimentConfig.from_file(config_path)
    model = experiments.build_model(cfg)
    return package, cfg, model, experiments.control_variate_bases(cfg, model)


def run(package, cfg, model, bases, chains_dir=None):
    """Replication 0's result, its chains written under chains_dir when it is set."""
    return package.experiments._replicate(cfg, model, bases, chains_dir, 0)


def timed(*side):
    """Seconds per replication over as many replications as fill MIN_TIMING_S."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        run(*side)
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_TIMING_S:
            return elapsed / runs


def equal(a, b):
    """a == b exactly, through dicts, lists and arrays."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


def identical(old, new):
    """True when two (result, chains directory) pairs agree on every entry
    both results hold outside TIMING_KEYS, and on the names and bytes of
    every chain CSV."""
    (old, old_dir), (new, new_dir) = old, new
    files = sorted(p.name for p in Path(old_dir).iterdir())
    return (all(equal(old[k], new[k]) for k in (old.keys() & new.keys()) - set(TIMING_KEYS))
            and files == sorted(p.name for p in Path(new_dir).iterdir())
            and all(Path(old_dir, f).read_bytes() == Path(new_dir, f).read_bytes() for f in files))


def spread(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"median {1e3 * median:9.1f} ms per replication  (q1 {1e3 * q1:.1f}, q3 {1e3 * q3:.1f})"


def compare(old, new, config_path, rev_root, pairs, rev):
    sides = {"rev": replication(old, Path(rev_root, shipped(config_path))),
             "tree": replication(new, ROOT / shipped(config_path))}
    written = []
    for side in sides.values():
        chains_dir = tempfile.mkdtemp(dir=rev_root)
        written.append((run(*side, chains_dir=chains_dir), chains_dir))
    same = identical(*written)
    seconds = {"rev": [], "tree": []}
    for k in range(pairs):
        for side in (("rev", "tree") if k % 2 == 0 else ("tree", "rev")):
            seconds[side].append(timed(*sides[side]))
    wins = sum(t < r for r, t in zip(seconds["rev"], seconds["tree"]))
    ratio = np.median(seconds["tree"]) / np.median(seconds["rev"])
    single = sides["tree"][1].single_chain
    print(f"{config_path}: replication 0, "
          + ("the one chain of a single-chain config" if single else "fit and eval chains"))
    print(f"  {rev:>12}  {spread(seconds['rev'])}")
    print(f"  {'working tree':>12}  {spread(seconds['tree'])}")
    print(f"  working tree faster in {wins}/{pairs} pairs, ratio of medians {ratio:.3f}; "
          + ("replication results and chain CSVs bit-identical" if same else "CHAINS DIFFER"))
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
