#!/usr/bin/env python3
"""Run one benchmark workload at a git revision and in the working tree, alternately.

    python scripts/ab_bench.py --rev HEAD~1 --workload logit-rwmh-study --seed 7 [--pairs 10] [--seconds 15]

The revision's whole tree is extracted with git archive into a temporary
directory.  Each pair runs `perfbench/run.py --workload W --seed S
--seconds X --trace 0` once in that tree and once in the working tree, each
in a fresh process started from its own tree, and the side that goes first
switches every pair, so drift of a busy machine falls on both sides alike.
A run's metrics are the JSON object perfbench prints last.

Prints each end-to-end metric's median and quartiles on both sides, in
how many pairs the working tree was better, in the direction the working
tree's BENCHMARK.json gives (ties count for neither side), and a verdict
(see verdict) against that metric's bound there.  A run that fails its
checks, or prints no result, is reported and its pair left out.  Exits 0
when every run passed, 1 when one failed, 2 when the revision cannot be
extracted.

ab_chains.py and check_identity.py, which run the revision's package next to
the working tree's, take three helpers from here: extract_tree, checkout,
which extracts the package and its configs at a revision, and shipped, which
says which file of a config each side reads.
"""
import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the benchmark command, run from the root of each tree
BENCH_COMMAND = [sys.executable, "perfbench/run.py"]
# complete pairs a gain needs; fewer cannot show one
GAIN_PAIRS = 10


def extract_tree(rev, into, path=None):
    """Write the tree of rev to into, or only path (relative to the root) in it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              *([path] if path else [])],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def checkout(rev, into):
    """Extract src/zvmcmc and configs/ of rev into into: None, or the message of
    the first extraction that failed."""
    for path in ("src/zvmcmc", "configs"):
        try:
            extract_tree(rev, into, path)
        except subprocess.CalledProcessError as exc:
            return f"cannot extract {path} at {rev}: {exc.stderr.decode().strip()}"
    return None


def shipped(config):
    """The path of config that each side of a comparison reads, from its own root.

    A config under configs/ comes back relative to the root, so each side
    reads its own revision's copy; any other config comes back absolute, one
    file that both sides read (a root joined with it leaves it as it is).
    """
    path = Path(config).resolve()
    return path.relative_to(ROOT) if path.is_relative_to(ROOT / "configs") else path


def run_bench(tree, workload, seed, seconds):
    """(metric name -> value, None) of one untraced run in tree, or (None, why it failed)."""
    done = subprocess.run([*BENCH_COMMAND, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(entry["value"]) for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return None, f"exit {done.returncode}, no result: " + \
            ((done.stderr.strip().splitlines() or ["no output"])[-1])
    if done.returncode != 0 or not result.get("correct", False):
        failed = [line for line in lines if line.startswith("CHECK FAILED")]
        return None, f"exit {done.returncode}: " + ("; ".join(failed) or "checks failed")
    return metrics, None


def directions():
    """End-to-end metric name -> (unit, "lower" or "higher", bound), from the working tree's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(old, new, better, bound):
    """The verdict on a metric from paired runs old[k] (revision) and new[k] (working tree).

    gain        the working tree is better in at least 9/10 of at least
                GAIN_PAIRS pairs and its median beats the revision's by more
                than the revision's interquartile range (with fewer pairs,
                what would be a gain is unresolved)
    regression  the working tree's median is worse than the revision's by more
                than the share bound of the revision's median
    unresolved  the revision's spread (interquartile range / |median|) is wider
                than bound, and not every working-tree run beats every
                revision run
    no change   otherwise
    """
    # flipped so that higher is better on both sides
    sign = -1.0 if better == "lower" else 1.0
    old, new = sign * np.asarray(old, dtype=float), sign * np.asarray(new, dtype=float)
    q1, median, q3 = np.percentile(old, [25, 50, 75])
    gap = np.median(new) - median
    if np.sum(new > old) >= 0.9 * old.size and gap > q3 - q1:
        return "gain" if old.size >= GAIN_PAIRS else "unresolved"
    if -gap > bound * abs(median):
        return "regression"
    if q3 - q1 > bound * abs(median) and not new.min() > old.max():
        return "unresolved"
    return "no change"


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.4g} ({q1:.4g}, {q3:.4g})"


def report(pairs, rev):
    """Print each metric both sides report, with the pairs the working tree won and the verdict."""
    print(f"{'metric':<18} {'unit':<6} {rev + ' median (q1, q3)':<30} "
          f"{'working tree median (q1, q3)':<30} {'working tree better':<36} verdict")
    for name, (unit, better, bound) in directions().items():
        both = [(r[name], t[name]) for r, t in pairs if name in r and name in t]
        if not both:
            continue
        old, new = np.array(both).T
        won = int(np.sum(new < old if better == "lower" else new > old))
        print(f"{name:<18} {unit:<6} {spread(old):<30} {spread(new):<30} "
              f"{f'{won}/{len(both)} pairs ({better} is better)':<36} "
              f"{verdict(old, new, better, bound)} (bound {bound:g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True, help="one perfbench workload")
    parser.add_argument("--seed", type=int, required=True, help="perfbench workload seed")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="perfbench --seconds of every run (default 15)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        try:
            extract_tree(args.rev, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        trees = {"rev": tmp, "tree": str(ROOT)}
        pairs, failures = [], 0
        for k in range(args.pairs):
            order = ("rev", "tree") if k % 2 == 0 else ("tree", "rev")
            runs = {side: run_bench(trees[side], args.workload, args.seed, args.seconds)
                    for side in order}
            for side in order:
                metrics, err = runs[side]
                label = args.rev if side == "rev" else "working tree"
                if err is None:
                    print(f"pair {k + 1} {label}: " + ", ".join(
                        f"{name} {value:.4g}" for name, value in metrics.items()), flush=True)
                else:
                    failures += 1
                    print(f"pair {k + 1} {label} FAILED: {err}", flush=True)
            if all(err is None for _, err in runs.values()):
                pairs.append((runs["rev"][0], runs["tree"][0]))
    print(f"{args.workload} seed {args.seed}, --seconds {args.seconds:g}: "
          f"{len(pairs)} of {args.pairs} pairs complete")
    report(pairs, args.rev)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
