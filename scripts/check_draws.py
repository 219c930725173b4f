#!/usr/bin/env python3
"""Run a config's full study at a git revision and in the working tree, per seed, and compare what the draws buy.

    python scripts/check_draws.py --rev HEAD~1 --config configs/logit_banknote.json --seeds 1,2

This is the evidence for a change that alters a sampler's draws on purpose:
it must lower the variance that a pool-second buys, not only the time.
ab_bench.py's checkout extracts src/zvmcmc and configs/ at --rev into a
temporary directory, and ab_bench.py's shipped names the config relative to
each side's root when it is under configs/, so each side runs its own
revision's copy; a config outside configs/ is one file that both sides read.
For each seed, each side runs `zvmcmc run --config C --seed <seed>` with
check_identity.py's run_side, in a fresh process from its own root, at the
config's own replications, lengths and threads; the side that goes first
switches every seed.

Prints, per seed, each side's pool seconds (timing.total_seconds) and the
eval chains' mean log_density calls per step, and per coordinate the
across-replication variance of the ordinary estimate, that of the
top-degree ZV estimate, and that variance times pool seconds, each with the
ratio of the working tree to the revision.  A last line says whether the ZV
variance times pool seconds fell on every coordinate at every seed.  Exits 0
when every study ran, 1 when one failed, and 2 when the revision cannot be
extracted.
"""
import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, checkout, shipped
from check_identity import run_side


def study(root, config, seed, out_dir):
    """(the study report of `run --config config --seed seed` run from root, None),
    or (None, why the run failed)."""
    _, err = run_side(root, ["run", "--config", str(config), "--seed", str(seed)], out_dir)
    if err is not None:
        return None, err
    return json.loads(Path(out_dir, "study.json").read_text()), None


def summary(report):
    """(pool seconds, calls per step, top degree, {coordinate: (ordinary var, top-degree ZV var)})."""
    top = str(max(report["degrees"]))
    variances = {name: (entry["ordinary"]["variance"], entry["zv"][top]["variance"])
                 for name, entry in report["results"].items()}
    return (report["timing"]["total_seconds"], report["accept"]["eval_calls_per_step_mean"], top,
            variances)


def change(old, new):
    return f"{old:<11.4g} -> {new:<11.4g} x{new / old:.3f}"


def compare(seed, config, rev, reports):
    """Print one seed's comparison; True when ZV variance x pool seconds fell on every coordinate."""
    (old_s, old_calls, top, old_var), (new_s, new_calls, _, new_var) = map(
        summary, (reports["rev"], reports["tree"]))
    print(f"seed {seed}: {config}, top degree {top}; {rev} -> working tree")
    print(f"  {'pool seconds':<16} {change(old_s, new_s)}")
    print(f"  {'calls per step':<16} {change(old_calls, new_calls)}")
    print(f"  {'coordinate':<16} {'ordinary variance':<35} {'ZV variance':<35} ZV variance x pool s")
    fell = True
    for name, (old_ord, old_zv) in old_var.items():
        new_ord, new_zv = new_var[name]
        fell &= new_zv * new_s < old_zv * old_s
        print(f"  {name:<16} {change(old_ord, new_ord):<35} {change(old_zv, new_zv):<35} "
              f"{change(old_zv * old_s, new_zv * new_s)}")
    return fell


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--config", required=True, help="config file of the study")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated base seeds, one full study per seed and side")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")

    config = shipped(args.config)
    failures, fell = 0, True
    with tempfile.TemporaryDirectory() as tmp:
        failed = checkout(args.rev, tmp)
        if failed:
            print(failed, file=sys.stderr)
            return 2
        sides = {"rev": tmp, "tree": str(ROOT)}
        for k, seed in enumerate(seeds):
            reports = {}
            for side in (("rev", "tree") if k % 2 == 0 else ("tree", "rev")):
                reports[side], err = study(sides[side], config, seed,
                                           os.path.join(tmp, f"out_{seed}_{side}"))
                if err is not None:
                    failures += 1
                    print(f"seed {seed} {args.rev if side == 'rev' else 'working tree'} "
                          f"FAILED: {err}", flush=True)
            if all(reports.values()):
                fell &= compare(seed, args.config, args.rev, reports)
    if failures:
        return 1
    print("ZV variance x pool seconds fell on every coordinate at every seed: "
          + ("yes" if fell else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
