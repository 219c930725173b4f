#!/usr/bin/env python3
"""Run one benchmark workload at a git revision and in the working tree, alternately,
or record the working tree's benchmark file.

    python scripts/ab_bench.py --rev HEAD~1 --workload logit-rwmh-study --seed 7 [--pairs 10] [--seconds 15]
    python scripts/ab_bench.py --record BENCH_2.json --seed 7 [--runs 9] [--against BENCH_1.json]

Both sides run from copies made once, before the first run, in a temporary
directory: the revision's whole tree extracted with git archive, and the
working tree's files as they are, tracked or untracked but not ignored
(extract_working_tree), so a file edited during a run changes neither side.
Each pair runs `perfbench/run.py --workload W --seed S --seconds X --trace 0`
once in each copy, each in a fresh process started from its own copy, and
the side that goes first switches every pair, so drift of a busy machine
falls on both sides alike.  A run's metrics are the JSON object perfbench
prints last.

Prints each end-to-end metric's median and quartiles on both sides, in
how many pairs the working tree was better, in the direction the working
tree's BENCHMARK.json gives (ties count for neither side), and a verdict
(see verdict) against that metric's bound there.  A run that fails its
checks, or prints no result, is reported and its pair left out.  Exits 0
when every run passed, 1 when one failed, 2 when the revision cannot be
extracted.

--record PATH runs every workload of BENCHMARK.json, each in its own
perfbench process, on the copy of the working tree at one seed: --runs
k >= 3 untraced runs (--trace 0), then k traced runs (--trace 1); k is 9
unless set.  It writes PATH (see record) with the median and quartiles of
each end-to-end metric, the median of each per-layer metric, perfbench's
env line, the seed and the git revision of the working tree.  The default
k is for setup_s of the workloads that import scipy: their runs spread
from 0.25 to 0.37 s on one tree (2-CPU Xeon VM, shared), so a median of
3 runs can differ from another's by more than the 0.25 bound.
Per-layer figures are recorded, never gated.  --against OLD then compares
the new medians with OLD's (see against): each end-to-end metric whose
median is worse than OLD's by more than its BENCHMARK.json share bound is a
regression.  Exits 0 when every run passed and nothing regressed, 1
otherwise; a failed run writes no file.

ab_chains.py, check_draws.py and check_identity.py, which run the revision's package next to
the working tree's, take three helpers from here: extract_tree, checkout,
which extracts the package and its configs at a revision, and shipped, which
says which file of a config each side reads.
"""
import argparse
import io
import json
import shutil
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
# untraced, and traced, runs a recorded benchmark file takes by default,
# and needs at least
RECORD_RUNS = 9
RECORD_LEAST_RUNS = 3
RECORD_SCHEMA = "zvmcmc-bench-v1"


def extract_tree(rev, into, path=None):
    """Write the tree of rev to into, or only path (relative to the root) in it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              *([path] if path else [])],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def extract_working_tree(into):
    """Copy the working tree's files, tracked or untracked but not ignored, to into."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        # a tracked file deleted in the working tree is not copied
        if source.is_file():
            (Path(into) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, Path(into) / name)


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


def run_bench(tree, workload, seed, seconds, trace=0):
    """(metric name -> value, None) of one run in tree, or (None, why it failed).

    The metrics carry perfbench's env line, parsed, under the key "env".
    """
    done = subprocess.run([*BENCH_COMMAND, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
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
    env = next((line[len("env "):] for line in lines if line.startswith("env ")), "null")
    return {**metrics, "env": json.loads(env)}, None


def directions(kind="end_to_end"):
    """Metric name -> (unit, "lower" or "higher", bound or None), from the working
    tree's BENCHMARK.json; kind is "end_to_end" or "per_layer"."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"], m.get("bound")) for m in spec[kind]}


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
    if regressed(median, np.median(new), "higher", bound):
        return "regression"
    if q3 - q1 > bound * abs(median) and not new.min() > old.max():
        return "unresolved"
    return "no change"


def regressed(old, new, better, bound):
    """True when the median new is worse than the median old by more than bound times |old|."""
    gap = new - old if better == "higher" else old - new
    return -gap > bound * abs(old)


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


def workloads():
    """The benchmark's workload names, from the working tree's BENCHMARK.json."""
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def revision():
    """(the working tree's HEAD or None, whether any file differs from it)."""
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True).stdout
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    return head or None, bool(status.strip())


def record(untraced, traced, seed, seconds, tree):
    """The benchmark file of k untraced and k traced runs of each workload.

    untraced and traced map each workload to its runs' metrics.  end_to_end
    holds, per workload and metric, the median, quartiles and runs of the
    untraced values, with the metric's unit, direction and bound; per_layer
    holds the median of the traced values.  env is the first untraced run's
    env line; tree is revision() as the runs' copy was made: revision names
    the working tree's HEAD, and dirty says whether files differed from it.
    """
    end_to_end, per_layer = directions(), directions("per_layer")
    first = next(iter(untraced.values()))
    head, dirty = tree
    out = {"schema": RECORD_SCHEMA, "seed": seed, "seconds": seconds, "runs": len(first),
           "revision": head, "dirty": dirty, "env": first[0]["env"],
           "end_to_end": {}, "per_layer": {}}
    for workload, runs in untraced.items():
        out["end_to_end"][workload] = {}
        for name in end_to_end:
            values = [metrics[name] for metrics in runs]
            unit, better, bound = end_to_end[name]
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            out["end_to_end"][workload][name] = {
                "median": median, "q1": q1, "q3": q3, "values": values, "unit": unit,
                "better": better, "bound": bound}
    for workload, runs in traced.items():
        out["per_layer"][workload] = {
            name: {"median": float(np.median([metrics[name] for metrics in runs])), "unit": unit}
            for name, (unit, _, _) in per_layer.items()}
    return out


def against(old, new):
    """Print each end-to-end median of new next to old's; the number of regressions.

    A metric regresses when its median is worse than old's by more than its
    bound in the working tree's BENCHMARK.json times |old's median|.
    Timings recorded in two sessions may differ with the machine's speed, so
    a timing verdict across sessions is advisory; the A/B pairs are the
    evidence for a gain.
    """
    print(f"{'workload':<22} {'metric':<18} {'old median':>12} {'new median':>12} "
          f"{'change':>8}  verdict")
    regressions, spec = 0, directions()
    for workload, metrics in new["end_to_end"].items():
        for name, entry in metrics.items():
            before = old["end_to_end"].get(workload, {}).get(name)
            if before is None:
                print(f"{workload:<22} {name:<18} {'-':>12} {entry['median']:>12.4g}")
                continue
            _, better, bound = spec[name]
            worse = regressed(before["median"], entry["median"], better, bound)
            regressions += worse
            change = (entry["median"] - before["median"]) / abs(before["median"]) \
                if before["median"] else 0.0
            print(f"{workload:<22} {name:<18} {before['median']:>12.4g} {entry['median']:>12.4g} "
                  f"{change:>+8.1%}  {'REGRESSION' if worse else 'ok'} (bound {bound:g}, "
                  f"{better} is better)")
    return regressions


def record_main(args):
    """--record: k untraced, then k traced runs of every workload on the copy of the working tree.

    Each workload runs in its own perfbench process, as in the A/B pairs:
    under --workload all, one run.py starts every workload's children, which
    inherit its peak resident size (ru_maxrss), so a later workload's
    peak_rss_mb would read the high-water mark of the ones before it.
    """
    old = json.loads(Path(args.against).read_text()) if args.against else None
    with tempfile.TemporaryDirectory() as tmp:
        tree = revision()
        extract_working_tree(tmp)
        runs = {0: {}, 1: {}}
        for trace in (0, 1):
            for k in range(args.runs):
                for workload in workloads():
                    metrics, err = run_bench(tmp, workload, args.seed, args.seconds, trace)
                    if err is not None:
                        print(f"run {k + 1} trace {trace} {workload} FAILED: {err}", flush=True)
                        return 1
                    runs[trace].setdefault(workload, []).append(metrics)
                print(f"run {k + 1} trace {trace}: {len(runs[trace])} workloads", flush=True)
    bench = record(runs[0], runs[1], args.seed, args.seconds, tree)
    Path(args.record).write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.record}")
    if old is None:
        return 0
    regressions = against(old, bench)
    print(f"{regressions} regression(s) against {args.against}" if regressions else
          f"no regression against {args.against}")
    return 1 if regressions else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to compare the working tree with")
    parser.add_argument("--workload", help="one perfbench workload (A/B runs)")
    parser.add_argument("--seed", type=int, required=True, help="perfbench workload seed")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="perfbench --seconds of every run (default 15)")
    parser.add_argument("--record", metavar="PATH",
                        help="record the working tree's benchmark file instead of A/B pairs")
    parser.add_argument("--runs", type=int, default=RECORD_RUNS,
                        help=f"untraced and traced runs of --record, each (default {RECORD_RUNS}, "
                             f"least {RECORD_LEAST_RUNS})")
    parser.add_argument("--against", metavar="PATH",
                        help="benchmark file whose medians --record's must not regress from")
    args = parser.parse_args(argv)
    if args.record is not None:
        if args.runs < RECORD_LEAST_RUNS:
            parser.error(f"--runs must be >= {RECORD_LEAST_RUNS}")
        return record_main(args)
    if args.against is not None:
        parser.error("--against needs --record")
    if args.rev is None or args.workload is None:
        parser.error("--rev and --workload are required without --record")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": str(Path(tmp, "rev")), "tree": str(Path(tmp, "tree"))}
        try:
            extract_tree(args.rev, trees["rev"])
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        extract_working_tree(trees["tree"])
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
                        f"{name} {value:.4g}" for name, value in metrics.items() if name != "env"),
                          flush=True)
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
