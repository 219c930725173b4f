#!/usr/bin/env python3
"""Check that a git revision and the working tree write the same reports.

    python scripts/check_identity.py --rev HEAD~1 [--config configs/toys.json ...] [--replications 2]
                                     [--expect-key config.proposal_sd ...]

Runs the standing identity protocol once with the CLI of src/zvmcmc at --rev
and once with the working tree's, each command in a fresh process.  The rev
side runs from a temporary root that holds src/zvmcmc and configs/ at --rev,
extracted with scripts/ab_bench.py's checkout, and ab_bench.py's shipped
names each config relative to the root when it is under configs/, so each
side reads its own revision's shipped configs, and a key renamed between
the two reads on both.  The commands are:

  run --seed 7 on the four shipped configs, 4 replications (GARCH 2), at
  --threads 1 and at --threads 2;
  run --seed 7 --keep-chains on configs/toys.json, 4 replications at
  --threads 2, which also writes every sampled chain under <out>/chains;
  diagnose --seed 7 on logit (--length 50000), on probit, whose Gibbs chain
  no other diagnose runs, and on GARCH (both --length 20000);
  coverage --seed 7 --keep-chains, 4 replications, on a temporary copy of
  configs/toys.json with single_chain true and a 20,000-draw reference
  chain; each side copies its own revision's configs/toys.json, and the
  command's printed name shows the copy's path with <tmp> for the
  temporary directory and {side} for the side.

--config limits the run and diagnose commands to the given configs (the
--keep-chains run comes with configs/toys.json) and leaves out the coverage
command; a config outside the shipped four gets the runs at 4 replications
and no diagnose.  --replications replaces every run's replication count.  A
config outside configs/ is one file that both sides read.

Each pair of reports is compared with compare_reports.compare, which
skips every timing block and config.output_dir, each pair of study CSVs
must be byte-identical, both sides must write the same non-empty set of
chain CSVs, each byte-identical, and the two sides must print the same
lines once each side's output directory is replaced by one placeholder.
Prints one line per command; a command whose outputs differ names, for
each JSON report that differs, the largest relative difference over the
leaves both sides hold, the keys only one side holds and the objects whose
keys come in another order, says whether the CSV bytes differ and names the
first printed line that differs.

--expect-key KEY (repeatable) names a report key, dotted as the lines print
it (config.proposal_sd), that a change adds, removes or alters on purpose:
its value, and everything under it, may differ or be held by one side only.
A command whose only JSON differences lie under expected keys reads
"identical apart from" them; every other value, the CSV bytes and the
printed lines must still be equal.  Exits 0 when every pair is equal in that
sense, 1 when a pair differs or a command fails, and 2 when the revision
cannot be extracted.
"""
import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, checkout, shipped
from compare_reports import compare, dotted

SEED = 7
THREADS = (1, 2)
DEFAULT_REPLICATIONS = 4
# shipped config -> replications per run
STUDIES = {
    "configs/logit_banknote.json": 4,
    "configs/probit_banknote.json": 4,
    "configs/toys.json": 4,
    "configs/garch_demgbp.json": 2,
}
# the shipped config that also gets a --keep-chains run, at --threads 2
KEEP_CHAINS = "configs/toys.json"
# shipped config -> diagnose chain length
DIAGNOSES = {
    "configs/logit_banknote.json": 50_000,
    "configs/probit_banknote.json": 20_000,
    "configs/garch_demgbp.json": 20_000,
}
# the coverage command's config: a shipped config with these keys replaced
COVERAGE = ("configs/toys.json", {"single_chain": True, "reference_length": 20_000})


def protocol(configs, replications):
    """(CLI arguments but the seed, files to compare) for each command of the protocol."""
    steps = []
    for config in configs:
        # each side's commands run from its own root
        key = str(shipped(config))
        reps = replications or STUDIES.get(key, DEFAULT_REPLICATIONS)
        for threads in THREADS:
            steps.append((["run", "--config", key, "--replications", str(reps),
                           "--threads", str(threads)], ("study.json", "study.csv")))
        if key == KEEP_CHAINS:
            steps.append((["run", "--config", key, "--replications", str(reps), "--threads", "2",
                           "--keep-chains"], ("study.json", "study.csv", "chains/")))
        if key in DIAGNOSES:
            steps.append((["diagnose", "--config", key, "--length", str(DIAGNOSES[key])],
                          ("diagnose.json",)))
    return steps


def coverage_step(tmp, roots):
    """(CLI arguments but the seed, files to compare) of the coverage command.

    For each side of roots ({side: root}) the config is written to
    <tmp>/<side>/, a copy of that root's own configs/toys.json with
    COVERAGE's keys replaced; in the arguments "<tmp>" stands for tmp and
    "{side}" for the side, so the command prints the same on every run.
    """
    key, overrides = COVERAGE
    name = "coverage_" + Path(key).name
    for side, root in roots.items():
        Path(tmp, side).mkdir()
        Path(tmp, side, name).write_text(
            json.dumps({**json.loads(Path(root, key).read_text()), **overrides}))
    return (["coverage", "--config", str(Path("<tmp>", "{side}", name)),
             "--replications", str(DEFAULT_REPLICATIONS), "--keep-chains"],
            ("coverage.json", "chains/"))


def run_side(root, argv, out_dir):
    """Run one CLI command from root with the zvmcmc under root/src: (its stdout
    with out_dir replaced by "<out>", None) on success, else (None, the tail of
    its stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(root, "src")), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "zvmcmc.cli", *argv, "--out", out_dir],
                          cwd=root, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return done.stdout.replace(out_dir, "<out>"), None
    return None, (done.stderr.strip().splitlines() or ["no output"])[-1]


def stdout_difference(rev_out, tree_out):
    """The first line the two sides print differently, or None when they print the same."""
    lines = itertools.zip_longest(rev_out.splitlines(), tree_out.splitlines())
    for k, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"stdout differs at line {k}: {a!r} vs {b!r}"
    return None


def is_expected(path, expected):
    """True when the dotted path is one of the expected keys or lies under one."""
    name = dotted(path)
    return any(name == key or name.startswith(key + ".") for key in expected)


def largest_differences(rev_dir, tree_dir, files, expected=(), excused=None):
    """How the two output directories differ, or None when they are equal.

    Names, for each JSON report that differs, the largest relative difference
    over the leaves both sides hold and where it occurs ("shared values
    equal" when there is none), the keys only one side holds and the objects
    whose shared keys come in another order, and each CSV whose bytes
    differ.  A name ending in "/" is a directory of CSVs: each side must
    hold the same files, at least one, and the first file whose bytes differ
    is named with the count of such files.  A JSON difference at or under
    one of the expected keys is left out, and its dotted key is added to the
    set excused when one is given.
    """
    found = []
    for name in files:
        a, b = Path(rev_dir, name), Path(tree_dir, name)
        if name.endswith("/"):
            held = [sorted(p.name for p in d.iterdir()) if d.is_dir() else [] for d in (a, b)]
            if held[0] != held[1]:
                found.append(f"{name} holds different files ({len(held[0])} vs {len(held[1])})")
            elif not held[0]:
                found.append(f"{name} is empty on both sides")
            else:
                differ = [f for f in held[0] if (a / f).read_bytes() != (b / f).read_bytes()]
                if differ:
                    found.append(f"{name}{differ[0]} bytes differ ({len(differ)} of {len(held[0])} files)")
            continue
        if name.endswith(".csv"):
            if a.read_bytes() != b.read_bytes():
                found.append(f"{name} bytes differ")
            continue
        with open(a) as fa, open(b) as fb:
            shared, one_sided, reordered = compare(json.load(fa), json.load(fb))
        differing = [p for p, rel in shared if rel] + [p for p, _ in one_sided] + reordered
        if excused is not None:
            excused.update(dotted(p) for p in differing if is_expected(p, expected))
        shared = [leaf for leaf in shared if not is_expected(leaf[0], expected)]
        one_sided = [key for key in one_sided if not is_expected(key[0], expected)]
        reordered = [p for p in reordered if not is_expected(p, expected)]
        path, rel = max(shared, key=lambda leaf: leaf[1], default=((), 0.0))
        parts = [f"largest at {dotted(path)} (relative {rel:.3g})" if rel else "shared values equal"]
        for side, label in (("a", "rev"), ("b", "tree")):
            keys = [dotted(p) for p, s in one_sided if s == side]
            if keys:
                parts.append(f"only in {label}: {', '.join(keys)}")
        if reordered:
            parts.append(f"key order differs: {', '.join(map(dotted, reordered))}")
        if rel or one_sided or reordered:
            found.append(f"{name} " + ", ".join(parts))
    return "; ".join(found) or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--config", action="append", default=None,
                        help="config file (repeatable; default the four shipped configs)")
    parser.add_argument("--replications", type=int, default=None,
                        help="replications of every run (default 4, GARCH 2)")
    parser.add_argument("--expect-key", action="append", default=[], metavar="KEY",
                        help="dotted report key that may differ or be on one side only "
                             "(repeatable)")
    args = parser.parse_args(argv)
    if args.replications is not None and args.replications < 1:
        parser.error("--replications must be >= 1")
    configs = args.config or [str(ROOT / key) for key in STUDIES]

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        failed = checkout(args.rev, tmp)
        if failed:
            print(failed, file=sys.stderr)
            return 2
        # each side runs in its own processes, so both packages keep their name
        sides = {"rev": tmp, "tree": str(ROOT)}
        steps = protocol(configs, args.replications)
        if args.config is None:
            steps.append(coverage_step(tmp, sides))
        for k, (cli_argv, files) in enumerate(steps):
            dirs = {side: os.path.join(tmp, f"out{k}_{side}") for side in sides}
            done = {side: run_side(sides[side], [arg.replace("<tmp>", tmp).replace("{side}", side)
                                                 for arg in cli_argv] + ["--seed", str(SEED)],
                                   dirs[side])
                    for side in sides}
            found = [f"{side} failed: {err}" for side, (_, err) in done.items() if err is not None]
            excused = set()
            if not found:
                found = [d for d in (largest_differences(dirs["rev"], dirs["tree"], files,
                                                         args.expect_key, excused),
                                     stdout_difference(done["rev"][0], done["tree"][0])) if d]
            failures += bool(found)
            same = "identical" + (f" apart from {', '.join(sorted(excused))}" if excused else "")
            print(" ".join(cli_argv) + ": " + ("DIFFERS, " + "; ".join(found) if found else same),
                  flush=True)
    print(f"{failures} command(s) differ or fail" if failures else
          f"every report equals {args.rev}'s"
          + (f" apart from the expected keys {', '.join(args.expect_key)}" if args.expect_key else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
