#!/usr/bin/env python3
"""Compare two zvmcmc reports (study, diagnose or coverage JSON) value by value.

    python scripts/compare_reports.py A.json B.json [--rtol R]

Walks both reports side by side, skipping every "timing" block and
config.output_dir, the only parts that change between runs of one config and
seed.  For each top-level key it prints the largest relative difference
|a - b| / max(|a|, |b|) over the leaves both reports hold under it, and
where.  Lists of different lengths, unequal strings, booleans or nulls count
as an infinite difference.  A key only one report holds is listed on its own
line, so a key added on one side cannot hide a change in a value both sides
hold.  So is each object whose shared keys, timing and output_dir among
them, come in a different order, since the written bytes then differ.
Exits 0 when no difference exceeds rtol (default 0: the reports are equal),
no key is on one side only and no keys are reordered, 1 otherwise, and 2
when a file cannot be read.
"""
import argparse
import json
import math
import sys


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative(a, b):
    if _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b))
    return 0.0 if type(a) is type(b) and a == b else math.inf


def compare(a, b):
    """(shared, one_sided, reordered) for two JSON values a and b.

    shared lists (path, relative difference) for every leaf both values hold;
    one_sided lists (path, side) for every dict key that only side "a" or "b"
    holds; reordered lists the path of every dict whose shared keys come in a
    different order on the two sides.
    """
    shared, one_sided, reordered = [], [], []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            if [k for k in x if k in y] != [k for k in y if k in x]:
                reordered.append(path)
            for key in sorted(set(x) | set(y)):
                if key == "timing" or (key == "output_dir" and path[-1:] == ("config",)):
                    continue
                if key in x and key in y:
                    walk(x[key], y[key], path + (key,))
                else:
                    one_sided.append((path + (key,), "a" if key in x else "b"))
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                shared.append((path, math.inf))
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, path + (i,))
        else:
            shared.append((path, _relative(x, y)))

    walk(a, b, ())
    return shared, one_sided, reordered


def dotted(path):
    return ".".join(map(str, path)) or "(top level)"


def largest_by_key(shared):
    """{top-level key: (largest relative difference, path where it occurs)} of shared leaves."""
    out = {}
    for path, rel in shared:
        key = path[0] if path else ""
        if key not in out or rel > out[key][0]:
            out[key] = (rel, path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first report (JSON)")
    parser.add_argument("b", help="second report (JSON)")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference allowed (default 0)")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.a, args.b):
        try:
            with open(path) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    shared, one_sided, reordered = compare(*reports)
    worst = 0.0
    for key, (rel, path) in largest_by_key(shared).items():
        print(f"{key}: {rel:.3g}" + (f" at {dotted(path)}" if rel > 0.0 else ""))
        worst = max(worst, rel)
    for path, side in one_sided:
        print(f"only in {args.a if side == 'a' else args.b}: {dotted(path)}")
    for path in reordered:
        print(f"key order differs: {dotted(path)}")
    verdict = "within" if worst <= args.rtol else "above"
    print(f"largest relative difference {worst:.3g}, {verdict} rtol {args.rtol:g}"
          + (f"; {len(one_sided)} key(s) on one side only" if one_sided else "")
          + (f"; {len(reordered)} object(s) with keys in another order" if reordered else ""))
    return 0 if worst <= args.rtol and not one_sided and not reordered else 1


if __name__ == "__main__":
    sys.exit(main())
