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
hold.  Exits 0 when no difference exceeds rtol (default 0: the reports are
equal) and no key is on one side only, 1 otherwise, and 2 when a file cannot
be read.
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
    """(shared, one_sided) for two JSON values a and b.

    shared lists (path, relative difference) for every leaf both values hold;
    one_sided lists (path, side) for every dict key that only side "a" or "b"
    holds.
    """
    shared, one_sided = [], []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
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
    return shared, one_sided


def dotted(path):
    return ".".join(map(str, path))


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
    shared, one_sided = compare(*reports)
    worst = 0.0
    for key, (rel, path) in largest_by_key(shared).items():
        print(f"{key}: {rel:.3g}" + (f" at {dotted(path)}" if rel > 0.0 else ""))
        worst = max(worst, rel)
    for path, side in one_sided:
        print(f"only in {args.a if side == 'a' else args.b}: {dotted(path)}")
    verdict = "within" if worst <= args.rtol else "above"
    print(f"largest relative difference {worst:.3g}, {verdict} rtol {args.rtol:g}"
          + (f"; {len(one_sided)} key(s) on one side only" if one_sided else ""))
    return 0 if worst <= args.rtol and not one_sided else 1


if __name__ == "__main__":
    sys.exit(main())
