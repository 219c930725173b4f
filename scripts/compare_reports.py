#!/usr/bin/env python3
"""Compare two zvmcmc reports (study, diagnose or coverage JSON) value by value.

    python scripts/compare_reports.py A.json B.json [--rtol R]

Walks both reports side by side, skipping every "timing" block and
config.output_dir, the only parts that change between runs of one config and
seed.  For each top-level key it prints the largest relative difference
|a - b| / max(|a|, |b|) found under it and where.  Missing keys, lists of
different lengths, unequal strings, booleans or nulls count as an infinite
difference.  Exits 0 when no difference exceeds rtol (default 0: the reports
are equal), 1 when one does, and 2 when a file cannot be read.
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


def differences(a, b, path=()):
    """Yield (path, relative difference) for every leaf of two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key == "timing" or (key == "output_dir" and path[-1:] == ("config",)):
                continue
            if key not in a or key not in b:
                yield path + (key,), math.inf
            else:
                yield from differences(a[key], b[key], path + (key,))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path, math.inf
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, path + (i,))
    else:
        yield path, _relative(a, b)


def largest_by_key(a, b):
    """{top-level key: (largest relative difference, path where it occurs)}."""
    out = {}
    for path, rel in differences(a, b):
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
    worst = 0.0
    for key, (rel, path) in largest_by_key(*reports).items():
        where = ".".join(str(p) for p in path)
        print(f"{key}: {rel:.3g}" + (f" at {where}" if rel > 0.0 else ""))
        worst = max(worst, rel)
    verdict = "within" if worst <= args.rtol else "above"
    print(f"largest relative difference {worst:.3g}, {verdict} rtol {args.rtol:g}")
    return 0 if worst <= args.rtol else 1


if __name__ == "__main__":
    sys.exit(main())
