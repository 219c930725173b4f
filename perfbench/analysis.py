"""Correctness checks and metrics computed from the CLI's output files.

Everything here reads plain report dicts (``study.json``, ``diagnose.json``)
and the child processes' JSON results, so the tests can feed it hand-made
reports.
"""
from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
from pathlib import Path

import numpy as np
from scipy import stats

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

# |mean ZV - mean ordinary| may not exceed this many combined standard errors.
# With few replications the standard errors are themselves noisy, so the
# threshold is the Student-t quantile with the same two-sided tail as 4
# normal standard errors (4.05 at 315 degrees of freedom, 5.1 at 19, 8.5 at 7).
UNBIASED_SE = 4.0
# worst |z| of the diagnose zero-mean check; larger means a control variate
# column does not average to zero (wrong gradient or unhandled boundary)
ZERO_MEAN_MAX_Z = 5.0
CI_LEVEL = 0.95
BOOTSTRAP_RESAMPLES = 1000


def unbiased_threshold(dof: int) -> float:
    tail = stats.norm.sf(UNBIASED_SE)
    return float(stats.t.isf(tail, dof))


# ---------------------------------------------------------------------------
# studies


def study_failures(report: dict) -> list[str]:
    """Every requested replication must complete."""
    done, asked = report["replications_completed"], report["replications_requested"]
    if report.get("partial") or done != asked:
        errors = report.get("replication_errors") or []
        first = errors[0]["error"] if errors else "no error recorded"
        return [f"{asked - done} of {asked} replications failed ({first})"]
    return []


def pooled_estimates(reports: list[dict]):
    """Stack per-replication estimates: ordinary (R, P), zv {degree: (R, P)}, names, degrees."""
    degrees = [int(p) for p in reports[0]["degrees"]]
    ordinary = np.vstack([np.asarray(r["per_replication_estimates"]["ordinary"], float)
                          for r in reports])
    zv = {p: np.vstack([np.asarray(r["per_replication_estimates"]["zv"][str(p)], float)
                        for r in reports]) for p in degrees}
    return ordinary, zv, list(reports[0]["model"]["parameters"]), degrees


def unbiased_failures(ordinary, zv, names) -> list[str]:
    """ZV and ordinary means agree within the combined across-replication standard error."""
    R = ordinary.shape[0]
    limit = unbiased_threshold(R - 1)
    out = []
    for p, est in zv.items():
        for j, name in enumerate(names):
            se = math.sqrt(ordinary[:, j].var(ddof=1) / R + est[:, j].var(ddof=1) / R)
            diff = abs(est[:, j].mean() - ordinary[:, j].mean())
            if not diff <= limit * se:
                out.append(f"degree {p} {name}: |ZV - ordinary| = {diff:.3g} exceeds "
                           f"{limit:.2f} x combined SE {se:.3g} over {R} replications")
    return out


def study_ratios(ordinary, zv, base_seed: int) -> dict[int, list[tuple[float, float]]]:
    """Degree -> per coordinate (variance ratio, 95% lower bound).

    The program's own ``variance_ratio`` gives the point and, from 20
    replications on, the paired-bootstrap bound.  Below 20 the bound is the
    normal-theory one, point / F(0.975; R-1, R-1).
    """
    from zvmcmc.diagnostics import ReplicationStudy, variance_ratio

    R, P = ordinary.shape
    study = ReplicationStudy(ordinary_estimates=ordinary, zv_estimates=zv,
                             seeds=np.arange(R, dtype=np.uint64),
                             parameter_names=tuple(f"x{j}" for j in range(P)))
    f_quantile = stats.f.isf((1 - CI_LEVEL) / 2, R - 1, R - 1)
    out = {}
    for p in zv:
        rows = []
        for j in range(P):
            rep = variance_ratio(study, j, p, resamples=BOOTSTRAP_RESAMPLES,
                                 seed=base_seed + 10 * j + p)
            lower = rep.lower if math.isfinite(rep.lower) else rep.point / f_quantile
            rows.append((float(rep.point), float(lower)))
        out[p] = rows
    return out


# ---------------------------------------------------------------------------
# the long diagnose chain


def diagnose_failures(report: dict) -> list[str]:
    z = [abs(v) for v in report["zero_mean"]["z_scores"] if v is not None]
    if not z:
        return ["zero-mean check: every control variate column is degenerate"]
    if max(z) >= ZERO_MEAN_MAX_Z:
        return [f"zero-mean check: worst |z| {max(z):.3g} >= {ZERO_MEAN_MAX_Z}"]
    return []


def in_chain_ratios(in_chain: dict) -> dict[int, list[tuple[float, float]]]:
    """Degree -> per coordinate (asvar f / asvar ftilde, 95% lower bound by F(b-1, b-1))."""
    b = in_chain["batches"]
    f_quantile = stats.f.isf((1 - CI_LEVEL) / 2, b - 1, b - 1)
    return {int(p): [(row["asvar_f"] / row["asvar_zv"], row["asvar_f"] / row["asvar_zv"] / f_quantile)
                     for row in rows]
            for p, rows in in_chain["degrees"].items()}


def in_chain_failures(in_chain: dict, names) -> list[str]:
    n, b = in_chain["n"], in_chain["batches"]
    limit = unbiased_threshold(b - 1)
    out = []
    for p, rows in in_chain["degrees"].items():
        for name, row in zip(names, rows):
            se = math.sqrt(row["asvar_f"] / n + row["asvar_zv"] / n)
            diff = abs(row["mean_zv"] - row["mean_f"])
            if not diff <= limit * se:
                out.append(f"degree {p} {name}: in-chain |ZV - ordinary| = {diff:.3g} exceeds "
                           f"{limit:.2f} x combined SE {se:.3g}")
    return out


# ---------------------------------------------------------------------------
# summaries


def log10_summary(ratios: dict[int, list[tuple[float, float]]]) -> dict[str, float]:
    """The log10 variance-reduction figures reported end to end and per layer."""
    for rows in ratios.values():
        for point, lower in rows:
            if not (math.isfinite(point) and point > 0 and math.isfinite(lower) and lower > 0):
                raise ValueError(f"variance ratio {point} (lower {lower}) has no finite log10")
    top = max(ratios)
    points = [math.log10(pt) for pt, _ in ratios[top]]
    lowers = [math.log10(lo) for _, lo in ratios[top]]
    return {
        "vr_log10": statistics.fmean(points),
        "vr_lower_log10": statistics.fmean(lowers),
        "zv.vr_log10.p1": statistics.fmean(math.log10(pt) for pt, _ in ratios[min(ratios)]),
        "zv.vr_log10.top_min": min(points),
        "zv.vr_lower_log10.top_min": min(lowers),
    }


def ratio_lines(ratios, names) -> list[str]:
    """Per degree and coordinate, as zv.vr_log10.p<deg>.<coord> and the lower bound."""
    lines = []
    for p, rows in sorted(ratios.items()):
        for name, (point, lower) in zip(names, rows):
            lines.append(f"zv.vr_log10.p{p}.{name} {math.log10(point):.4f} log10")
            lines.append(f"zv.vr_lower_log10.p{p}.{name} {math.log10(lower):.4f} log10")
    return lines


def name_errors(spec: dict) -> list[str]:
    """Names and caps BENCHMARK.json must respect."""
    errors = []
    groups = {"workloads": spec.get("workloads", []), "end_to_end": spec.get("end_to_end", []),
              "per_layer": spec.get("per_layer", [])}
    if len(groups["end_to_end"]) > MAX_END_TO_END:
        errors.append(f"{len(groups['end_to_end'])} end-to-end metrics, cap {MAX_END_TO_END}")
    if len(groups["per_layer"]) > MAX_PER_LAYER:
        errors.append(f"{len(groups['per_layer'])} per-layer metrics, cap {MAX_PER_LAYER}")
    seen = set()
    for group, entries in groups.items():
        for entry in entries:
            name = entry.get("name", "")
            if not NAME_RE.fullmatch(name):
                errors.append(f"{group} name {name!r} does not match {NAME_RE.pattern}")
            if name in seen:
                errors.append(f"name {name!r} used twice")
            seen.add(name)
    return errors


def environment(root: Path) -> dict:
    """Machine, library and source facts recorded with every result."""
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "src_lines": src_lines,
    }
