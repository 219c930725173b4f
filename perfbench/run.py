#!/usr/bin/env python3
"""zvmcmc benchmark: one workload, end-to-end metrics or the traced per-layer run.

    python3 perfbench/run.py --workload logit-rwmh-study --seed 1 --seconds 15 --trace 0

Run from the repository root (any checkout holding ``src/`` and ``configs/``).
``--trace 0`` times the workload's CLI command (``zvmcmc run`` or ``zvmcmc
diagnose`` through ``cli.main``) with one pool worker per CPU, repeating it for
``--seconds``, and prints the end-to-end metrics.  ``--trace 1`` runs the
command once untraced and once traced with one worker, each in its own
process, and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn.

Every metric line reads ``<name> <value> <unit>``.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.  A
result file with the environment, the checks and (traced) the spans goes to
``.bench_build/perfbench/results/``.  Exit status: 0 when every correctness
check passes, 1 when one fails, 2 when the checkout or the arguments are
unusable (nothing is printed to stdout then).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import MIN_TIMED, WORKLOADS  # noqa: E402  (needs ROOT on the path)

RUN_BUDGET_S = 170.0       # one workload's run must end within 180 s
SETUP_PROBES = 3
# Timings are reported at the machine speed where the gauge kernel (child.py)
# takes this long; on a shared machine the raw times drift with the load.
GAUGE_REF_S = 0.1


class BenchError(RuntimeError):
    """A child process failed or overran; the run is reported as failed."""


class Children:
    """Starts the benchmark's child interpreters, one at a time, under one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def run(self, mode: str, workload, *options: str) -> dict:
        self.count += 1
        result = self.work / f"{self.count:02d}-{mode}.json"
        log = self.work / f"{self.count:02d}-{mode}.log"
        cmd = [sys.executable, "-m", "perfbench.child", mode, "--workload", workload.name,
               "--work", str(self.work), "--result", str(result), *options]
        with open(log, "w") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # the child and any pool worker it left share its process group
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{mode} child exited with {proc.returncode}: " + " | ".join(tail))
        with open(result) as fh:
            return json.load(fh)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _at_ref_speed(samples: list[dict], key: str) -> float:
    """Median of the timings, each scaled by GAUGE_REF_S over the gauge taken just before it."""
    return statistics.median(s[key] * GAUGE_REF_S / s["gauge_s"] for s in samples)


def _busy_s(report: dict) -> float:
    """Seconds spent on replications (summed over workers), or on the diagnose chain."""
    t = report["timing"]
    if "fit_chain_seconds" in t:
        return t["fit_chain_seconds"] + t["eval_chain_seconds"] + t["post_seconds"]
    return t["total_seconds"]


def _without_timing(report: dict) -> dict:
    """A diagnose report minus wall-clock timing and the worker-count setting."""
    return {k: v for k, v in report.items() if k not in ("timing", "config")}


def _output(inv: dict, workload) -> dict:
    name = "study.json" if workload.command == "run" else "diagnose.json"
    return _read_json(Path(inv["out_dir"]) / name)


def _count(inv_list, workload) -> tuple[int, int]:
    """(attempted, failed) replications; a diagnose invocation is one chain."""
    attempted = failed = 0
    for inv in inv_list:
        attempted += workload.replications
        if inv["rc"] != 0:
            failed += workload.replications
        elif workload.command == "run":
            report = _output(inv, workload)
            failed += report["replications_requested"] - report["replications_completed"]
    return attempted, failed


def _output_failures(inv: dict, workload, analysis) -> list[str]:
    if inv["rc"] != 0:
        return [f"{' '.join(inv['argv'][:1])} exited {inv['rc']}: {inv['error'] or 'see log'}"]
    report = _output(inv, workload)
    if workload.command == "run":
        return analysis.study_failures(report)
    return analysis.diagnose_failures(report)


def end_to_end(workload, seed, seconds, children, analysis):
    """--trace 0: setup probes, then the timed loop.

    Returns metrics, check failures, (attempted, failed), text lines and
    details for the result file.
    """
    probes = [children.run("setup", workload, "--threads", str(_nproc())) for _ in range(SETUP_PROBES)]
    capture = workload.command == "diagnose"
    timed = children.run("timed", workload, "--seed", str(seed), "--seconds", str(seconds),
                         "--threads", str(_nproc()),
                         "--min-invocations", str(max(workload.pooled, MIN_TIMED + capture)),
                         *(["--capture"] if capture else []))
    invocations = timed["invocations"]
    details = {"setup": probes, "invocations": invocations}
    failures = [f for inv in invocations for f in _output_failures(inv, workload, analysis)]
    counts = _count(invocations, workload)
    if failures:
        return {}, failures, counts, [], details
    timed_runs = [inv for inv in invocations if inv["timed"]]
    metrics = {"setup_s": _at_ref_speed(probes, "setup_s"),
               "wall_s": _at_ref_speed(timed_runs, "wall_s"),
               "peak_rss_mb": timed["peak_rss_mb"]}
    if workload.command == "run":
        reports = [_output(inv, workload) for inv in invocations[:workload.pooled]]
        ordinary, zv, names, _ = analysis.pooled_estimates(reports)
        failures += analysis.unbiased_failures(ordinary, zv, names)
        ratios = analysis.study_ratios(ordinary, zv, workload.base_seed(seed, 0))
        metrics["zv_over_ordinary"] = statistics.median(
            _output(inv, workload)["timing"]["zv_over_ordinary"] for inv in timed_runs)
    else:
        names = _output(invocations[0], workload)["model"]["parameters"]
        cap = timed["capture"]
        failures += analysis.in_chain_failures(cap["in_chain"], names)
        ratios = analysis.in_chain_ratios(cap["in_chain"])
        metrics["zv_over_ordinary"] = (cap["t_sample_s"] + cap["in_chain"]["post_s"]) / cap["t_sample_s"]
    summary = analysis.log10_summary(ratios)
    metrics["vr_log10"] = summary["vr_log10"]
    metrics["vr_lower_log10"] = summary["vr_lower_log10"]
    extra = [f"timed invocations {len(timed_runs)}, raw wall seconds "
             + ", ".join(f"{inv['wall_s']:.3f}" for inv in timed_runs)
             + ", gauge seconds " + ", ".join(f"{inv['gauge_s']:.3f}" for inv in timed_runs),
             "setup probes, raw seconds " + ", ".join(f"{p['setup_s']:.3f}" for p in probes)
             + ", gauge seconds " + ", ".join(f"{p['gauge_s']:.3f}" for p in probes)]
    extra += analysis.ratio_lines(ratios, names)
    return metrics, failures, counts, extra, details


def per_layer(workload, seed, seconds, children, analysis):
    """--trace 1: one untraced invocation with nproc workers, then, in another
    process, one untraced and one traced with one worker; per-layer metrics.

    seconds is unused: each side runs once.  Returns the same five parts as
    end_to_end; the details hold the spans.
    """
    from perfbench import tracer as tr

    untraced_run = children.run("timed", workload, "--seed", str(seed), "--seconds", "0",
                                "--threads", str(_nproc()), "--min-invocations", "1")
    untraced_inv = untraced_run["invocations"][0]
    traced = children.run("traced", workload, "--seed", str(seed))
    traced_inv, plain_inv = traced["invocation"], traced["plain_invocation"]
    runs = [untraced_inv, plain_inv, traced_inv]
    failures = [f for inv in runs for f in _output_failures(inv, workload, analysis)]
    counts = _count(runs, workload)
    if traced["leftover_wrappers"]:
        failures.append("wrappers left installed: " + ", ".join(traced["leftover_wrappers"]))
    elif "replay" not in traced:
        failures.append("the traced run sampled no chain")
    if failures:
        return {}, failures, counts, [], traced
    if not traced["replay"]["identical"]:
        failures.append("replaying the first chain untraced did not reproduce it bit for bit")

    untraced, plain, traced_out = (_output(inv, workload) for inv in runs)
    names = untraced["model"]["parameters"]
    if workload.command == "run":
        for key in ("per_replication_estimates", "seeds"):
            if not untraced[key] == plain[key] == traced_out[key]:
                failures.append(f"traced or one-worker run's {key} differ from the untraced run's")
        ordinary, zv, _, _ = analysis.pooled_estimates([untraced])
        failures += analysis.unbiased_failures(ordinary, zv, names)
        ratios = analysis.study_ratios(ordinary, zv, workload.base_seed(seed, 0))
        workers = min(_nproc(), workload.replications)
        accept = untraced["accept"]["eval_rate_mean"]
    else:
        if not _without_timing(untraced) == _without_timing(plain) == _without_timing(traced_out):
            failures.append("traced or one-worker diagnose report differs from the untraced one")
        failures += analysis.in_chain_failures(traced["in_chain"], names)
        ratios = analysis.in_chain_ratios(traced["in_chain"])
        workers = 1
        accept = untraced["chain"]["accept_rate"]
    busy_plain, busy_traced = _busy_s(plain), _busy_s(traced_out)

    spans, hot, ovh = traced["spans"], traced["hot"], traced["hot_overhead_ns"]
    own = tr.self_times(spans, ovh)
    layer_self = tr.layer_self_seconds(spans, ovh)
    chains = [s for s in spans if s["name"] == "samplers.sample_chain"]
    steps = sum(s["steps"] for s in chains)
    draws = sum(s["draws"] for s in chains)
    chain_ns = sum(s["end"] - s["start"] - s["hot_calls"] * ovh for s in chains)
    reps = tr.replication_seconds(spans, ovh)
    fits = traced["fits"]
    conditions = [c for _, _, c in fits if math.isfinite(c) and c > 0]

    def per_rep_median(name):
        totals = tr.per_rep_totals_ms(spans, name)
        return statistics.median(totals) if totals else 0.0

    def hot_count(name):
        return hot.get(name, [0, 0])[0]

    summary = analysis.log10_summary(ratios)
    replay = traced["replay"]
    metrics = {
        "models.log_density_us": traced["kernel_us"]["log_density"],
        "models.grad_us": traced["kernel_us"]["grad_log_density"],
        "models.log_density_calls_per_step": hot_count("models.log_density") / steps,
        "models.in_support_calls_per_step": hot_count("models.in_support") / steps,
        "models.grad_calls_per_draw": hot_count("models.grad_log_density") / draws,
        "models.self_s": layer_self.get("models", 0.0),
        "samplers.steps_per_s": replay["steps"] / statistics.median(replay["seconds"]),
        "samplers.overhead_share": sum(own[s["id"]] for s in chains) / chain_ns,
        "samplers.accept_rate": accept,
        "samplers.self_s": layer_self.get("samplers", 0.0),
        "zv.build_ms": per_rep_median("zv.eval_control_variates"),
        "zv.fit_ms": per_rep_median("zv.fit_coefficients"),
        "zv.fit_calls_per_rep": len(fits) / max(1, len(reps)),
        "zv.renormalize_ms": per_rep_median("zv.renormalize"),
        "zv.ridge_frac": statistics.fmean(r for r, _, _ in fits) if fits else 0.0,
        "zv.dropped_frac": statistics.fmean(d > 0 for _, d, _ in fits) if fits else 0.0,
        "zv.condition_log10_max": math.log10(max(conditions)) if conditions else 0.0,
        "zv.vr_log10.p1": summary["zv.vr_log10.p1"],
        "zv.vr_log10.top_min": summary["zv.vr_log10.top_min"],
        "zv.vr_lower_log10.top_min": summary["zv.vr_lower_log10.top_min"],
        "zv.self_s": layer_self.get("zv", 0.0),
        "diagnostics.variance_ratio_ms": tr.total_ms(spans, "diagnostics.variance_ratio"),
        "diagnostics.zero_mean_ms": tr.total_ms(spans, "diagnostics.cv_zero_mean_test"),
        "diagnostics.linnik_ms": tr.total_ms(spans, "diagnostics.linnik_estimate"),
        "diagnostics.moment_ms": tr.total_ms(spans, "diagnostics.moment_diagnostic"),
        "diagnostics.reference_ms": tr.total_ms(spans, "diagnostics.long_chain_reference"),
        "diagnostics.self_s": layer_self.get("diagnostics", 0.0),
        "experiments.parallel_efficiency": _busy_s(untraced) / (workers * untraced_inv["wall_s"]),
        "experiments.rep_s_p50": statistics.median(reps.values()) if reps else 0.0,
        "experiments.rep_s_max": max(reps.values()) if reps else 0.0,
        "experiments.driver_self_s": sum(own[s["id"]] for s in spans
                                         if s["name"] in ("experiments.run_study",
                                                          "experiments.run_diagnose")) / 1e9,
        "data_io.synthetic_ms": tr.total_ms(spans, "data_io.synthetic_banknote")
                                + tr.total_ms(spans, "data_io.synthetic_demgbp_returns"),
        "data_io.export_ms": tr.total_ms(spans, "data_io.export_study")
                             + tr.total_ms(spans, "data_io.export_chain"),
        "cli.self_ms": sum(own[s["id"]] for s in spans if s["name"] == "cli.main") / 1e6,
        "bench.trace_overhead_share": busy_traced / busy_plain - 1.0,
    }
    hot_calls = sum(s["hot_calls"] for s in spans)
    extra = [f"one worker: untraced busy {busy_plain:.3f} s, traced busy {busy_traced:.3f} s "
             f"(tracing overhead {metrics['bench.trace_overhead_share']:+.1%} measured, "
             f"{hot_calls * ovh / 1e9 / busy_plain:+.1%} from {hot_calls} hot calls at the "
             f"calibrated {ovh:.0f} ns each, which self times exclude)",
             "layer self seconds: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(layer_self.items()))]
    if traced["missing"]:
        extra.append("not traced (absent in this checkout): " + ", ".join(traced["missing"]))
    extra += analysis.ratio_lines(ratios, names)
    return metrics, failures, counts, extra, traced


def run_workload(workload, args, spec, analysis, env) -> dict:
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = Children(work, time.monotonic() + RUN_BUDGET_S)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, failures, counts, extra, details = measure(workload, args.seed, args.seconds,
                                                            children, analysis)
    except Exception as exc:  # any fault fails this run, which still reports
        traceback.print_exc()
        metrics, failures, extra, details = {}, [f"{type(exc).__name__}: {exc}"], [], {}
        counts = (workload.replications, workload.replications)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not failures and set(metrics) != set(units):
        failures.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    print(f"== {workload.name} seed {args.seed} trace {args.trace}")
    for line in extra:
        print(line)
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print("checks passed: replications complete, ZV unbiased"
              + (", traced = untraced bit for bit" if args.trace else ""))

    attempted, failed = counts
    result = {"correct": not failures, "attempted": max(1, attempted), "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics}}
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, checks=failures, environment=env, details=details)
    (base / "results").mkdir(parents=True, exist_ok=True)
    with open(base / "results" / f"{work.name}.json", "w") as fh:
        json.dump(record, fh)
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "zvmcmc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no zvmcmc sources (src/zvmcmc) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import analysis

    spec = _read_json(spec_path)
    problems = analysis.name_errors(spec)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    problems += [f"unknown workload {n!r}; choose from {', '.join(WORKLOADS)} or all"
                 for n in names if n not in WORKLOADS]
    problems += [f"missing config {WORKLOADS[n].config}" for n in names
                 if n in WORKLOADS and not (ROOT / WORKLOADS[n].config).is_file()]
    if args.seed < 0:
        problems.append("--seed must be >= 0")
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2

    env = analysis.environment(ROOT)
    print("env " + json.dumps(env))
    results = {n: run_workload(WORKLOADS[n], args, spec, analysis, env) for n in names}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
