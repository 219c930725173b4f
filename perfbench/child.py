"""Child processes of the benchmark, one fresh interpreter each.

    python3 -m perfbench.child setup  --workload W --threads T --result FILE
    python3 -m perfbench.child timed  --workload W --seed S --seconds X --threads T --work DIR
                                      --min-invocations N --result FILE [--capture]
    python3 -m perfbench.child traced --workload W --seed S --work DIR --result FILE

``setup`` times ``import zvmcmc``, ``ExperimentConfig.from_file`` and
``build_model``, then the machine-speed gauge.  ``timed`` repeats the
workload's CLI command for the given seconds with no wrapper installed,
each time right after the gauge.  ``traced`` runs the command with one
worker twice, plainly and then under the tracer, removes the wrappers, then
replays the first chain and times the model kernels untraced.  Each mode
writes one JSON file.  Nothing here imports zvmcmc or numpy at module level,
so the setup probe times those imports.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import time

from perfbench.workloads import WORKLOADS

KERNEL_POINTS = 64
KERNEL_REPEATS = 9
KERNEL_MIN_REPEAT_S = 0.01
REPLAY_MIN_S = 1.0
GAUGE_STEPS = 4000


def _gauge_kernel(steps: int) -> float:
    """Seconds of a fixed random-walk Metropolis run on a small logistic model."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 4))
    y = (rng.random(200) < 0.5).astype(float)
    x, logp = np.zeros(4), -np.inf
    t0 = time.perf_counter()
    for _ in range(steps):
        prop = x + 0.3 * rng.standard_normal(4)
        if np.all(np.isfinite(prop)):
            t = X @ prop
            lp = float(y @ t - np.sum(np.logaddexp(0.0, t)))
            if lp - logp > np.log(rng.random()):
                x, logp = prop, lp
    return time.perf_counter() - t0


def _gauge_worker(conn) -> None:
    conn.send(_gauge_kernel(GAUGE_STEPS))
    conn.close()


def gauge_s(processes: int) -> float:
    """Machine speed right now: seconds of the gauge kernel run once per CPU at once, slowest.

    The kernel is Python-loop and small-numpy work like the samplers', so on
    a shared machine its time moves with the workload's.  Plain forked
    processes leave no thread behind to disturb the CLI's own pool.
    """
    import multiprocessing

    _gauge_kernel(50)  # first calls set up numpy's ufunc loops; let the forks inherit that
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    for _ in range(processes):
        receive, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_gauge_worker, args=(send,))
        proc.start()
        send.close()
        pipes.append(receive)
        procs.append(proc)
    seconds = [conn.recv() for conn in pipes]
    for proc in procs:
        proc.join()
    return max(seconds)


def peak_rss_mb() -> float:
    """Largest RSS of this process or any waited-for descendant (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(workload, processes) -> dict:
    t0 = time.perf_counter()
    import zvmcmc  # noqa: F401
    from zvmcmc.experiments import ExperimentConfig, build_model

    build_model(ExperimentConfig.from_file(workload.config))
    setup = time.perf_counter() - t0
    return {"setup_s": setup, "gauge_s": gauge_s(processes)}


def _cpu_s() -> float:
    """CPU seconds of this process plus its waited-for descendants (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _invoke(cli, argv) -> dict:
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        rc, error = cli.main(argv), None
    except Exception as exc:  # a crashed invocation is reported, and fails the run
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    return {"argv": argv, "out_dir": argv[argv.index("--out") + 1], "rc": rc,
            "error": error, "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0}


def in_chain_quality(model, chain, degrees) -> dict:
    """ZV on one long chain: fit and evaluate on the chain, batch-means variances.

    Mirrors the single-chain study path (one control variate matrix per
    degree, one fit per coordinate).  post_s is the top degree's post-processing
    time, the ZV arm's extra cost over the chain.
    """
    import numpy as np
    from zvmcmc.diagnostics import batch_means_asvar
    from zvmcmc.zv import (default_exclusions, eval_control_variates, fit_coefficients,
                           monomial_basis, renormalize, standardization_from_chain)

    n, d = chain.draws.shape
    batches = max(10, int(math.sqrt(n)))
    exclusions = default_exclusions(model)
    out = {"n": n, "batches": batches, "degrees": {}, "post_s": 0.0}
    for p in sorted(degrees):
        t0 = time.perf_counter()
        center, scale = standardization_from_chain(chain)
        basis = monomial_basis(d, p, tuple(e for e in exclusions if sum(e) <= p))
        cv = eval_control_variates(chain, basis, center=center, scale=scale)
        ftilde = [renormalize(chain.draws[:, j], cv, fit_coefficients(cv, chain.draws[:, j]))
                  for j in range(d)]
        out["post_s"] = time.perf_counter() - t0
        out["degrees"][str(p)] = [
            {"mean_f": float(np.mean(chain.draws[:, j])), "mean_zv": float(np.mean(ftilde[j])),
             "asvar_f": batch_means_asvar(chain.draws[:, j], batches),
             "asvar_zv": batch_means_asvar(ftilde[j], batches)}
            for j in range(d)]
    return out


def _degrees(workload) -> list[int]:
    with open(workload.config) as fh:
        return list(json.load(fh).get("degrees", [1, 2]))


def timed(workload, seed, seconds, threads, work_dir, capture, min_invocations) -> dict:
    from zvmcmc import cli

    from perfbench.tracer import substitute

    config = workload.write_config(work_dir)
    result = {"invocations": [], "capture": None}
    first = {}
    k = 0
    if capture:
        # the capturing invocation doubles as warm-up and is never timed
        def keep_first_chain(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                chain = original(*args, **kwargs)
                first.setdefault("call", (args[0], chain, time.perf_counter() - t0))
                return chain
            return wrapper

        with substitute("zvmcmc.samplers", "sample_chain", keep_first_chain):
            inv = _invoke(cli, workload.argv(config, seed, 0, os.path.join(work_dir, "k0"), threads))
        inv["timed"] = False
        result["invocations"].append(inv)
        k = 1
    t_start = time.perf_counter()
    while True:
        gauge = gauge_s(threads)
        inv = _invoke(cli, workload.argv(config, seed, k, os.path.join(work_dir, f"k{k}"), threads))
        inv["timed"] = True
        inv["gauge_s"] = gauge
        result["invocations"].append(inv)
        k += 1
        if inv["rc"] != 0 or (time.perf_counter() - t_start >= seconds and k >= min_invocations):
            break
    # before the benchmark's own work on the captured chain raises the peak
    result["peak_rss_mb"] = peak_rss_mb()
    if capture and "call" in first:
        model, chain, t_sample = first.pop("call")
        result["capture"] = {"t_sample_s": t_sample,
                             "in_chain": in_chain_quality(model, chain, _degrees(workload))}
    return result


def kernel_us(fn, points) -> float:
    """Median microseconds per call over KERNEL_REPEATS timed passes, warm-up excluded."""
    for x in points:
        fn(x)
    t0 = time.perf_counter()
    for x in points:
        fn(x)
    one_pass = time.perf_counter() - t0
    passes = max(1, math.ceil(KERNEL_MIN_REPEAT_S / max(one_pass, 1e-9)))
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        for _ in range(passes):
            for x in points:
                fn(x)
        samples.append((time.perf_counter() - t0) / (passes * len(points)) * 1e6)
    return statistics.median(samples)


def traced(workload, seed, work_dir) -> dict:
    import numpy as np
    from zvmcmc import cli

    from perfbench import tracer as tr

    overhead_ns = tr.calibrate_hot_overhead_ns()
    config = workload.write_config(work_dir)
    # the same invocation untraced first: the baseline for the tracing overhead
    plain = _invoke(cli, workload.argv(config, seed, 0, os.path.join(work_dir, "k0-plain"), threads=1))
    tracer = tr.Tracer(workload.base_seed(seed, 0))
    argv = workload.argv(config, seed, 0, os.path.join(work_dir, "k0-traced"), threads=1)
    with tracer.active():
        with tracer.span("cli.main", "cli"):
            inv = _invoke(cli, argv)
    result = {"plain_invocation": plain, "invocation": inv, "spans": tracer.spans, "hot": tracer.hot,
              "fits": tracer.fits, "missing": tracer.missing,
              "hot_overhead_ns": overhead_ns, "leftover_wrappers": tr.leftover_wrappers()}
    if tracer.first_chain_call is None or result["leftover_wrappers"]:
        return result

    import zvmcmc.samplers

    args, kwargs, chain = tracer.first_chain_call
    chain_cfg = tr.chain_config(args, kwargs)
    seconds = []
    identical = True
    while not seconds or sum(seconds) < REPLAY_MIN_S:
        t0 = time.perf_counter()
        again = zvmcmc.samplers.sample_chain(*args, **kwargs)
        seconds.append(time.perf_counter() - t0)
        identical = identical and np.array_equal(again.draws, chain.draws) \
            and np.array_equal(again.gradients, chain.gradients)
    result["replay"] = {"steps": chain_cfg.burn_in + chain_cfg.length * chain_cfg.thin,
                        "seconds": seconds, "identical": bool(identical)}

    model = args[0]
    idx = np.linspace(0, chain.length - 1, KERNEL_POINTS).astype(int)
    points = [np.array(chain.draws[i]) for i in idx]
    result["kernel_us"] = {"log_density": kernel_us(model.log_density, points),
                           "grad_log_density": kernel_us(model.grad_log_density, points)}
    if workload.command == "diagnose":
        result["in_chain"] = in_chain_quality(model, chain, _degrees(workload))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--work", default=".")
    parser.add_argument("--capture", action="store_true")
    parser.add_argument("--min-invocations", type=int, default=1)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup_probe(workload, args.threads)
    elif args.mode == "timed":
        result = timed(workload, args.seed, args.seconds, args.threads, args.work, args.capture,
                       args.min_invocations)
    else:
        result = traced(workload, args.seed, args.work)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
