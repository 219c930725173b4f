"""Tests of the benchmark itself: its checks, its names, its tracer and its refusal to run."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import analysis, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _report(ordinary, zv, completed=None, errors=()):
    R, P = ordinary.shape
    done = R if completed is None else completed
    return {
        "degrees": sorted(zv),
        "model": {"parameters": [f"beta_{j + 1}" for j in range(P)]},
        "replications_requested": R,
        "replications_completed": done,
        "partial": done != R,
        "replication_errors": [{"replication": 0, "error": e} for e in errors],
        "per_replication_estimates": {
            "ordinary": ordinary.tolist(),
            "zv": {str(p): v.tolist() for p, v in zv.items()},
        },
    }


def _study(shift=0.0, R=20, seed=3):
    rng = np.random.default_rng(seed)
    ordinary = 1.0 + 0.1 * rng.standard_normal((R, 3))
    zv = {1: 1.0 + 0.01 * rng.standard_normal((R, 3)),
          2: 1.0 + shift + 0.001 * rng.standard_normal((R, 3))}
    return ordinary, zv


# ---------------------------------------------------------------------------
# correctness checks


def test_unbiased_study_passes():
    ordinary, zv = _study()
    report = _report(ordinary, zv)
    assert analysis.study_failures(report) == []
    o, z, names, _ = analysis.pooled_estimates([report, report])
    assert o.shape == (40, 3)
    assert analysis.unbiased_failures(o, z, names) == []


def test_biased_estimate_is_rejected():
    ordinary, zv = _study(shift=0.5)  # 0.5 is over 20 combined standard errors
    failures = analysis.unbiased_failures(ordinary, zv, ["a", "b", "c"])
    assert len(failures) == 3
    assert all(f.startswith("degree 2") for f in failures)


def test_failed_replication_is_rejected():
    ordinary, zv = _study()
    report = _report(ordinary[:19], {p: v[:19] for p, v in zv.items()}, errors=["SupportError: x"])
    report["replications_requested"] = 20
    failures = analysis.study_failures(report)
    assert failures and "1 of 20 replications failed" in failures[0]


def test_small_studies_use_student_t_threshold():
    assert analysis.unbiased_threshold(10_000) == pytest.approx(analysis.UNBIASED_SE, abs=0.01)
    assert analysis.unbiased_threshold(7) > analysis.unbiased_threshold(39) > analysis.UNBIASED_SE


def test_diagnose_zero_mean_threshold():
    ok = {"zero_mean": {"z_scores": [1.2, None, -3.9]}}
    bad = {"zero_mean": {"z_scores": [1.2, -analysis.ZERO_MEAN_MAX_Z - 0.1]}}
    assert analysis.diagnose_failures(ok) == []
    assert analysis.diagnose_failures(bad)


def test_ratios_below_twenty_replications_fall_back_to_f_bound():
    ordinary, zv = _study(R=8)
    ratios = analysis.study_ratios(ordinary, zv, base_seed=0)
    for rows in ratios.values():
        for point, lower in rows:
            assert 0 < lower < point
    summary = analysis.log10_summary(ratios)
    assert summary["vr_log10"] > summary["vr_lower_log10"]


def test_infinite_ratio_is_refused():
    with pytest.raises(ValueError):
        analysis.log10_summary({1: [(float("inf"), 1.0)]})


# ---------------------------------------------------------------------------
# names


def test_benchmark_json_names_and_caps():
    spec = _spec()
    assert analysis.name_errors(spec) == []
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= analysis.MAX_END_TO_END
    assert 1 <= len(spec["per_layer"]) <= analysis.MAX_PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_name_errors_catch_bad_names_and_caps():
    spec = {"workloads": [{"name": "a b"}], "end_to_end": [{"name": "x"}] * 2,
            "per_layer": [{"name": f"m{i}"} for i in range(analysis.MAX_PER_LAYER + 1)]}
    errors = analysis.name_errors(spec)
    assert any("'a b'" in e for e in errors)
    assert any("used twice" in e for e in errors)
    assert any("cap" in e for e in errors)


# ---------------------------------------------------------------------------
# tracer


def test_self_times_subtract_children_and_hot_calls():
    spans = [
        {"id": 0, "name": "run", "layer": "experiments", "start": 0, "end": 100, "parent": None,
         "rep": None, "hot_ns": 0, "hot_calls": 0},
        {"id": 1, "name": "chain", "layer": "samplers", "start": 10, "end": 60, "parent": 0,
         "rep": 0, "hot_ns": 30, "hot_calls": 5},
        {"id": 2, "name": "fit", "layer": "zv", "start": 60, "end": 70, "parent": 0,
         "rep": 0, "hot_ns": 0, "hot_calls": 0},
    ]
    own = tracer.self_times(spans, hot_overhead_ns=2.0)
    assert own == {0: 40, 1: 10, 2: 10}
    layers = tracer.layer_self_seconds(spans, 2.0)
    assert layers["models"] == pytest.approx(30e-9)
    assert tracer.replication_seconds(spans, 2.0) == {0: pytest.approx(50e-9)}


def _toy_argv(out, threads):
    return ["run", "--config", str(ROOT / "configs" / "toys.json"), "--replications", "4",
            "--seed", "10", "--threads", str(threads), "--out", str(out)]


def test_traced_run_matches_untraced_and_restores_every_function(tmp_path):
    import zvmcmc.experiments
    import zvmcmc.models
    import zvmcmc.samplers
    from zvmcmc import cli

    before_chain = zvmcmc.experiments.sample_chain
    before_density = vars(zvmcmc.models.GaussianTarget)["log_density"]
    assert cli.main(_toy_argv(tmp_path / "plain", 1)) == 0
    t = tracer.Tracer(base_seed=10)
    with t.active():
        assert tracer.leftover_wrappers()
        with t.span("cli.main", "cli"):
            assert cli.main(_toy_argv(tmp_path / "traced", 1)) == 0
    assert tracer.leftover_wrappers() == []
    assert zvmcmc.experiments.sample_chain is before_chain is zvmcmc.samplers.sample_chain
    assert vars(zvmcmc.models.GaussianTarget)["log_density"] is before_density

    plain = json.loads((tmp_path / "plain" / "study.json").read_text())
    traced = json.loads((tmp_path / "traced" / "study.json").read_text())
    assert traced["per_replication_estimates"] == plain["per_replication_estimates"]

    chains = [s for s in t.spans if s["name"] == "samplers.sample_chain"]
    assert sorted(s["rep"] for s in chains) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert all(s["steps"] == 1000 + 2000 for s in chains)
    assert t.hot["models.log_density"][0] > 0 and t.hot["models.grad_log_density"][0] > 0
    assert len(t.fits) == 4 * 2  # one coordinate, two degrees
    assert set(tracer.replication_seconds(t.spans)) == {0, 1, 2, 3}
    assert t.missing == []


def test_substitute_restores_aliases():
    import zvmcmc.experiments
    import zvmcmc.samplers

    original = zvmcmc.samplers.sample_chain
    with tracer.substitute("zvmcmc.samplers", "sample_chain", lambda f: (lambda *a, **k: f(*a, **k))):
        assert zvmcmc.experiments.sample_chain is not original
    assert zvmcmc.experiments.sample_chain is original


# ---------------------------------------------------------------------------
# the command


def test_gauge_reports_seconds_and_leaves_no_process():
    import multiprocessing

    from perfbench.child import gauge_s

    assert 0 < gauge_s(2) < 30
    assert multiprocessing.active_children() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "logit-rwmh-study",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
