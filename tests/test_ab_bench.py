import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]

# stands in for perfbench/run.py: logs where it ran and with which
# arguments, and prints a result whose metric m reads values[m][side][k] on
# the side's k-th run (side 0 the revision, 1 the working tree).  ab_bench
# runs each side from its own copy, named rev or tree
STUB = """
import json, os, sys
tree = os.path.basename(os.getcwd()) == "tree"
with open({log!r}, "a+") as fh:
    fh.seek(0)
    k = sum(json.loads(line)[0] == tree for line in fh)
    fh.write(json.dumps([tree, os.path.isfile("perfbench/run.py"), sys.argv[1:]]) + "\\n")
failed = tree and {fail_tree!r}
print("== a metric line")
print(json.dumps({{"correct": not failed, "attempted": 4, "failed": 0, "metrics": {{
    name: {{"value": sides[tree][k], "unit": "-"}} for name, sides in {values!r}.items()}}}}))
sys.exit(1 if failed else 0)
"""

# wall_s tells the two trees apart, vr_log10 ties
TWO_TREES = {"wall_s": ([2.0] * 3, [1.0] * 3), "vr_log10": ([3.0] * 3, [3.0] * 3)}


def ab_bench(tmp_path, monkeypatch, fail_tree=False, values=TWO_TREES, pairs=3):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    log = tmp_path / "calls.jsonl"
    stub = tmp_path / "stub.py"
    stub.write_text(STUB.format(log=str(log), fail_tree=fail_tree, values=values))
    monkeypatch.setattr(script, "BENCH_COMMAND", [sys.executable, str(stub)])
    code = script.main(["--rev", "HEAD", "--workload", "w", "--seed", "9", "--pairs", str(pairs),
                        "--seconds", "1"])
    return code, [json.loads(line) for line in log.read_text().splitlines()]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_bench_alternates_the_revision_and_the_working_tree(tmp_path, monkeypatch, capsys):
    code, calls = ab_bench(tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0, out
    # each side runs from a whole copy, the side going first switching every pair
    assert [tree for tree, _, _ in calls] == [False, True, True, False, False, True]
    assert all(has_bench for _, has_bench, _ in calls)
    assert all(argv == ["--workload", "w", "--seed", "9", "--seconds", "1.0", "--trace", "0"]
               for _, _, argv in calls)
    assert "3 of 3 pairs complete" in out
    wall = next(line for line in out.splitlines() if line.startswith("wall_s"))
    assert "2 (2, 2)" in wall and "1 (1, 1)" in wall and "3/3 pairs (lower is better)" in wall
    # every pair won, but three pairs cannot show a gain
    assert wall.endswith("unresolved (bound 0.25)")
    # ties count for neither side
    vr = next(line for line in out.splitlines() if line.startswith("vr_log10"))
    assert "0/3 pairs (higher is better)" in vr and vr.endswith("no change (bound 0.2)")


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_bench_reports_a_failed_run_and_leaves_its_pair_out(tmp_path, monkeypatch, capsys):
    code, calls = ab_bench(tmp_path, monkeypatch, fail_tree=True)
    out = capsys.readouterr().out
    assert code == 1
    assert len(calls) == 6
    assert out.count("working tree FAILED: exit 1") == 3
    assert "0 of 3 pairs complete" in out
    assert not any(line.startswith("wall_s") for line in out.splitlines())


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_bench_prints_each_verdict(tmp_path, monkeypatch, capsys):
    values = {
        # every pair won, medians 1 apart against a revision IQR of 0
        "wall_s": ([2.0] * 10, [1.0] * 10),
        # the working tree's median 50% worse, past the 0.1 bound
        "zv_over_ordinary": ([1.0] * 10, [1.5] * 10),
        # the revision spreads by IQR / median 1.5 / 3, past the 0.2 bound
        "vr_log10": ([1.0, 5.0] + [3.0] * 4 + [2.0, 4.0] * 2, [3.0] * 10),
        "vr_lower_log10": ([3.0] * 10, [3.0] * 10),
    }
    code, _ = ab_bench(tmp_path, monkeypatch, values=values, pairs=10)
    out = capsys.readouterr().out
    assert code == 0, out
    verdicts = {line.split()[0]: line.rsplit(" (bound", 1)[0].split("better)")[-1].strip()
                for line in out.splitlines() if line.split()[0] in values}
    assert verdicts == {"wall_s": "gain", "zv_over_ordinary": "regression",
                        "vr_log10": "unresolved", "vr_lower_log10": "no change"}


@pytest.mark.parametrize("old,new,better,want", [
    # 9 of 10 pairs won and the medians 1 apart, wider than the IQR of 0.5
    ([2.0] * 5 + [2.5] * 5, [1.0] * 9 + [3.0], "lower", "gain"),
    # the same with 9 pairs cannot show a gain
    ([2.0] * 5 + [2.5] * 4, [1.0] * 9, "lower", "unresolved"),
    # 8 of 10 pairs won is not a gain
    ([2.0] * 10, [1.0] * 8 + [2.0, 2.0], "lower", "no change"),
    # every pair won, but the medians differ by less than the revision's IQR
    ([1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9], "lower", "unresolved"),
    # worse by 30% of the median against a bound of 25%
    ([10.0] * 4, [13.0] * 4, "lower", "regression"),
    ([10.0] * 4, [7.0] * 4, "higher", "regression"),
    # worse by 20%, within the bound
    ([10.0] * 4, [12.0] * 4, "lower", "no change"),
    # a spread past the bound is unresolved, unless every new run beats every old one
    ([1.0, 2.0, 3.0, 4.0], [2.5] * 4, "higher", "unresolved"),
    ([0.1, 1.0, 1.05, 1.1], [1.2] * 4, "higher", "no change"),
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.5, 4.5, 0.5], "higher", "unresolved"),
])
def test_verdict_rules(monkeypatch, old, new, better, want):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from ab_bench import verdict

    assert verdict(old, new, better, 0.25) == want


def git_repo(path):
    """A git repository at path with one commit: BENCHMARK.json and probe.txt."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (path / "probe.txt").write_text("committed")
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run([*git, *command], check=True, capture_output=True)
    return path


# stands in for perfbench/run.py in a repository of its own: logs the side,
# the probe.txt it reads and whether the untracked new.txt is there, then
# edits the live working tree's probe.txt, as an edit made during a run would
PINNING_STUB = """
import json, os, sys
side = os.path.basename(os.getcwd())
with open({log!r}, "a") as fh:
    fh.write(json.dumps([side, open("probe.txt").read(), os.path.isfile("new.txt")]) + "\\n")
with open({live!r}, "w") as fh:
    fh.write("edited during the run")
print(json.dumps({{"correct": True, "metrics": {{"wall_s": {{"value": 1.0, "unit": "s"}}}}}}))
"""


def test_each_side_runs_from_a_copy_made_before_the_first_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    repo = git_repo(tmp_path / "repo")
    (repo / "probe.txt").write_text("working")
    (repo / "new.txt").write_text("untracked")
    log, stub = tmp_path / "calls.jsonl", tmp_path / "stub.py"
    stub.write_text(PINNING_STUB.format(log=str(log), live=str(repo / "probe.txt")))
    monkeypatch.setattr(script, "ROOT", repo)
    monkeypatch.setattr(script, "BENCH_COMMAND", [sys.executable, str(stub)])
    assert script.main(["--rev", "HEAD", "--workload", "w", "--seed", "1", "--pairs", "2"]) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    # the working tree's copy holds its edits and untracked files as they were
    # when the run began; the live file's later edit reaches neither side
    assert calls == [["rev", "committed", False], ["tree", "working", True],
                     ["tree", "working", True], ["rev", "committed", False]]
    assert (repo / "probe.txt").read_text() == "edited during the run"
    assert "2 of 2 pairs complete" in capsys.readouterr().out


# stands in for perfbench/run.py on one workload: prints the env line and,
# on its k-th run of a trace setting, the end-to-end metrics (untraced) or the
# per-layer ones (traced), each values[trace][k], doubled on probit-gibbs-study
RECORD_STUB = """
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
trace = sys.argv[sys.argv.index("--trace") + 1]
with open({log!r}, "a+") as fh:
    fh.seek(0)
    k = sum(json.loads(line) == [workload, trace] for line in fh)
    fh.write(json.dumps([workload, trace]) + "\\n")
print("env " + json.dumps({{"nproc": 2, "src_lines": 10}}))
spec = json.load(open("BENCHMARK.json"))
v = {values!r}[trace][k] * (2 if workload == "probit-gibbs-study" else 1)
names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
print(json.dumps({{"correct": {correct!r}, "metrics": {{
    n: {{"value": v, "unit": "-"}} for n in names}}}}))
"""
WORKLOADS = ["logit-rwmh-study", "probit-gibbs-study", "garch-rwmh-study", "logit-long-diagnose"]


def record(tmp_path, monkeypatch, name, values, against=None, correct=True):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    log, stub = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.py"
    stub.write_text(RECORD_STUB.format(log=str(log), values=values, correct=correct))
    monkeypatch.setattr(script, "BENCH_COMMAND", [sys.executable, str(stub)])
    path = tmp_path / f"{name}.json"
    code = script.main(["--record", str(path), "--seed", "5", "--seconds", "1", "--runs", "3",
                        *(["--against", str(against)] if against else [])])
    return code, path, [json.loads(line) for line in log.read_text().splitlines()]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_record_writes_medians_quartiles_and_the_env_line(tmp_path, monkeypatch, capsys):
    code, path, calls = record(tmp_path, monkeypatch, "bench",
                               {"0": [1.0, 3.0, 2.0], "1": [5.0, 9.0, 7.0]})
    assert code == 0, capsys.readouterr().out
    # k untraced runs of each workload, each in its own process, then k traced ones
    assert calls == [[w, trace] for trace in "01" for _ in range(3) for w in WORKLOADS]
    bench = json.loads(path.read_text())
    assert (bench["schema"], bench["seed"], bench["seconds"], bench["runs"]) == (
        "zvmcmc-bench-v1", 5, 1.0, 3)
    assert bench["env"] == {"nproc": 2, "src_lines": 10}
    assert list(bench["end_to_end"]) == list(bench["per_layer"]) == WORKLOADS
    assert bench["end_to_end"]["probit-gibbs-study"]["wall_s"] == {
        "median": 4.0, "q1": 3.0, "q3": 5.0, "values": [2.0, 6.0, 4.0], "unit": "s",
        "better": "lower", "bound": 0.25}
    assert bench["end_to_end"]["garch-rwmh-study"]["vr_log10"]["median"] == 2.0
    assert bench["per_layer"]["logit-rwmh-study"]["models.log_density_us"] == {
        "median": 7.0, "unit": "us"}
    assert len(bench["per_layer"]["logit-rwmh-study"]) == 35


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_record_names_the_tree_as_its_copy_was_made(tmp_path, monkeypatch, capsys):
    # files edited while the runs go on change neither the copy nor the
    # revision and dirty flag the file records for it
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    order, copy = [], script.extract_working_tree
    monkeypatch.setattr(script, "revision", lambda: order.append("revision") or ("abc123", False))
    monkeypatch.setattr(script, "extract_working_tree",
                        lambda into: order.append("copy") or copy(into))
    code, path, _ = record(tmp_path, monkeypatch, "bench", {"0": [1.0] * 3, "1": [1.0] * 3})
    assert code == 0, capsys.readouterr().out
    assert order == ["revision", "copy"]
    bench = json.loads(path.read_text())
    assert (bench["revision"], bench["dirty"]) == ("abc123", False)


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_against_applies_each_share_bound_to_the_medians(tmp_path, monkeypatch, capsys):
    _, old, _ = record(tmp_path, monkeypatch, "old", {"0": [1.0, 1.0, 1.0], "1": [5.0] * 3})
    # the same medians, and medians 20% up: within the 0.25 bounds of the
    # timings, better on the higher-is-better vr metrics, but past the 0.1
    # bounds of zv_over_ordinary and peak_rss_mb
    for name, value, regressions in (("same", 1.0, 0), ("up20", 1.2, 8), ("up30", 1.3, 16)):
        code, _, _ = record(tmp_path, monkeypatch, name, {"0": [value] * 3, "1": [5.0] * 3}, old)
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.split()[:1] == ["garch-rwmh-study"]]
        verdicts = {row[1]: row[5] for row in rows}
        if name == "up30":
            assert verdicts == {"setup_s": "REGRESSION", "wall_s": "REGRESSION",
                                "zv_over_ordinary": "REGRESSION", "vr_log10": "ok",
                                "vr_lower_log10": "ok", "peak_rss_mb": "REGRESSION"}
            assert rows[1][4] == "+30.0%"
        assert code == (1 if regressions else 0), out
        assert out.splitlines()[-1] == (f"{regressions} regression(s) against {old}" if regressions
                                        else f"no regression against {old}")


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_a_failed_run_records_nothing(tmp_path, monkeypatch, capsys):
    code, path, calls = record(tmp_path, monkeypatch, "bench", {"0": [1.0] * 3, "1": [1.0] * 3},
                               correct=False)
    assert code == 1 and not path.exists() and calls == [["logit-rwmh-study", "0"]]
    assert capsys.readouterr().out.splitlines() == [
        "run 1 trace 0 logit-rwmh-study FAILED: exit 0: checks failed"]


def test_record_takes_at_least_three_runs_and_against_needs_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    for argv in (["--record", "b.json", "--seed", "1", "--runs", "2"],
                 ["--rev", "HEAD", "--workload", "w", "--seed", "1", "--against", "b.json"],
                 ["--workload", "w", "--seed", "1"]):
        with pytest.raises(SystemExit) as raised:
            script.main(argv)
        assert raised.value.code == 2
