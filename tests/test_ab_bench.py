import json
import sys
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]

# stands in for perfbench/run.py: logs where it ran and with which
# arguments, and prints a result whose metric m reads values[m][side][k] on
# the side's k-th run (side 0 the revision, 1 the working tree)
STUB = """
import json, os, sys
tree = os.getcwd() == {root!r}
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
    stub.write_text(STUB.format(root=str(ROOT), log=str(log), fail_tree=fail_tree, values=values))
    monkeypatch.setattr(script, "BENCH_COMMAND", [sys.executable, str(stub)])
    code = script.main(["--rev", "HEAD", "--workload", "w", "--seed", "9", "--pairs", str(pairs),
                        "--seconds", "1"])
    return code, [json.loads(line) for line in log.read_text().splitlines()]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_bench_alternates_the_revision_and_the_working_tree(tmp_path, monkeypatch, capsys):
    code, calls = ab_bench(tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0, out
    # each side runs from a whole tree, the side going first switching every pair
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
