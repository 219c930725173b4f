import json
import sys
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]

# stands in for perfbench/run.py: logs where it ran and with which
# arguments, and prints a result whose wall_s tells the two trees apart
STUB = """
import json, os, sys
tree = os.getcwd() == {root!r}
with open({log!r}, "a") as fh:
    fh.write(json.dumps([tree, os.path.isfile("perfbench/run.py"), sys.argv[1:]]) + "\\n")
failed = tree and {fail_tree!r}
print("== a metric line")
print(json.dumps({{"correct": not failed, "attempted": 4, "failed": 0, "metrics": {{
    "wall_s": {{"value": 1.0 if tree else 2.0, "unit": "s"}},
    "vr_log10": {{"value": 3.0, "unit": "log10"}}}}}}))
sys.exit(1 if failed else 0)
"""


def ab_bench(tmp_path, monkeypatch, fail_tree=False):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_bench as script

    log = tmp_path / "calls.jsonl"
    stub = tmp_path / "stub.py"
    stub.write_text(STUB.format(root=str(ROOT), log=str(log), fail_tree=fail_tree))
    monkeypatch.setattr(script, "BENCH_COMMAND", [sys.executable, str(stub)])
    code = script.main(["--rev", "HEAD", "--workload", "w", "--seed", "9", "--pairs", "3",
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
    # ties count for neither side
    vr = next(line for line in out.splitlines() if line.startswith("vr_log10"))
    assert "0/3 pairs (higher is better)" in vr


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_bench_reports_a_failed_run_and_leaves_its_pair_out(tmp_path, monkeypatch, capsys):
    code, calls = ab_bench(tmp_path, monkeypatch, fail_tree=True)
    out = capsys.readouterr().out
    assert code == 1
    assert len(calls) == 6
    assert out.count("working tree FAILED: exit 1") == 3
    assert "0 of 3 pairs complete" in out
    assert not any(line.startswith("wall_s") for line in out.splitlines())
