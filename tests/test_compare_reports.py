import json
import subprocess
import sys
from pathlib import Path

from test_cli import write_config

from zvmcmc.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def compare(a, b, *extra):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *extra],
                          capture_output=True, text=True, timeout=60)


def test_compare_reports_equal_and_different_pairs(tmp_path):
    # one config run twice: the reports differ only in timing and output_dir
    path = write_config(tmp_path)
    for name in ("a", "b"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    a, b = tmp_path / "a" / "study.json", tmp_path / "b" / "study.json"
    same = compare(a, b)
    assert same.returncode == 0, same.stdout
    assert "largest relative difference 0, within rtol 0" in same.stdout

    report = json.loads(a.read_text())
    estimate = report["per_replication_estimates"]["zv"]["2"][1][0]
    report["per_replication_estimates"]["zv"]["2"][1][0] = estimate * (1.0 + 1e-9)
    c = tmp_path / "c.json"
    c.write_text(json.dumps(report))
    different = compare(a, c)
    assert different.returncode == 1
    assert "per_replication_estimates: 1e-09 at per_replication_estimates.zv.2.1.0" in different.stdout
    assert "accept: 0\n" in different.stdout
    assert compare(a, c, "--rtol", "1e-6").returncode == 0


def test_a_key_on_one_side_is_listed_and_hides_no_value_difference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    from compare_reports import compare as compare_values

    assert compare_values({"a": 1, "x": {"y": 2.0}, "timing": {"s": 1}},
                          {"b": 1, "x": {"y": 2.5, "z": [1]}}) == (
        [(("x", "y"), 0.2)], [(("a",), "a"), (("b",), "b"), (("x", "z"), "b")], [])

    a = tmp_path / "a.json"
    a.write_text(json.dumps({"reference": {"point": [1.0, 2.0], "length": 100}}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"reference": {"point": [1.0, 2.0 * (1.0 + 1e-6)], "length": 100,
                                           "asvar": [3.0, 4.0]}}))
    different = compare(a, b)
    assert different.returncode == 1
    assert different.stdout.splitlines() == [
        "reference: 1e-06 at reference.point.1",
        f"only in {b}: reference.asvar",
        "largest relative difference 1e-06, above rtol 0; 1 key(s) on one side only"]
    # a one-sided key fails whatever the tolerance, and equal values read 0
    assert compare(a, b, "--rtol", "1e-3").returncode == 1
    b.write_text(json.dumps({"reference": {"point": [1.0, 2.0], "length": 100, "asvar": [3.0]}}))
    added = compare(a, b)
    assert added.returncode == 1
    assert added.stdout.splitlines() == [
        "reference: 0", f"only in {b}: reference.asvar",
        "largest relative difference 0, within rtol 0; 1 key(s) on one side only"]
    assert compare(b, a).stdout.splitlines()[1] == f"only in {b}: reference.asvar"


def test_keys_in_another_order_are_listed_and_fail(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    from compare_reports import compare as compare_values

    # an added key reorders nothing; only the order of the shared keys counts
    assert compare_values({"x": 1, "y": {"a": 1, "b": 2}}, {"x": 1, "y": {"a": 1, "c": 0, "b": 2}}) == (
        [(("x",), 0.0), (("y", "a"), 0.0), (("y", "b"), 0.0)], [(("y", "c"), "b")], [])
    assert compare_values({"x": 1, "y": {"a": 1, "b": [{"c": 1, "d": 2}]}},
                          {"y": {"b": [{"d": 2, "c": 1}], "a": 1}, "x": 1})[2] == [
        (), ("y",), ("y", "b", 0)]
    # a timing block is skipped, but not its place among its siblings
    assert compare_values({"timing": {}, "a": 1}, {"a": 1, "timing": {}})[2] == [()]

    a = tmp_path / "a.json"
    a.write_text(json.dumps({"reference": {"seed": 3, "point": [1.0, 2.0]}}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"reference": {"point": [1.0, 2.0], "seed": 3}}))
    reordered = compare(a, b)
    assert reordered.returncode == 1
    assert reordered.stdout.splitlines() == [
        "reference: 0", "key order differs: reference",
        "largest relative difference 0, within rtol 0; 1 object(s) with keys in another order"]
    # a reordering fails whatever the tolerance
    assert compare(a, b, "--rtol", "1e-3").returncode == 1
    assert compare(a, a).returncode == 0
