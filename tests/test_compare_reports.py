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
