import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_diagnose_models_runs_from_a_checkout(tmp_path):
    # no console script is installed and PYTHONPATH is unset: the script finds src/ itself
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(["bash", str(ROOT / "scripts" / "diagnose_models.sh"), "--length", "2000",
                          "--out", str(tmp_path)], env={**env, "PYTHON": sys.executable},
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert [line for line in out.stdout.splitlines() if line.startswith("== ")] == [
        "== probit_banknote ==", "== logit_banknote ==", "== garch_demgbp =="]
    assert out.stdout.count(f"wrote {tmp_path / 'diagnose.json'}") == 3
