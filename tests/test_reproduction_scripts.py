import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STUDIES = [("run", "toys"), ("run", "probit_banknote"), ("run", "logit_banknote"),
           ("run", "garch_demgbp"), ("coverage", "coverage_probit"), ("coverage", "coverage_garch"),
           ("coverage", "coverage_logit"), ("coverage", "coverage_gaussian"),
           ("coverage", "coverage_exponential"), ("coverage", "coverage_gamma")]


def test_diagnose_models_runs_from_a_checkout(tmp_path):
    # no console script is installed and PYTHONPATH is unset: the script finds src/ itself
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(["bash", str(ROOT / "scripts" / "diagnose_models.sh"), "--length", "2000",
                          "--out", str(tmp_path)], env={**env, "PYTHON": sys.executable},
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    names = ["probit_banknote", "logit_banknote", "garch_demgbp"]
    assert [line for line in out.stdout.splitlines() if line.startswith("== ")] == [
        f"== {name} ==" for name in names]
    # each model's report goes to its own directory under --out
    for name in names:
        report = tmp_path / name / "diagnose.json"
        assert out.stdout.count(f"wrote {report}") == 1
        assert report.is_file()


@pytest.mark.parametrize("out_args", [[], ["--out", "reports"], ["--out=reports"]],
                         ids=["config-output-dir", "out", "out-equals"])
def test_run_all_studies_passes_each_config_its_own_out(tmp_path, out_args):
    # a stub interpreter prints the arguments each command gets
    stub = tmp_path / "stub.sh"
    stub.write_text('#!/usr/bin/env bash\nprintf "<%s>" "$@"\necho\n')
    stub.chmod(0o755)
    out = subprocess.run(["bash", str(ROOT / "scripts" / "run_all_studies.sh"), "--threads", "2",
                          *out_args], env={**os.environ, "PYTHON": str(stub)},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    calls = [line for line in out.stdout.splitlines() if line.startswith("<")]
    assert calls == [f"<-m><zvmcmc.cli><{command}><--config><{ROOT / 'configs' / name}.json>"
                     + (f"<--out><reports/{name}>" if out_args else "") + "<--threads><2>"
                     for command, name in STUDIES]


def test_out_without_a_directory_is_refused():
    out = subprocess.run(["bash", str(ROOT / "scripts" / "diagnose_models.sh"), "--out"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "--out needs a directory" in out.stderr
