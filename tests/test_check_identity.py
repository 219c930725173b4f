import subprocess
import sys
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_identity.py"


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_check_identity_against_head_on_the_toy_config():
    config = ROOT / "configs" / "toys.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--rev", "HEAD", "--config", str(config),
                           "--replications", "2"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == [
        "run --config configs/toys.json --replications 2 --threads 1: identical",
        "run --config configs/toys.json --replications 2 --threads 2: identical",
    ]
    assert lines[2] == "every report equals HEAD's"
