import subprocess
import sys
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_chains.py"


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_chains_against_head_on_the_toy_config():
    config = ROOT / "configs" / "toys.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--rev", "HEAD", "--config", str(config),
                           "--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bit-identical" in done.stdout
    assert "faster in" in done.stdout and "/1 pairs" in done.stdout
