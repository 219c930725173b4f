import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_chains.py"


def in_git_checkout():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True, timeout=30).returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_chains_against_head_on_the_toy_config():
    config = ROOT / "configs" / "toys.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "--rev", "HEAD", "--config", str(config),
                           "--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bit-identical" in done.stdout
    assert "faster in" in done.stdout and "/1 pairs" in done.stdout
