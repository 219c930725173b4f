import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import head_checkout_with_these_scripts, in_git_checkout

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_chains.py"


def ab_chains(clone, config):
    return subprocess.run([sys.executable, str(clone / "scripts" / "ab_chains.py"), "--rev", "HEAD",
                           "--config", str(config), "--pairs", "1"],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_chains_against_head_on_the_toy_config(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    done = ab_chains(clone, clone / "configs" / "toys.json")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "replication 0, fit and eval chains" in done.stdout
    assert "bit-identical" in done.stdout
    assert "faster in" in done.stdout and "/1 pairs" in done.stdout


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_ab_chains_times_the_one_chain_of_a_single_chain_config(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    config = tmp_path / "toys_single.json"
    config.write_text(json.dumps({**json.loads((clone / "configs" / "toys.json").read_text()),
                                  "single_chain": True}))
    done = ab_chains(clone, config)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "replication 0, the one chain of a single-chain config" in done.stdout
    assert "bit-identical" in done.stdout


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_each_side_reads_the_shipped_configs_of_its_own_revision(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    toys = clone / "configs" / "toys.json"
    toys.write_text(json.dumps({**json.loads(toys.read_text()), "mu": 2.5}))
    done = ab_chains(clone, toys)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "CHAINS DIFFER" in done.stdout


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_a_config_the_revision_does_not_hold_is_an_error_not_a_traceback(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    # a new config under configs/, which each side reads from its own tree
    added = clone / "configs" / "toys_new.json"
    added.write_text((clone / "configs" / "toys.json").read_text())
    done = ab_chains(clone, added)
    assert done.returncode == 2, done.stdout + done.stderr
    # one line, naming the revision's copy, which is missing
    [line] = done.stderr.splitlines()
    assert line.startswith("error: config file not found: ")
    assert line.endswith("/configs/toys_new.json") and str(clone) not in line


def test_identity_reads_every_result_entry_but_the_timings_and_every_chain_csv_byte(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    import ab_chains as script
    import zvmcmc

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**json.loads((ROOT / "configs" / "toys.json").read_text()),
                                  "burn_in": 100, "fit_length": 200, "eval_length": 300}))
    side = script.replication(zvmcmc, config)
    written = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        written.append((script.run(*side, chains_dir=str(tmp_path / name)), tmp_path / name))
    (a, _), (b, b_dir) = written
    assert sorted(p.name for p in b_dir.iterdir()) == ["rep0000_eval.csv", "rep0000_fit.csv"]
    # timings, and an entry one side holds alone, are not compared
    b.update(seconds=[1.0, 2.0], t_post=3.0, gradient_seconds=4.0, new_entry=5.0)
    assert script.identical(*written)
    b["ordinary"] = b["ordinary"] + 1e-12
    assert not script.identical(*written)
    b["ordinary"] = a["ordinary"]
    b["zv"] = {**a["zv"], 2: a["zv"][2] + 1e-12}
    assert not script.identical(*written)
    b["zv"] = a["zv"]
    assert script.identical(*written)
    chain = b_dir / "rep0000_eval.csv"
    text = chain.read_bytes()
    chain.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])
    assert not script.identical(*written)
    chain.write_bytes(text)
    (b_dir / "rep0000_fit.csv").unlink()
    assert not script.identical(*written)
