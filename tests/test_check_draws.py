import json
from pathlib import Path

import pytest
from helpers import in_git_checkout

ROOT = Path(__file__).resolve().parents[1]


def stub_report(tree, seed):
    # the working tree's study takes half the pool seconds; its ZV variance
    # is 0.8 (beta_1) and 3 (beta_2) times the revision's
    return {"degrees": [1, 2],
            "timing": {"total_seconds": 5.0 if tree else 10.0},
            "accept": {"eval_calls_per_step_mean": 0.2 if tree else 0.3},
            "results": {"beta_1": {"ordinary": {"variance": 4.0},
                                   "zv": {"1": {"variance": 9.0},
                                          "2": {"variance": (0.8 if tree else 1.0) * seed}}},
                        "beta_2": {"ordinary": {"variance": 2.0 if tree else 4.0},
                                   "zv": {"1": {"variance": 9.0},
                                          "2": {"variance": 3.0 if tree else 1.0}}}}}


def check_draws(monkeypatch, argv, fail_tree=False):
    # stands in for check_identity.run_side: logs where each study ran and
    # with which arguments, and writes a study.json that tells the sides apart
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import check_draws as script

    calls = []

    def run_side(root, cli_argv, out_dir):
        tree = root == str(ROOT)
        calls.append((tree, Path(root, "src", "zvmcmc", "samplers.py").is_file(), cli_argv))
        if tree and fail_tree:
            return None, "boom"
        seed = int(cli_argv[cli_argv.index("--seed") + 1])
        Path(out_dir).mkdir(parents=True)
        Path(out_dir, "study.json").write_text(json.dumps(stub_report(tree, seed)))
        return "", None

    monkeypatch.setattr(script, "run_side", run_side)
    return script.main(argv), calls


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_check_draws_runs_each_seed_on_both_sides_and_compares_the_studies(monkeypatch, capsys):
    config = ROOT / "configs" / "logit_banknote.json"
    code, calls = check_draws(monkeypatch, ["--rev", "HEAD", "--config", str(config),
                                            "--seeds", "1,2"])
    out = capsys.readouterr().out
    assert code == 0, out
    # each side runs from a root holding the package, the side going first
    # switching every seed, and reads the shipped config from its own root
    assert [tree for tree, _, _ in calls] == [False, True, True, False]
    assert all(has_package for _, has_package, _ in calls)
    assert [argv for _, _, argv in calls] == [
        ["run", "--config", "configs/logit_banknote.json", "--seed", seed]
        for seed in ("1", "1", "2", "2")]
    lines = out.splitlines()
    assert lines[0] == f"seed 1: {config}, top degree 2; HEAD -> working tree"
    assert lines[1].split() == ["pool", "seconds", "10", "->", "5", "x0.500"]
    assert lines[2].split() == ["calls", "per", "step", "0.3", "->", "0.2", "x0.667"]
    # per coordinate: ordinary, top-degree ZV, and ZV times pool seconds
    assert lines[4].split() == ["beta_1", "4", "->", "4", "x1.000", "1", "->", "0.8", "x0.800",
                                "10", "->", "4", "x0.400"]
    assert lines[5].split() == ["beta_2", "4", "->", "2", "x0.500", "1", "->", "3", "x3.000",
                                "10", "->", "15", "x1.500"]
    assert lines[6].startswith("seed 2: ")
    assert lines[-1] == "ZV variance x pool seconds fell on every coordinate at every seed: no"


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_check_draws_reports_a_failed_study_and_exits_1(monkeypatch, capsys):
    code, calls = check_draws(monkeypatch, ["--rev", "HEAD", "--config", "elsewhere.json",
                                            "--seeds", "3"], fail_tree=True)
    out = capsys.readouterr().out
    assert code == 1
    # a config outside configs/ is one file that both sides read
    assert [argv[2] for _, _, argv in calls] == [str(Path("elsewhere.json").resolve())] * 2
    assert out.splitlines() == ["seed 3 working tree FAILED: boom"]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_check_draws_exits_2_on_a_revision_it_cannot_extract(monkeypatch, capsys):
    code, calls = check_draws(monkeypatch, ["--rev", "no-such-revision", "--config", "c.json",
                                            "--seeds", "1"])
    assert code == 2 and calls == []
    assert "cannot extract" in capsys.readouterr().err
