import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import head_checkout_with_these_scripts, in_git_checkout

from zvmcmc import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_check_identity_against_head_on_the_toy_config(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    done = subprocess.run([sys.executable, str(clone / "scripts" / "check_identity.py"),
                           "--rev", "HEAD", "--config", str(clone / "configs" / "toys.json"),
                           "--replications", "2"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines == [
        "run --config configs/toys.json --replications 2 --threads 1: identical",
        "run --config configs/toys.json --replications 2 --threads 2: identical",
        "run --config configs/toys.json --replications 2 --threads 2 --keep-chains: identical",
        "every report equals HEAD's",
    ]


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_each_side_reads_the_shipped_configs_of_its_own_revision(tmp_path):
    clone = head_checkout_with_these_scripts(tmp_path / "clone")
    toys = clone / "configs" / "toys.json"
    toys.write_text(json.dumps({**json.loads(toys.read_text()), "mu": 2.5}))
    done = subprocess.run([sys.executable, str(clone / "scripts" / "check_identity.py"),
                           "--rev", "HEAD", "--config", str(toys), "--replications", "2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines[:3]] == [
        "run --config configs/toys.json --replications 2 --threads 1",
        "run --config configs/toys.json --replications 2 --threads 2",
        "run --config configs/toys.json --replications 2 --threads 2 --keep-chains",
    ]
    assert all(line.split(": ")[1].startswith("DIFFERS, study.json largest at ")
               for line in lines[:3])
    assert lines[3:] == ["3 command(s) differ or fail"]


def test_a_differing_command_names_the_largest_difference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import largest_differences

    report = {"accept": [0.25, 0.5], "timing": {"wall_s": 1.0},
              "per_replication_estimates": {"zv": {"2": [[1.0, 2.0]]}}}
    # the first leaf that differs, accept.0, is not the largest difference
    changed = json.loads(json.dumps(report))
    changed["accept"][0] = 0.25 * (1.0 + 1e-12)
    changed["per_replication_estimates"]["zv"]["2"][0][1] = 2.0 * (1.0 - 1e-6)
    changed["timing"]["wall_s"] = 2.0
    for side, study, csv in (("rev", report, "a,b\n1,2\n"), ("tree", changed, "a,b\n1,3\n")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "study.json").write_text(json.dumps(study))
        (tmp_path / side / "study.csv").write_text(csv)
    files = ("study.json", "study.csv")
    assert largest_differences(tmp_path / "rev", tmp_path / "tree", files) == (
        "study.json largest at per_replication_estimates.zv.2.0.1 (relative 1e-06); "
        "study.csv bytes differ")
    assert largest_differences(tmp_path / "rev", tmp_path / "rev", files) is None


def test_keys_on_one_side_are_named_apart_from_the_largest_shared_difference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import largest_differences

    def report(side, **reference):
        (tmp_path / side).mkdir()
        (tmp_path / side / "diagnose.json").write_text(json.dumps({"reference": reference}))
        return tmp_path / side

    rev = report("rev", point=[1.0, 2.0], length=10, seed=3)
    files = ("diagnose.json",)
    assert largest_differences(rev, report("added", point=[1.0, 2.0], length=10, seed=3,
                                           asvar=[0.5, 0.5]), files) == (
        "diagnose.json shared values equal, only in tree: reference.asvar")
    # the added key does not hide a change in a value both sides hold
    assert largest_differences(rev, report("moved", point=[1.0, 2.5], length=10,
                                           asvar=[0.5, 0.5]), files) == (
        "diagnose.json largest at reference.point.1 (relative 0.2), only in rev: reference.seed, "
        "only in tree: reference.asvar")


def test_keys_in_another_order_are_named(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import largest_differences

    for side, report in (("rev", {"model": {"kind": "probit"}, "reference": {"seed": 3, "length": 10}}),
                         ("tree", {"model": {"kind": "probit"}, "reference": {"length": 10, "seed": 3}}),
                         ("moved", {"reference": {"length": 10, "seed": 4}, "model": {"kind": "logit"}})):
        (tmp_path / side).mkdir()
        (tmp_path / side / "coverage.json").write_text(json.dumps(report))
    files = ("coverage.json",)
    assert largest_differences(tmp_path / "rev", tmp_path / "tree", files) == (
        "coverage.json shared values equal, key order differs: reference")
    # a reordering is named next to the largest shared difference
    assert largest_differences(tmp_path / "rev", tmp_path / "moved", files) == (
        "coverage.json largest at model.kind (relative inf), key order differs: (top level), reference")
    assert largest_differences(tmp_path / "tree", tmp_path / "tree", files) is None


def test_the_protocol_diagnoses_a_gibbs_chain(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import protocol

    steps = protocol([str(ROOT / "configs" / "probit_banknote.json")], None)
    assert [argv for argv, _ in steps if argv[0] == "diagnose"] == [
        ["diagnose", "--config", "configs/probit_banknote.json", "--length", "20000"]]
    assert ExperimentConfig.from_file(ROOT / "configs" / "probit_banknote.json").sampler == "gibbs"


def test_chain_csvs_must_be_the_same_files_and_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import largest_differences, protocol

    # the toy config's --keep-chains run compares its chains/ directory
    keep = [files for argv, files in protocol([str(ROOT / "configs" / "toys.json")], None)
            if "--keep-chains" in argv]
    assert keep == [("study.json", "study.csv", "chains/")]

    def chains(side, **files):
        (tmp_path / side / "chains").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / side / "chains" / f"{name}.csv").write_text(text)
        return tmp_path / side

    same = chains("rev", rep0000_fit="1,2\n", rep0001_fit="3,4\n")
    assert largest_differences(same, chains("tree", rep0000_fit="1,2\n", rep0001_fit="3,4\n"),
                               ("chains/",)) is None
    assert largest_differences(same, chains("bytes", rep0000_fit="1,2\n", rep0001_fit="3,5\n"),
                               ("chains/",)) == "chains/rep0001_fit.csv bytes differ (1 of 2 files)"
    assert largest_differences(same, chains("fewer", rep0000_fit="1,2\n"), ("chains/",)) == (
        "chains/ holds different files (2 vs 1)")
    assert largest_differences(same, tmp_path / "missing", ("chains/",)) == (
        "chains/ holds different files (2 vs 0)")
    assert largest_differences(chains("empty"), tmp_path / "missing", ("chains/",)) == (
        "chains/ is empty on both sides")


def test_a_differing_printed_line_is_named(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import stdout_difference

    printed = "replications 2/2\nwrote <out>/study.json\nwrote <out>/study.csv\n"
    assert stdout_difference(printed, printed) is None
    assert stdout_difference(printed, printed.replace("2/2", "1/2")) == (
        "stdout differs at line 1: 'replications 2/2' vs 'replications 1/2'")
    assert stdout_difference(printed, printed.rsplit("wrote", 1)[0]) == (
        "stdout differs at line 3: 'wrote <out>/study.csv' vs None")


def test_each_side_of_the_coverage_command_reads_its_own_toys_config(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import COVERAGE, coverage_step

    toys = json.loads((ROOT / "configs" / "toys.json").read_text())
    roots = {}
    for side, mu in (("rev", 2.5), ("tree", toys["mu"])):
        roots[side] = tmp_path / f"{side}_root"
        (roots[side] / "configs").mkdir(parents=True)
        (roots[side] / "configs" / "toys.json").write_text(json.dumps({**toys, "mu": mu}))
    (tmp_path / "work").mkdir()
    argv, files = coverage_step(tmp_path / "work", roots)
    # the printed command names neither the temporary directory nor a side
    assert argv[:3] == ["coverage", "--config", "<tmp>/{side}/coverage_toys.json"]
    assert "--keep-chains" in argv
    assert files == ("coverage.json", "chains/")
    for side, mu in (("rev", 2.5), ("tree", toys["mu"])):
        copy = json.loads(Path(tmp_path, "work", side, "coverage_toys.json").read_text())
        assert copy == {**toys, "mu": mu, **COVERAGE[1]}


def test_an_expected_key_may_differ_or_be_on_one_side_only(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from check_identity import largest_differences

    def report(side, config, x=1.0):
        (tmp_path / side).mkdir()
        (tmp_path / side / "study.json").write_text(json.dumps({"config": config, "x": x}))
        return tmp_path / side

    files = ("study.json",)
    rev = report("rev", {"proposal_sd": None, "seed": 1})
    tree = report("tree", {"seed": 1, "proposal_scale": 2.5})
    excused = set()
    assert largest_differences(rev, tree, files, ("config.proposal_sd", "config.proposal_scale"),
                               excused) is None
    assert excused == {"config.proposal_sd", "config.proposal_scale"}
    # a key that is not named still differs
    assert largest_differences(rev, tree, files, ("config.proposal_sd",)) == (
        "study.json shared values equal, only in tree: config.proposal_scale")
    # an expected key covers what lies under it, and nothing beside it
    moved = report("moved", {"proposal_sd": [0.1, 0.2], "seed": 1}, x=2.0)
    excused.clear()
    assert largest_differences(rev, moved, files, ("config.proposal_sd",), excused) == (
        "study.json largest at x (relative 0.5)")
    assert excused == {"config.proposal_sd"}


def test_expect_key_names_what_it_excused_and_exits_0(tmp_path, monkeypatch, capsys):
    # stands in for a CLI command: each side writes its study and prints the same lines
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import check_identity as script

    def run_side(root, argv, out_dir):
        tree = root == str(ROOT)
        Path(out_dir).mkdir(parents=True)
        config = {"seed": 7, **({} if tree else {"proposal_sd": None})}
        Path(out_dir, "study.json").write_text(json.dumps({"config": config, "x": 1.0}))
        Path(out_dir, "study.csv").write_text("a\n1\n")
        return "wrote <out>\n", None

    monkeypatch.setattr(script, "checkout", lambda rev, into: None)
    monkeypatch.setattr(script, "run_side", run_side)
    # a config outside the shipped four gets its runs and no diagnose
    config = str(ROOT / "configs" / "coverage_probit.json")
    argv = ["--rev", "R", "--config", config, "--replications", "2"]
    assert script.main(argv) == 1
    assert script.main([*argv, "--expect-key", "config.proposal_sd"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "run --config configs/coverage_probit.json --replications 2 --threads 1: identical apart "
        "from config.proposal_sd",
        "run --config configs/coverage_probit.json --replications 2 --threads 2: identical apart "
        "from config.proposal_sd",
        "every report equals R's apart from the expected keys config.proposal_sd",
    ]
