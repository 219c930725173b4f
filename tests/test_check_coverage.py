import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def stub_report(z_by_degree, empty=()):
    return {"coverage": {degree: {"empty_basis": degree in empty, "z_scores": z}
                         for degree, z in z_by_degree.items()}}


def check_coverage(monkeypatch, argv, reports, fail=()):
    # stands in for check_identity.run_side: logs where each command ran and
    # with which arguments, and writes the coverage.json reports[config name]
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import check_coverage as script

    calls = []

    def run_side(root, cli_argv, out_dir):
        name = Path(cli_argv[cli_argv.index("--config") + 1]).name
        calls.append((root, cli_argv))
        if name in fail:
            return None, "boom"
        Path(out_dir).mkdir(parents=True)
        Path(out_dir, "coverage.json").write_text(json.dumps(reports[name]))
        return "", None

    monkeypatch.setattr(script, "run_side", run_side)
    return script.main(argv), calls


def test_check_coverage_runs_every_coverage_config_and_passes_below_3(monkeypatch, capsys):
    shipped = sorted(p.name for p in (ROOT / "configs").glob("coverage_*.json"))
    reports = {name: stub_report({"1": {"x": -1.5, "y": 0.5}, "2": {"x": 2.9, "y": 0.0}})
               for name in shipped}
    code, calls = check_coverage(monkeypatch, ["--threads", "2", "--seed", "5"], reports)
    out = capsys.readouterr().out
    assert code == 0, out
    # each config in name order, from the working tree, with the flags passed on
    assert [(root, argv) for root, argv in calls] == [
        (str(ROOT), ["coverage", "--config", str(ROOT / "configs" / name), "--threads", "2",
                     "--seed", "5"])
        for name in shipped]
    lines = out.splitlines()
    assert len(lines) == len(shipped) + 1
    assert lines[0].startswith(f"{shipped[0]}: worst |z| degree 1 1.5 (x), degree 2 2.9 (x); ")
    assert lines[-1] == f"every |z| < 3 on {len(shipped)} coverage config(s)"


def test_a_z_of_3_a_null_z_or_a_failed_command_fails(monkeypatch, capsys):
    reports = {"a.json": stub_report({"1": {"x": 0.2}, "2": {"x": -3.0}}),
               "b.json": stub_report({"1": {"x": None}}),
               "c.json": stub_report({"1": {"x": 0.1}, "2": {"x": 0.3}}, empty=("1",))}
    code, _ = check_coverage(monkeypatch, ["--config", "a.json", "--config", "b.json",
                                           "--config", "c.json", "--config", "d.json"],
                             reports, fail=("d.json",))
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("a.json: worst |z| degree 1 0.2 (x), degree 2 3 (x); ")
    assert lines[0].endswith("; FAILS |z| < 3")
    assert lines[1].startswith("b.json: worst |z| degree 1 inf (x); ")
    assert lines[1].endswith("; FAILS |z| < 3")
    # an empty basis is marked, and its z-score still counts
    assert lines[2].startswith("c.json: worst |z| degree 1 0.1 (x, empty basis), degree 2 0.3 (x); ")
    assert not lines[2].endswith("FAILS |z| < 3")
    assert lines[3] == "d.json: FAILED: boom"
    assert lines[4] == "3 of 4 coverage config(s) fail"
