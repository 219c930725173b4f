"""Workload definitions: which config each workload runs, at what size and with which seeds.

Each workload runs one shipped config through the public CLI
(``zvmcmc run`` or ``zvmcmc diagnose`` via ``cli.main``) at a reduced size.
A run repeats the command for the requested seconds; invocation k of a run
with seed s uses base seed (1000 s + k) * 2R, so invocations 0..n-1 of a
study are exactly replications 0..nR-1 of one study of nR replications.
The quality metrics pool the first ``pooled`` invocations, which keeps them a
function of the seed alone while the number of timed invocations depends on
the machine.  Why each workload exists is in BENCHMARK.json and README.md;
metric names and units are declared in BENCHMARK.json only.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass


MIN_TIMED = 3  # timed invocations per run at least, so wall_s is a median


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # "run" or "diagnose"
    config: str          # shipped config, relative to the repository root
    replications: int    # per invocation; a diagnose invocation is one chain
    pooled: int          # leading invocations whose outputs feed the quality metrics
    length: int | None = None  # diagnose chain length
    overrides: tuple = ()  # (key, value) pairs changed in a copy of the shipped config

    def base_seed(self, seed: int, k: int) -> int:
        return (1000 * seed + k) * 2 * self.replications

    def write_config(self, work_dir: str) -> str:
        """Path of the config to run: the shipped one, or a copy with the overrides."""
        if not self.overrides:
            return self.config
        with open(self.config) as fh:
            raw = json.load(fh)
        raw.update(dict(self.overrides))
        path = os.path.join(work_dir, f"{self.name}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2)
        return path

    def argv(self, config: str, seed: int, k: int, out_dir: str, threads: int) -> list[str]:
        common = ["--config", config, "--seed", str(self.base_seed(seed, k)),
                  "--out", out_dir, "--threads", str(threads)]
        if self.command == "run":
            return ["run", *common, "--replications", str(self.replications)]
        return ["diagnose", *common, "--length", str(self.length)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="logit-rwmh-study",
        command="run",
        config="configs/logit_banknote.json",
        replications=4,
        pooled=10,
    ),
    Workload(
        name="probit-gibbs-study",
        command="run",
        config="configs/probit_banknote.json",
        replications=8,
        pooled=10,
    ),
    Workload(
        name="garch-rwmh-study",
        command="run",
        config="configs/garch_demgbp.json",
        replications=2,
        pooled=10,
        # at the shipped 2000 / 10000 only ~8 replications fit in a run, too
        # few for a steady variance ratio; these lengths gave the same
        # vr_log10 (about 7) with three times the replications
        overrides=(("fit_length", 1000), ("eval_length", 2000)),
    ),
    Workload(
        name="logit-long-diagnose",
        command="diagnose",
        config="configs/logit_banknote.json",
        replications=1,
        pooled=1,
        length=50_000,
    ),
)}
