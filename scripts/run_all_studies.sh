#!/usr/bin/env bash
# Reproduce every shipped study from a checkout: the replication studies of
# the three models and the toy smoke test (study.json / study.csv under
# out/<name>/), then the probit and GARCH coverage checks (coverage.json under
# out/coverage_<model>/).  Extra arguments go to every command, e.g.
# --threads 2.  PYTHON names the interpreter (default python3).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
for name in toys probit_banknote logit_banknote garch_demgbp; do
    echo "== run $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli run --config "$root/configs/$name.json" "$@"
done
for name in coverage_probit coverage_garch; do
    echo "== coverage $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli coverage --config "$root/configs/$name.json" "$@"
done
