#!/usr/bin/env bash
# Reproduce every shipped study from a checkout: the replication studies of
# the three models and the toy smoke test (study.json / study.csv under
# out/<name>/), then the probit, GARCH, logit and toy coverage checks
# (coverage.json under out/coverage_<model>/).  Extra arguments go to every command, e.g.
# --threads 2.  --out DIR writes each report to DIR/<config name>/ instead.
# PYTHON names the interpreter (default python3).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
out=""
args=()
while (($#)); do
    case $1 in
        --out) (($# >= 2)) || { echo "--out needs a directory" >&2; exit 2; }
               out=$2; shift 2 ;;
        --out=*) out=${1#--out=}; shift ;;
        *) args+=("$1"); shift ;;
    esac
done
for name in toys probit_banknote logit_banknote garch_demgbp; do
    echo "== run $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli run --config "$root/configs/$name.json" \
        ${out:+--out "$out/$name"} "${args[@]}"
done
for name in coverage_probit coverage_garch coverage_logit coverage_gaussian coverage_exponential \
        coverage_gamma; do
    echo "== coverage $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli coverage --config "$root/configs/$name.json" \
        ${out:+--out "$out/$name"} "${args[@]}"
done
