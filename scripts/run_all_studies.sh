#!/usr/bin/env bash
# Reproduce every shipped config from a checkout: `run` on each of the six
# (study.json / study.csv), then `coverage` on each of the same six
# (coverage.json), each under its config's output_dir.  Extra arguments go to
# every command, e.g. --threads 2.  --out DIR writes each report to
# DIR/<config name>/ instead, so a config's coverage.json sits beside its
# study.json.  PYTHON names the interpreter (default python3).
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
configs=(toys probit_banknote logit_banknote garch_demgbp exponential gamma)
for command in run coverage; do
    for name in "${configs[@]}"; do
        echo "== $command $name =="
        "${PYTHON:-python3}" -m zvmcmc.cli "$command" --config "$root/configs/$name.json" \
            ${out:+--out "$out/$name"} "${args[@]}"
    done
done
