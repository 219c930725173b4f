#!/usr/bin/env bash
# Chain-quality report (acceptance, zero-mean z-scores, Linnik precision,
# tail-moment check) for each model config, without the replication study.
# Runs from a checkout; extra arguments go to every command, e.g.
# --length 2000.  --out DIR writes each report to DIR/<config name>/;
# without it each config's output_dir holds it.  PYTHON names the
# interpreter (default python3).
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
for name in probit_banknote logit_banknote garch_demgbp; do
    echo "== $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli diagnose --config "$root/configs/$name.json" \
        ${out:+--out "$out/$name"} "${args[@]}"
done
