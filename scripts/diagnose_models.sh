#!/usr/bin/env bash
# Chain-quality report (acceptance, zero-mean z-scores, Linnik precision,
# tail-moment check) for each model config, without the replication study.
# Runs from a checkout; extra arguments go to every command, e.g.
# --length 2000.  PYTHON names the interpreter (default python3).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
for name in probit_banknote logit_banknote garch_demgbp; do
    echo "== $name =="
    "${PYTHON:-python3}" -m zvmcmc.cli diagnose --config "$root/configs/$name.json" "$@"
done
