#!/usr/bin/env bash
# Run every bundled sweep config and collect the CSV + manifest outputs
# under results/<config-name>/.  Usage: scripts/run_all.sh [OUT_DIR]
# Runs from a checkout: the package is imported from src/ next to this
# directory, so no install is needed.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out_root="${1:-results}"
export PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"

for cfg in "$here"/configs/*.ini; do
    name="$(basename "$cfg" .ini)"
    echo "== $name"
    python3 -m casimir2d.cli sweep --config "$cfg" --out "$out_root/$name"
done

echo "== needle force direction field"
python3 "$here/needle_force_field.py" --out "$out_root/needle_force_field"

echo "done; outputs under $out_root/"
