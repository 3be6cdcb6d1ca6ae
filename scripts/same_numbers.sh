#!/usr/bin/env bash
# Check that this checkout computes the same curves as another checkout.
#
#     scripts/same_numbers.sh OTHER_CHECKOUT
#
# Every bundled config (scripts/configs/*.ini of this checkout) is cut to
# two sweep steps, keeping its grid and threads, and run once with each
# checkout's src/ into a temporary directory.  compare_runs.py then
# compares the CSVs, OTHER_CHECKOUT as the old tree and this checkout as
# the new one, at --tol 1e-12 of each column's max, and marks each CSV
# whose bytes match as "identical"; the script exits with its code (0:
# all agree, 1: a CSV differs or is missing).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
if [ $# -ne 1 ] || [ ! -d "$1/src/casimir2d" ]; then
    echo "usage: $0 OTHER_CHECKOUT (a directory holding src/casimir2d)" >&2
    exit 2
fi
other="$(cd "$1" && pwd)"
ours="$(cd "$here/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for cfg in "$here"/configs/*.ini; do
    name="$(basename "$cfg" .ini)"
    sed -E 's/^(steps[[:space:]]*=[[:space:]]*).*/\12/' "$cfg" \
        > "$work/$name.ini"
    for side in other ours; do
        if [ "$side" = other ]; then root="$other"; else root="$ours"; fi
        echo "== $name ($side: $root)"
        PYTHONPATH="$root/src" python3 -m casimir2d.cli sweep \
            --config "$work/$name.ini" --out "$work/$side/$name" > /dev/null
    done
done

status=0
python3 "$here/compare_runs.py" --tol 1e-12 "$work/other" "$work/ours" \
    || status=$?
exit "$status"
