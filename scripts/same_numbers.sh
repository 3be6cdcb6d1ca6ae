#!/usr/bin/env bash
# Check that this checkout computes the same curves as another checkout.
#
#     scripts/same_numbers.sh OTHER_CHECKOUT
#
# Every bundled config (scripts/configs/*.ini of this checkout) is cut to
# two sweep steps, keeping its grid and threads, and run at every
# boundary condition its scenario accepts (D, N and EM; N and EM for the
# needle scenarios edge_needle and gap_repulsion), once with each
# checkout's src/, into a temporary directory <config>_<bc>.
# compare_runs.py then compares the CSVs, OTHER_CHECKOUT as the old tree
# and this checkout as the new one, at --tol 1e-12 of each column's max,
# and marks each CSV whose bytes and manifest notes match as
# "identical"; the script exits with its code (0: all agree, 1: a CSV
# differs or is missing).
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
    if ! grep -Eq '^bc[[:space:]]*=' "$cfg"; then
        echo "$cfg: no bc line to vary" >&2
        exit 2
    fi
    sid="$(sed -nE 's/^id[[:space:]]*=[[:space:]]*([a-z_]+).*/\1/p' "$cfg")"
    case "$sid" in
        edge_needle | gap_repulsion) bcs="N EM" ;;
        *) bcs="D N EM" ;;
    esac
    for bc in $bcs; do
        run="${name}_$bc"
        sed -E -e 's/^(steps[[:space:]]*=[[:space:]]*).*/\12/' \
            -e "s/^(bc[[:space:]]*=[[:space:]]*).*/\\1$bc/" "$cfg" \
            > "$work/$run.ini"
        for side in other ours; do
            if [ "$side" = other ]; then root="$other"; else root="$ours"; fi
            echo "== $run ($side: $root)"
            PYTHONPATH="$root/src" python3 -m casimir2d.cli sweep \
                --config "$work/$run.ini" --out "$work/$side/$run" > /dev/null
        done
    done
done

status=0
python3 "$here/compare_runs.py" --tol 1e-12 "$work/other" "$work/ours" \
    || status=$?
exit "$status"
