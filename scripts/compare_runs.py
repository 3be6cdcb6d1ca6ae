#!/usr/bin/env python3
"""Compare the CSVs of two output trees written by ``scripts/run_all.sh``.

    python3 scripts/compare_runs.py OLD NEW [--tol 1e-12]

For every CSV under OLD (matched to NEW by relative path) it prints the
worst ``|new - old| / column max`` over all cells, where a column's max
is its largest finite ``|old|`` or ``|new|``, and adds ``identical`` when
the two files are byte for byte the same and so are the ``notes`` of
their manifests (``<stem>.manifest.json`` beside each CSV; a CSV without
one has no notes), or ``notes differ`` when only the bytes match.  Cells
that are ``nan`` on both sides agree; a value that is finite on one side
only counts as an infinite difference.  Exits 1 when any CSV is worse
than ``--tol``, has a different header or row count, or is missing from
one tree; 0 otherwise.  The notes do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def manifest_notes(csv_path: Path):
    """The ``notes`` of the manifest beside a CSV, or None without one."""
    path = csv_path.with_suffix(".manifest.json")
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("notes")


def cell_diff(a: float, b: float) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:  # equal infinities included
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a)


def worst_difference(old: list, new: list) -> tuple[float, int]:
    """Largest per-column relative difference and the column it is in."""
    worst, where = 0.0, 0
    for j in range(len(old[0]) if old else 0):
        a = [r[j] for r in old]
        b = [r[j] for r in new]
        scale = max((abs(v) for v in a + b if math.isfinite(v)), default=0.0)
        diff = max(cell_diff(x, y) for x, y in zip(a, b))
        rel = diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf)
        if rel > worst:
            worst, where = rel, j
    return worst, where


def compare(old_root: Path, new_root: Path, tol: float) -> int:
    old_files = {p.relative_to(old_root) for p in old_root.rglob("*.csv")}
    new_files = {p.relative_to(new_root) for p in new_root.rglob("*.csv")}
    if not old_files:
        print(f"no CSV under {old_root}")
        return 1
    failed = False
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            side = old_root if rel not in old_files else new_root
            print(f"{rel}: missing under {side}")
            failed = True
            continue
        head_old, old = read_csv(old_root / rel)
        head_new, new = read_csv(new_root / rel)
        if head_old != head_new or len(old) != len(new):
            print(f"{rel}: header or row count differs")
            failed = True
            continue
        worst, j = worst_difference(old, new)
        mark = "FAIL" if worst > tol else "ok"
        where = f" (column {head_old[j]!r})" if worst > 0 else ""
        if (old_root / rel).read_bytes() == (new_root / rel).read_bytes():
            same = (manifest_notes(old_root / rel)
                    == manifest_notes(new_root / rel))
            mark += " identical" if same else " notes differ"
        print(f"{rel}: {worst:.2e}{where} {mark}")
        failed = failed or worst > tol
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--tol", type=float, default=1e-12,
                    help="largest allowed |new - old| / column max")
    args = ap.parse_args(argv)
    return compare(args.old, args.new, args.tol)


if __name__ == "__main__":
    sys.exit(main())
