"""scripts/needle_force_field.py: the force direction field on a needle
around a half-line edge, run as a script on a small field."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import casimir2d

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["phi0 (rad)", "theta0 (rad)", "Fx (hbar*c/len)", "Fy (hbar*c/len)",
          "Fx_norm (1)", "Fy_norm (1)"]


def test_small_field(tmp_path):
    src = str(Path(casimir2d.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "needle_force_field.py"),
         "--n-positions", "3", "--n-orientations", "2",
         "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "needle_force_field.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == HEADER
    values = [[float(v) for v in row] for row in rows[1:]]
    # one row per (position, orientation): 3 x 2
    assert len(values) == 6
    assert all(math.isfinite(v) for row in values for v in row)
    assert sorted({row[0] for row in values}) == [-0.5 * math.pi, 0.0,
                                                  0.5 * math.pi]
    assert sorted({row[1] for row in values}) == [0.0, 0.5 * math.pi]
