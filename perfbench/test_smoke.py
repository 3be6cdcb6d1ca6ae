"""Smoke test of the benchmark harness: every workload on a tiny grid.

Run with ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_passes():
    res = subprocess.run([sys.executable, str(RUN), "--smoke"],
                         capture_output=True, text=True, timeout=300)
    lines = res.stdout.strip().splitlines()
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads(lines[-1]) == {"smoke": "passed"}
    workloads = [json.loads(line) for line in lines[:-1]]
    assert len(workloads) == 4
    assert all(w["passed"] and w["check"]["ok"] for w in workloads)
