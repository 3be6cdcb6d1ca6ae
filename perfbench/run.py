#!/usr/bin/env python3
"""casimir2d benchmark: wall seconds per sweep point on four scenario curves.

Each run drives the real CLI entry point, ``casimir2d.cli.main(["sweep",
...])``, in this process, as a closed loop with one client: curves of one
seed-generated config run back to back for ``--seconds``.  Outputs are
checked after the timed loop (see checks.py).  ``--trace 1`` alternates
untraced and traced curves and reports per-layer metrics from the spans
(see tracer.py); ``--trace 0`` reports the end-to-end metrics.

    python3 perfbench/run.py --workload force_curve --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --smoke      # every workload on a tiny grid

The last line of standard output is the result as one JSON object; the
line before it is a detail record (quartiles, sample counts, checks,
environment).  Both are also kept under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5  # fresh processes timed for setup_s
MIN_CURVES = 2    # the determinism check needs two curves
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CASIMIR2D_THREADS")


@dataclass(frozen=True)
class Workload:
    scenario: str
    bc: str
    param: str
    lo: float            # the seed places a window of `width` in [lo, hi]
    hi: float
    width: float
    points: int
    threads: int
    n_alpha: int
    n_p: int
    geometry: dict = field(default_factory=dict)
    n_max: int | None = None
    avoid: tuple = ()    # sweep values where the closed form is undefined
    smoke_grid: tuple = (16, 8)


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    "force_curve": Workload(
        "three_halfplates", "EM", "h", -1.0, 3.0, 0.5, 2, 1, 96, 40,
        {"d1": 1.0, "d2": 1.0}, n_max=4),
    "interaction_curve": Workload(
        "blocking", "D", "h", -1.0, 4.0, 0.5, 2, 2, 128, 48,
        {"d1": 1.0, "d2": 1.0}, n_max=4),
    "needle_curve": Workload(
        "gap_repulsion", "N", "h", 0.0, 1.5, 0.6, 4, 1, 96, 48,
        {"d": 1.0, "needle": "vertical", "tyy": 1e-4}),
    "tilt_curve": Workload(
        "two_halfplates", "EM", "phi1", -1.45, 1.45, 1.0, 16, 1, 128, 48,
        {"D": 1.0, "L": 1.0, "phi2": 0.3}, avoid=(-0.3,),
        smoke_grid=(64, 24)),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# --- inputs -------------------------------------------------------------

def make_config(name: str, seed: int, smoke: bool) -> tuple[str, int]:
    """INI text of the workload's curve and the row to cross-check.

    The seed places the sweep window inside the valid range and picks
    the checked row; the grid, and so the work per point, is fixed.
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    points = 1 if smoke else w.points
    while True:
        start = rng.uniform(w.lo, w.hi - w.width)
        stop = start + w.width if points > 1 else start
        step = (stop - start) / max(points - 1, 1)
        values = [start + k * step for k in range(points)]
        if all(abs(v - a) > 1e-3 for v in values for a in w.avoid):
            break
    n_alpha, n_p = w.smoke_grid if smoke else (w.n_alpha, w.n_p)
    scenario = [f"id = {w.scenario}", f"bc = {w.bc}",
                f"threads = {w.threads}"]
    if w.n_max is not None:
        scenario.append(f"n_max = {w.n_max}")
    text = "\n".join(
        ["[scenario]", *scenario, "", "[geometry]"]
        + [f"{k} = {v}" for k, v in w.geometry.items()]
        + ["", "[sweep]", f"param = {w.param}", f"start = {start!r}",
           f"stop = {stop!r}", f"steps = {points}", "", "[grid]",
           f"n_alpha = {n_alpha}", f"n_p = {n_p}", ""])
    return text, rng.randrange(points)


# --- environment ----------------------------------------------------------

def check_sources() -> None:
    if not (SRC / "casimir2d" / "__init__.py").is_file():
        raise BenchError(f"no casimir2d sources under {SRC}")


def import_program():
    """Import casimir2d from this checkout's sources."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import casimir2d
    from casimir2d import assembly, cli, closedforms, scenarios
    if Path(casimir2d.__file__).resolve().parent != SRC / "casimir2d":
        raise BenchError(f"casimir2d imported from {casimir2d.__file__}")
    return types.SimpleNamespace(cli=cli, scenarios=scenarios,
                                 assembly=assembly, closedforms=closedforms)


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "casimir2d").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "env": {k: os.environ[k] for k in ENV_VARS if k in os.environ},
            "git_commit": git_commit(), "src_sha256": src_digest(),
            "seed": seed}


# --- set-up time ----------------------------------------------------------

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import casimir2d
from casimir2d import cli
cli.load_config(Path(sys.argv[2]), {})
print(time.perf_counter() - t0, casimir2d.__file__)
"""


def setup_times(config: Path) -> list:
    """Seconds to import casimir2d and load the config, each in a fresh
    process."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise BenchError("set-up probe failed: " + res.stderr[-2000:])
        secs, where = res.stdout.split(maxsplit=1)
        if Path(where.strip()).resolve().parent != SRC / "casimir2d":
            raise BenchError(f"set-up probe imported {where}")
        out.append(float(secs))
    return out


# --- the closed loop ------------------------------------------------------

@dataclass
class Curve:
    wall: float
    rc: int
    csv: bytes
    traced: bool
    cpu: float

    @property
    def ok(self) -> bool:
        return self.rc == 0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_curve(c2d, config: Path, out_dir: Path, scenario: str) -> Curve:
    """One timed ``casimir2d sweep`` call; its CSV is read back and the
    output directory removed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    c0 = _cpu()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = c2d.cli.main(["sweep", "--config", str(config),
                           "--out", str(out_dir)])
    wall = perf_counter() - t0
    cpu = _cpu() - c0
    csv_path = out_dir / f"{scenario}.csv"
    data = csv_path.read_bytes() if rc == 0 and csv_path.is_file() else b""
    shutil.rmtree(out_dir, ignore_errors=True)
    return Curve(wall, rc, data, False, cpu)


def closed_loop(c2d, config: Path, workdir: Path, scenario: str,
                seconds: float, tr: tracing.Tracer | None) -> list:
    """Run curves back to back until the next one would pass ``seconds``.

    With a tracer, curves alternate untraced and traced, starting
    untraced, so both halves see the same conditions.
    """
    curves: list = []
    t_start = perf_counter()
    while True:
        traced = tr is not None and len(curves) % 2 == 1
        if traced:
            tr.curve = len(curves)
            tr.enabled = True
        try:
            c = run_curve(c2d, config, workdir / "curve", scenario)
        finally:
            if tr is not None:
                tr.enabled = False
        c.traced = traced
        curves.append(c)
        elapsed = perf_counter() - t_start
        typical = statistics.median(x.wall for x in curves)
        if len(curves) >= MIN_CURVES and elapsed + typical > seconds:
            return curves


# --- results --------------------------------------------------------------

def verify(c2d, name: str, config: Path, curves: list, check_row: int):
    """Failed rows per curve, and the detail of the checks."""
    w = WORKLOADS[name]
    cfg = c2d.cli.load_config(config, {})
    points = len(cfg.sweep.values())
    ref = next((c for c in curves if c.ok), None)
    detail: dict = {"check": None}
    physics_ok = False
    if ref is not None:
        names, rows = checks.parse_csv(ref.csv.decode())
        if len(rows) == points:
            try:
                detail["check"] = checks.physics_check(c2d, cfg, names,
                                                       rows, check_row)
            except Exception:  # a check that cannot run fails the point
                detail["check"] = {"ok": False,
                                   "error": traceback.format_exc()}
            physics_ok = detail["check"]["ok"]
    failed = []
    mismatched = 0
    for c in curves:
        if not c.ok:
            failed.append(set(range(points)))
            continue
        names, rows = checks.parse_csv(c.csv.decode())
        bad = checks.nonfinite_rows(w.scenario, names, rows)
        bad |= set(range(len(rows), points))  # missing rows
        if c.csv != ref.csv:
            mismatched += 1
            ref_lines = ref.csv.splitlines()[1:]
            lines = c.csv.splitlines()[1:]
            bad |= {i for i in range(points)
                    if i >= len(lines) or i >= len(ref_lines)
                    or lines[i] != ref_lines[i]}
        if not physics_ok:
            bad.add(check_row)
        failed.append(bad)
    detail["nondeterministic_curves"] = mismatched
    detail["failed_cli_calls"] = sum(not c.ok for c in curves)
    return failed, points, detail


def summary(values: list) -> dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    w = WORKLOADS[name]
    check_sources()
    workdir = WORK / (f"smoke-{name}" if smoke else name)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    text, check_row = make_config(name, seed, smoke)
    config = workdir / "config.ini"
    config.write_text(text)
    setup = [] if trace else setup_times(config)
    c2d = import_program()
    env = environment(seed)
    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
    curves = closed_loop(c2d, config, workdir, w.scenario, seconds, tr)
    failed, points, detail = verify(c2d, name, config, curves, check_row)
    attempted = points * len(curves)
    n_failed = sum(len(f) for f in failed)
    fail_frac = n_failed / attempted
    per_point = {True: [], False: []}
    for c in curves:
        if c.ok:
            per_point[c.traced].append(c.wall / points)
    if not per_point[False] or (trace and not per_point[True]):
        raise BenchError("sweep calls failed: "
                         + json.dumps(detail, default=str))
    detail.update({"workload": name, "seed": seed, "trace": int(trace),
                   "points_per_curve": points, "curves": len(curves),
                   "fail_frac": fail_frac, "environment": env,
                   "point_s": summary(per_point[False])})
    if trace:
        traced = [c for c in curves if c.traced and c.ok]
        n_pts = points * len(traced)
        layers, absent = tracing.layer_metrics(tr.spans, n_pts)
        cpu = sum(c.cpu for c in traced)
        wall = sum(c.wall for c in traced)
        layers["proc.cpu_s"] = cpu / n_pts
        layers["proc.cpu_util"] = cpu / wall
        layers["cli.csv_bytes"] = sum(len(c.csv) for c in traced) / n_pts
        layers["trace.overhead"] = (statistics.median(per_point[True])
                                    / statistics.median(per_point[False]))
        layers["fail_frac"] = fail_frac
        metrics = {k: metric(v, LAYER_UNITS[k])
                   for k, v in layers.items()}
        detail.update({"traced_point_s": summary(per_point[True]),
                       "absent": absent, "spans": len(tr.spans)})
        tr.dump(workdir / "spans.jsonl")
    else:
        metrics = {
            "point_s": metric(statistics.median(per_point[False]), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["setup_s"] = summary(setup)
    result = {"correct": n_failed == 0, "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    shutil.rmtree(workdir / "curve", ignore_errors=True)
    return result, detail


LAYER_UNITS = {
    "assembly.chain_self_s": "s",
    "assembly.force.s": "s", "assembly.force.self_s": "s",
    "assembly.force.calls": "count", "assembly.force.check_s": "s",
    "assembly.interaction_I12.s": "s",
    "assembly.interaction_I12.self_s": "s",
    "assembly.interaction_I12.calls": "count",
    "assembly.diagram_energy.s": "s", "assembly.diagram_energy.self_s": "s",
    "assembly.diagram_energy.calls": "count",
    "assembly.reflection_series.s": "s",
    "assembly.reflection_series.calls": "count",
    "scattering.halfplate_kernel.s": "s",
    "scattering.halfplate_kernel.calls": "count",
    "scattering.halfplate_kernel.distinct_frac": "ratio",
    "scattering.needle_kernel_planar.s": "s",
    "scattering.needle_kernel_planar.calls": "count",
    "scattering.needle_kernel_planar.distinct_frac": "ratio",
    "quadrature.build_grid.s": "s", "quadrature.build_grid.calls": "count",
    "closedforms.s": "s", "closedforms.calls": "count",
    "diagrams.enumerate_diagrams.calls": "count",
    "scenarios.run.s": "s", "scenarios.build.calls": "count",
    "scenarios.sweep_concurrency": "ratio",
    "proc.cpu_s": "s", "proc.cpu_util": "ratio",
    "cli.load_config.s": "s", "cli.write_outputs.s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead": "ratio",
    "fail_frac": "ratio",
}


def smoke() -> int:
    """Every workload at a tiny grid, one point, through checks and
    tracing; exit 0 when all pass and every per-layer metric is there."""
    ok = True
    for name in WORKLOADS:
        result, detail = run_workload(name, 1, 0.0, True, smoke=True)
        passed = (result["correct"] and detail["check"]["ok"]
                  and set(result["metrics"]) == set(LAYER_UNITS))
        ok = ok and passed
        print(json.dumps({"workload": name, "passed": passed,
                          "check": detail["check"],
                          "absent": detail["absent"]}))
    print(json.dumps({"smoke": "passed" if ok else "FAILED"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on a tiny grid and exit")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, detail = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
