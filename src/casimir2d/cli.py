"""Command-line front end.

Subcommands:

* ``run``      -- execute a scenario from an INI config, write CSV + manifest
* ``sweep``    -- like run, but requires an explicit [sweep] section
* ``diagrams`` -- list canonical diagram words with symmetry data
* ``verify``   -- run the oracle suite, nonzero exit on any failure:
  the scenes' own operator A on object states against the engine
  (power traces per order, and ln det(1 - A) within the next-term bound
  of its series where rho(A) < 1), the parallel-plate 1/n^4 orders and
  zeta(4) sum, the two-half-plate closed form, the wall cancellation,
  the kernel parity symmetry and the needle factor identity

Exit codes: 0 success, 1 verify failure, 2 validation error (bad input),
3 numerical-domain error.

Config schema (INI), derived from ScenarioConfig: [scenario] and [grid]
hold the fields shown ([scenario] spells scenario_id as ``id``), [sweep]
the SweepSpec fields, and [geometry] every other ScenarioConfig field.
Keys are case-sensitive and each value is coerced to its field's type.
An unknown section or key, a non-finite number, threads < 1, a grid the
quadrature rules refuse (n_alpha odd or below 8, n_p below 8),
sweep.steps < 1 or a sweep.param the scenario does not sweep is a
validation error (exit 2), raised before the output directory is
made::

    [scenario]
    id = two_halfplates          ; one of the scenario ids
    bc = EM                      ; D | N | EM
    n_max = 4
    threads = 1                  ; >= 1, sweep workers (see below)
    allow_continuation = false
    d_dim = 3                    ; parallel_plates only

    [geometry]                   ; every other ScenarioConfig field
    D = 1.0
    phi1 = 0.3
    phi2 = 0.2
    needle = vertical            ; gap_repulsion only

    [sweep]
    param = phi1
    start = 0.0
    stop = 1.1
    steps = 12

    [grid]
    n_alpha = 128
    n_p = 48

``threads`` is the most sweep workers a run may use (at most one per
batch of sweep points).  The manifest's ``threads`` entry records the
workers and ``batches``, the points per engine pass (each worker's
contiguous share of the points, cut into batches of at most 4 scenes
for the h sweeps; one point per pass otherwise).  How the points are
shared and batched changes no bit of the rows.  The sweep leaves BLAS
alone: OPENBLAS_NUM_THREADS sets its threads as usual.

Environment overrides (only these two): CASIMIR2D_THREADS and
CASIMIR2D_OUT.  Identical config + tool version on one machine yields
bit-identical CSV output (deterministic formatting and ordered
reductions).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, closedforms, scenarios
from .assembly import PARITY_TOL, Scene, SceneObject, _edge_sign, \
    _expand, _operator, _pair_blocks, _pairs, _radial_measure, _t_hat, \
    diagram_energy, evaluate, reflection_series
from .diagrams import canonicalize, enumerate_diagrams, word_to_str
from .errors import NumericalDomainError, ValidationError
from .quadrature import build_alpha_grid, build_grid
from .scattering import BoundaryCondition, Channel, HalfPlate, \
    InfinitePlate, Needle, halfplate_kernel, infinite_plate_rl, \
    needle_kernel_planar, parity_defect
from .translation import FramePose

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _schema() -> dict:
    """Config section -> {key: type}, from the ScenarioConfig and
    SweepSpec fields; [scenario] spells scenario_id as ``id``."""
    fields = typing.get_type_hints(scenarios.ScenarioConfig)
    fields["id"] = fields.pop("scenario_id")
    del fields["sweep"]
    placed = {"scenario": ("id", "bc", "n_max", "threads", "d_dim",
                           "allow_continuation"),
              "grid": ("n_alpha", "n_p")}
    schema = {sec: {key: fields.pop(key) for key in keys}
              for sec, keys in placed.items()}
    schema["geometry"] = fields  # every field not placed above
    schema["sweep"] = typing.get_type_hints(scenarios.SweepSpec)
    return schema


_SCHEMA = _schema()
_KINDS = {bool: "a boolean", int: "an integer", float: "a number"}


def _fmt(x) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _coerce(section: str, key: str, raw: str, typ: type):
    text = raw.strip()
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        return typ(text)
    except (KeyError, ValueError):
        raise ValidationError(f"{section}.{key} must be {_KINDS[typ]}")


def load_config(path: Path, overrides: dict) -> scenarios.ScenarioConfig:
    """Parse the INI config into a ScenarioConfig; CLI flags override."""
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # case-sensitive keys: D and d are distinct
    try:
        # read_file, unlike read, fails on a file it cannot open
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: "
                              f"{exc.strerror or exc}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"config parse error in {path}: {exc}")
    if "scenario" not in cp or "id" not in cp["scenario"]:
        raise ValidationError("config needs [scenario] with an 'id' field")
    kw: dict = {}
    sweep: dict = {}
    for section in cp.sections():
        fields = _SCHEMA.get(section)
        if fields is None:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if key not in fields:
                raise ValidationError(f"unknown config key {section}.{key}")
            value = _coerce(section, key, raw, fields[key])
            if section == "sweep":
                sweep[key] = value
            else:
                kw["scenario_id" if key == "id" else key] = value
    if "sweep" in cp:
        for name in _SCHEMA["sweep"]:
            if name not in sweep:
                raise ValidationError(f"sweep.{name} is required")
        kw["sweep"] = scenarios.SweepSpec(**sweep)
    kw.update(overrides)
    return scenarios.ScenarioConfig(**kw)


def _collect_overrides(args) -> dict:
    out: dict = {}
    if args.grid_alpha is not None:
        out["n_alpha"] = args.grid_alpha
    if args.grid_p is not None:
        out["n_p"] = args.grid_p
    if args.nmax is not None:
        out["n_max"] = args.nmax
    if args.threads is not None:
        out["threads"] = args.threads
    elif os.environ.get("CASIMIR2D_THREADS"):
        try:
            out["threads"] = int(os.environ["CASIMIR2D_THREADS"])
        except ValueError:
            raise ValidationError("CASIMIR2D_THREADS must be an integer")
    if args.allow_continuation:
        out["allow_continuation"] = True
    return out


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("CASIMIR2D_OUT")
    return Path(env) if env else Path(".")


def _csv_text(out: scenarios.CurveOutput) -> str:
    """RFC-4180 CSV with a units-annotated header row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow([f"{c} ({u})" for c, u in zip(out.columns, out.units)])
    for row in out.rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _per_diagram_table(out: scenarios.CurveOutput) -> dict:
    table = {}
    for j, name in enumerate(out.columns):
        for prefix in ("F_[", "I12_["):
            if name.startswith(prefix):
                table[name] = [float(r[j]) for r in out.rows]
    return table


def write_outputs(config: scenarios.ScenarioConfig, config_path: Path,
                  out: scenarios.CurveOutput, out_dir: Path,
                  wall_time: float) -> tuple[Path, Path]:
    stem = config.scenario_id
    csv_path = out_dir / f"{stem}.csv"
    man_path = out_dir / f"{stem}.manifest.json"
    text = _csv_text(out)
    csv_path.write_text(text, newline="")
    warnings = []
    if config.allow_continuation:
        warnings.append("analytic continuation beyond |phi| = pi/2 "
                        "enabled; closed forms are outside their "
                        "derivation's range of validity there")
    manifest = {
        "tool": "casimir2d",
        "version": __version__,
        "config_path": str(config_path),
        "config_sha256": hashlib.sha256(
            config_path.read_bytes()).hexdigest(),
        "scenario_id": config.scenario_id,
        "bc": config.bc,
        "grid": {"n_alpha": config.n_alpha, "n_p": config.n_p,
                 "n_max": out.n_max},
        "wall_time_s": wall_time,
        "threads": out.threads,
        "data_file": csv_path.name,
        "data_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "columns": out.columns,
        "units": out.units,
        "n_rows": len(out.rows),
        "per_diagram": _per_diagram_table(out),
        "notes": list(out.notes),
        "warnings": warnings,
    }
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n")
    return csv_path, man_path


def cmd_run(args, require_sweep: bool = False) -> int:
    config = load_config(Path(args.config), _collect_overrides(args))
    if require_sweep and config.sweep is None:
        raise ValidationError("the sweep subcommand needs a [sweep] "
                              "section in the config")
    out_dir = _out_dir(args)
    try:  # before the sweep: a bad --out must not cost a whole sweep
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory: {exc}")
    t0 = time.perf_counter()
    out = scenarios.run(config)
    wall = time.perf_counter() - t0
    csv_path, man_path = write_outputs(config, Path(args.config), out,
                                       out_dir, wall)
    print(f"wrote {csv_path} and {man_path} "
          f"({len(out.rows)} rows, {wall:.2f}s)")
    return EXIT_OK


def cmd_diagrams(args) -> int:
    if args.M < 2:
        raise ValidationError("M must be >= 2")
    n_max = args.nmax if args.nmax is not None else 4
    for diag in enumerate_diagrams(args.M, n_max):
        s = diag.symmetry_factor
        s_str = f"S={s.numerator}" if s.denominator == 1 \
            else f"S={s.numerator}/{s.denominator}"
        if diag.direction_symmetric:
            tag = "sym"
        else:
            mirror = canonicalize(diag.word[::-1])
            tag = f"-> mirror {word_to_str(mirror.word)}"
        print(f"{word_to_str(diag.word)} {s_str} {tag}")
    return EXIT_OK


# --- verify ------------------------------------------------------------

def _check(name, value, tol, lines, extra=""):
    ok = value < tol
    lines.append((name, value, tol, ok, extra))
    return ok


def _verify_operator(lines) -> bool:
    """The scenes' operator A (``_operator``) against the engine: -C int
    dr tr(A^k)/k is ``evaluate``'s order-k sum (k = 2..5) to 1e-12 of C
    int dr tr(|A|^k)/k; where rho(A) < 1, |sum_{k<=8} tr(A^k)/k + ln
    det(1 - A)| is within dim rho^9 / (9 (1 - rho)) plus a roundoff floor
    dim eps (1 + |ln det|), and det(1 - A) > 0 (else measured is inf).
    The scenes, at 32x12: blocking D and N and gap_repulsion's vertical
    needle N at h = 0.5, and the wall scene."""
    cases = [(_wall_scene(), build_grid(32, 12, p_scale=0.5))]
    for sid, bc in (("blocking", "D"), ("blocking", "N"),
                    ("gap_repulsion", "N")):
        cfg = scenarios.ScenarioConfig(sid, bc=bc, n_alpha=32, n_p=12)
        bld = scenarios.build(cfg)
        cases.append((bld.scene, scenarios._grid_for(cfg, bld)))
    worst = ratio = 0.0
    nodes = 0
    for scene, grid in cases:
        diagrams = enumerate_diagrams(scene.M, 5)
        energies, = evaluate((scene,), diagrams, grid, [()])[0]
        c, jac = _radial_measure(scene.mode, grid.p_nodes)
        traces, scale = np.zeros(6), np.zeros(6)
        for w, a in zip(c * grid.p_weights * jac, _operator(scene, grid)):
            power, absolute = a, np.abs(a)
            power_abs, series = absolute, 0.0
            for k in range(2, 9):
                power = power @ a
                series += np.trace(power) / k
                if k <= 5:
                    power_abs = power_abs @ absolute
                    traces[k] -= w * np.trace(power) / k
                    scale[k] += w * np.trace(power_abs) / k
            rho = float(np.abs(np.linalg.eigvals(a)).max())
            if rho < 1.0:
                nodes += 1
                dim = a.shape[0]
                sign, lndet = np.linalg.slogdet(np.eye(dim) - a)
                allowed = (dim * rho ** 9 / (9.0 * (1.0 - rho))
                           + dim * np.finfo(float).eps * (1.0 + abs(lndet)))
                ratio = max(ratio, abs(series + lndet) / allowed
                            if sign > 0 else math.inf)
        for k in range(2, 6):
            engine = sum(e for d, e in zip(diagrams, energies)
                         if d.order == k)
            worst = max(worst, abs(traces[k] - engine) / scale[k])
    ok1 = _check("operator power traces vs evaluate, orders 2-5",
                 worst, 1e-12, lines)
    ok2 = _check(f"operator ln det, next-term bound ({nodes} nodes)",
                 ratio, 1.0, lines)
    return ok1 and ok2


def _verify_closedform(lines) -> bool:
    grid = build_grid(96, 40, p_scale=0.5)
    worst = 0.0
    for phi1, phi2 in ((0.4, 0.3), (math.pi / 8, 3 * math.pi / 8)):
        cf = closedforms.two_halfplates_energy(phi1, phi2, 1.0, 1.0,
                                               "EM").value
        scene = Scene(
            (SceneObject(HalfPlate(phi1), FramePose((0.0, 0.0), phi1)),
             SceneObject(HalfPlate(phi2), FramePose((1.0, 0.0), phi2))),
            BoundaryCondition.EM2D, mode="edge")
        num = reflection_series(scene, 2, grid).total
        worst = max(worst, abs(num - cf) / abs(cf))
    return _check("two-half-plate closed form vs quadrature", worst,
                  1e-4, lines)


def _wall_scene() -> Scene:
    """Two coplanar Dirichlet half-plates facing across a wall."""
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
         SceneObject(InfinitePlate(), FramePose((0.0, 0.0)))),
        BoundaryCondition.DIRICHLET, mode="edge")


def _verify_cancellation(lines) -> bool:
    grid = build_grid(96, 40, p_scale=0.5)
    scene = _wall_scene()
    e12 = diagram_energy(scene, canonicalize((1, 2)), grid)
    e123 = diagram_energy(scene, canonicalize((1, 2, 3)), grid)
    res = abs(e12 + e123) / abs(e12)
    return _check("wall cancellation |[21]+[321]| / |[21]|", res, 1e-8,
                  lines)


def _verify_zeta(lines) -> bool:
    ok = True
    rows = []
    for n in range(1, 6):
        per = closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D",
                                                   n).value
        first = closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D",
                                                     1).value
        ratio = per / first
        rows.append(f"    n={n}: per-order ratio {ratio:.12f} "
                    f"(exact {1.0 / n**4:.12f})")
        ok = ok and abs(ratio - 1.0 / n**4) < 1e-14
    total = closedforms.parallel_plate_energy(3, 1.0, 1.0, "D").value
    # remainder past n=20000 is ~1/(3*20000^3) ~ 4e-14 of the n=1 term
    series = sum(closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D",
                                                      n).value
                 for n in range(1, 20001))
    rel = abs(series - total) / abs(total)
    ok1 = _check("parallel-plate per-order 1/n^4 ratios", 0.0 if ok
                 else 1.0, 0.5, lines, extra="\n".join(rows))
    ok2 = _check("parallel-plate zeta(4) resummation (20000 terms)", rel,
                 1e-12, lines)
    return ok1 and ok2


def _parity_kernels(grid) -> tuple:
    """(plates, needles) of the parity checks on ``grid``: the weighted
    kernels of the half-plates (D and N, LL and RL, seven tilts, the
    tilt-0 ones first) and the wall, and (descriptor, kernel) of nine
    needles."""
    tilts = (0.0, 0.3, -0.3, 1.1, -1.1, 0.5 * math.pi, -0.5 * math.pi)
    plates = [halfplate_kernel(bc, chan, phi, grid) for phi in tilts
              for bc in BoundaryCondition.EM2D.scalars for chan in Channel]
    plates.append(infinite_plate_rl(grid))
    needles = [(desc, needle_kernel_planar(desc, 1.0, grid))
               for desc in (Needle(0.1, txx, 1e-4, theta0)
                            for txx in (0.0, 1e-4, 3e-5)
                            for theta0 in (0.0, 0.5 * math.pi, 0.7))]
    return plates, needles


def _verify_parity(lines) -> bool:
    """The mirror symmetry P T P = conj T of every kernel builder, on the
    default rapidity grid: the chain engine's pair images rely on it.
    The real kernels (the tilt-0 half-plates, D and N, LL and RL, and the
    wall) have pair images whose parity blocks EO and OE are exactly 0,
    which the engine's halved products of block-diagonal kernels rest
    on.  And the needle's rank-3 factors in the pair basis, in which the
    engine keeps its image T' = E M E^T W (``assembly._t_hat``)."""
    grid = build_alpha_grid(scenarios.ScenarioConfig.n_alpha)
    plates, needles = _parity_kernels(grid)
    worst = max(parity_defect(t) for t in plates + [t for _, t in needles])
    real = plates[:4] + plates[-1:]
    off = 0.0
    for t in real:
        blocks = _pair_blocks(t)
        off = max(off, float(max(np.abs(blocks[0, 1]).max(),
                                 np.abs(blocks[1, 0]).max())
                             / np.abs(blocks).max()))
    factors = 0.0
    for desc, t in needles:
        (e, m, w), _, _ = _t_hat(("needle", desc), grid, {})
        image = _pair_blocks(t)
        got = _expand((e @ m, e.swapaxes(-1, -2) * w))
        factors = max(factors, float(np.abs(got - image).max()
                                     / np.abs(image).max()))
    ok1 = _check("kernel parity symmetry |PTP - conj T| / |T|", worst,
                 PARITY_TOL, lines)
    ok2 = _check("needle factors, pair basis |E M E^T W - T'| / max|T'|",
                 factors, PARITY_TOL, lines)
    ok3 = _check("real kernels' pair images max|EO, OE| / max|T'|", off,
                 PARITY_TOL, lines)
    return ok1 and ok2 and ok3


def _staggered_scene() -> Scene:
    """Three Neumann half-plates at three heights and tilts, the last
    vertical, whose blocking line has the other two on its two sides."""
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(0.3), FramePose((-1.0, 0.2), 0.3)),
         SceneObject(HalfPlate(-0.5), FramePose((0.9, -0.35), -0.5)),
         SceneObject(HalfPlate(half_pi), FramePose((0.1, 0.6), half_pi),
                     plane_normal=(1.0, 0.0))),
        BoundaryCondition.NEUMANN, mode="edge")


def _verify_signs(lines) -> bool:
    """The engine's sign rule against the channels: round every diagram
    to order 4 of blocking N, three_halfplates N, gap_repulsion N and a
    staggered Neumann scene, the product of the edge signs
    (``assembly._edge_sign``) over the walk's steps against the product
    of the channel signs of its reflections (``scenarios.
    _resolve_channel``, RL = -1).  Measured: the walks that disagree."""
    scenes = [scenarios.build(scenarios.ScenarioConfig(sid, bc="N")).scene
              for sid in ("blocking", "three_halfplates", "gap_repulsion")]
    scenes.append(_staggered_scene())
    wrong = walks = 0
    for scene in scenes:
        for diag in enumerate_diagrams(scene.M, 4):
            word = diag.word
            channels = math.prod(
                -1 if scenarios._resolve_channel(
                    scene, (word[k - 1], word[k], word[(k + 1) % len(word)]))
                is Channel.RL else 1 for k in range(len(word)))
            edges = math.prod(_edge_sign(scene, *pair)
                              for pair in _pairs(word))
            wrong += edges != channels
            walks += 1
    return _check(f"edge signs vs channel signs ({walks} walks to order 4)",
                  wrong, 0.5, lines)


def cmd_verify(args) -> int:
    lines: list = []
    ok = True
    ok &= _verify_operator(lines)
    ok &= _verify_signs(lines)
    ok &= _verify_zeta(lines)
    ok &= _verify_closedform(lines)
    ok &= _verify_cancellation(lines)
    ok &= _verify_parity(lines)
    width = max(len(n) for n, *_ in lines)
    for name, value, tol, passed, extra in lines:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name:<{width}}  measured {value:.3e}  "
              f"tol {tol:.1e}")
        if extra:
            print(extra)
    print("verify:", "all checks passed" if ok else "FAILURES above")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casimir2d",
        description="Casimir interaction energies for 2D/2.5D multibody "
                    "geometries (multiple-reflection expansion)")
    ap.add_argument("--version", action="version",
                    version=f"casimir2d {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="INI config file")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: ., or "
                            "CASIMIR2D_OUT)")
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="most sweep workers (the rows do not depend "
                            "on it; OPENBLAS_NUM_THREADS sets BLAS's "
                            "threads)")
        p.add_argument("--grid-alpha", type=int, default=None, metavar="N",
                       help="override n_alpha")
        p.add_argument("--grid-p", type=int, default=None, metavar="N",
                       help="override n_p")
        p.add_argument("--nmax", type=int, default=None, metavar="N",
                       help="override max reflection order")
        p.add_argument("--allow-continuation", action="store_true",
                       help="evaluate closed forms beyond |phi| = pi/2")

    p_run = sub.add_parser("run", help="execute a scenario from a config")
    add_run_flags(p_run)
    p_sweep = sub.add_parser("sweep",
                             help="run a scenario sweep (requires [sweep])")
    add_run_flags(p_sweep)
    p_diag = sub.add_parser("diagrams", help="list canonical diagrams")
    p_diag.add_argument("M", type=int, help="number of objects")
    p_diag.add_argument("--nmax", type=int, default=None, metavar="N",
                        help="max reflection order (default 4)")
    sub.add_parser("verify", help="run the oracle suite")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_run(args, require_sweep=True)
        if args.command == "diagrams":
            return cmd_diagrams(args)
        return cmd_verify(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalDomainError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
