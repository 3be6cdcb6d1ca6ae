"""Pre-built geometries for every figure-generating setup.

Scenario ids:

* parallel_plates   -- perfect plates/lines, closed-form series
* two_halfplates    -- facing tilted half-plates, edge mode
* three_halfplates  -- vertical half-plate over two coaxial ones
                       (object 1 = vertical; force on it along y)
* blocking          -- same geometry, objects (1,2) = horizontal,
                       3 = vertical; observable I12
* edge_needle       -- needle vs a single half-line (closed forms)
* gap_repulsion     -- needle over the midpoint of two collinear
                       half-lines

Geometry mapping for gap_repulsion (the formulas leave it implicit):
for each half-line, the closed-form tilt phi0 is the angle between that
half-line and its edge-to-needle axis, phi0 = atan(h/d) with d the
in-plane half-gap; the edge-to-needle distance is sqrt(d^2 + h^2).
This mapping is recorded in the output notes.

Half-plate tilts are given in each plate's own facing frame (the frame
whose +x axis points at the partner across the gap); the two-half-plate
closed form is symmetric in this convention.  A vertical half-plate
extending upward has tilt +pi/2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assembly, closedforms
from .assembly import (
    Scene,
    SceneObject,
    diagram_I12,
    diagram_energies,
    diagram_forces,
    force,
)
from .diagrams import Diagram, enumerate_diagrams, word_to_str
from .errors import NumericalDomainError, ValidationError
from .quadrature import QuadratureGrid, build_grid
from .scattering import BoundaryCondition, HalfPlate, Needle
from .translation import FramePose

__all__ = [
    "SCENARIOS",
    "SweepSpec",
    "ScenarioConfig",
    "ScenarioBuild",
    "CurveOutput",
    "build",
    "run",
    "force_direction_field",
    "default_sweep",
]

SCENARIOS = ("parallel_plates", "two_halfplates", "three_halfplates",
             "blocking", "edge_needle", "gap_repulsion")

_NEEDLE_BC = (BoundaryCondition.NEUMANN, BoundaryCondition.EM2D)


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int

    def values(self):
        if self.steps < 1:
            raise ValidationError("sweep.steps must be >= 1")
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    bc: str = "D"
    d_dim: int = 3            # parallel_plates only
    D: float = 1.0            # edge-to-edge / needle-edge separation
    L: float = 1.0            # edge length (two_halfplates closed form)
    phi1: float = 0.0
    phi2: float = 0.0
    h: float = 0.5
    d: float = 1.0            # plate separation / half-gap
    d1: float = 1.0
    d2: float = 1.0
    theta0: float = 0.0
    needle: str = "vertical"  # gap_repulsion: vertical|horizontal|circle
    t00: float = 0.0
    txx: float = 0.0
    tyy: float = 1e-4
    sweep: SweepSpec | None = None
    n_max: int = 4
    n_alpha: int = 128
    n_p: int = 48
    threads: int = 1
    allow_continuation: bool = False

    def __post_init__(self):
        if self.scenario_id not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario_id {self.scenario_id!r}; "
                f"choose one of {SCENARIOS}"
            )
        BoundaryCondition.parse(self.bc)
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        if self.sweep:
            values += [("sweep.start", self.sweep.start),
                       ("sweep.stop", self.sweep.stop)]
        for name, v in values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        for name in ("D", "L", "d", "d1", "d2"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.n_max < 2:
            raise ValidationError("n_max must be >= 2")
        if self.scenario_id == "parallel_plates" and self.d_dim not in (2, 3):
            raise ValidationError("d_dim must be 2 or 3")
        if self.scenario_id == "gap_repulsion" and \
                self.needle not in ("vertical", "horizontal", "circle"):
            raise ValidationError(
                f"needle must be vertical|horizontal|circle, "
                f"got {self.needle!r}"
            )
        if self.scenario_id in ("edge_needle", "gap_repulsion") and \
                BoundaryCondition.parse(self.bc) not in _NEEDLE_BC:
            raise ValidationError(
                "needle scenarios are pure-2D electromagnetic: use bc = N "
                "or EM (2D EM reduces to the Neumann scalar)"
            )
        half_pi = 0.5 * math.pi
        if self.scenario_id == "two_halfplates" and not self.allow_continuation:
            for name in ("phi1", "phi2"):
                v = abs(getattr(self, name))
                if self.sweep and self.sweep.param == name:
                    v = max(abs(self.sweep.start), abs(self.sweep.stop))
                if v > half_pi + 1e-12:
                    raise ValidationError(
                        f"{name} outside the range of validity of this "
                        "expression (|phi| <= pi/2); pass "
                        "allow_continuation to override"
                    )


@dataclass
class ScenarioBuild:
    scene: Scene | None
    diagrams: list
    radial: str
    p_scale: float
    notes: list = field(default_factory=list)


@dataclass
class CurveOutput:
    columns: list
    units: list
    rows: list
    notes: list = field(default_factory=list)

    def column(self, name):
        j = self.columns.index(name)
        return np.array([r[j] for r in self.rows], dtype=float)


def default_sweep(scenario_id: str) -> SweepSpec:
    table = {
        "parallel_plates": SweepSpec("d", 0.5, 2.0, 7),
        "two_halfplates": SweepSpec("phi1", 0.0, 1.1, 12),
        "three_halfplates": SweepSpec("h", -1.0, 3.0, 17),
        "blocking": SweepSpec("h", -1.0, 3.0, 17),
        "edge_needle": SweepSpec("theta0", 0.0, math.pi, 13),
        "gap_repulsion": SweepSpec("h", 0.0, 1.5, 16),
    }
    return table[scenario_id]


def _needle_descriptor(config: ScenarioConfig) -> Needle:
    """Needle for gap_repulsion in the global frame (decay axis x).

    Orientation angles follow the planar-conversion convention of the
    scattering module; vertical elongation is theta0 = pi/2, horizontal
    is 0.  A circle carries both principal strengths.
    """
    t = config.tyy
    if config.needle == "vertical":
        return Needle(config.t00, 0.0, t, 0.5 * math.pi)
    if config.needle == "horizontal":
        return Needle(config.t00, 0.0, t, 0.0)
    return Needle(config.t00, t, t, 0.0)


# --- geometry constructors -------------------------------------------------

def _build_two_halfplates(config, bc) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(config.phi1), FramePose((0.0, 0.0),
                                                       config.phi1)),
         SceneObject(HalfPlate(config.phi2), FramePose((config.D, 0.0),
                                                       config.phi2))),
        bc, mode="edge")


def _build_three_halfplates(config, bc) -> Scene:
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(half_pi), FramePose((0.0, config.h), half_pi),
                     plane_normal=(1.0, 0.0)),
         SceneObject(HalfPlate(0.0), FramePose((-config.d1, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d2, 0.0)))),
        bc, mode="edge")


def _build_blocking(config, bc) -> Scene:
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-config.d1, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d2, 0.0))),
         SceneObject(HalfPlate(half_pi), FramePose((0.0, config.h), half_pi),
                     plane_normal=(1.0, 0.0))),
        bc, mode="edge")


def _build_edge_needle(config, bc) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(config.phi1), FramePose((0.0, 0.0),
                                                       config.phi1)),
         SceneObject(Needle(config.t00, config.txx, config.tyy,
                            config.theta0), FramePose((config.D, 0.0)))),
        bc, mode="pure2d")


def _build_gap_repulsion(config, bc) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-config.d, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d, 0.0))),
         SceneObject(_needle_descriptor(config), FramePose((0.0, config.h)))),
        bc, mode="pure2d")


def _channel_notes(scene: Scene, diagrams) -> list:
    """Per-diagram LL/RL channel inference, recorded in the output."""
    notes = []
    for diag in diagrams:
        chans = []
        for k, i in enumerate(diag.word):
            chan = assembly._resolve_channel(scene, k, diag.word)
            chans.append(f"T{i}:{chan.value}")
        notes.append(f"channels {word_to_str(diag.word)}: "
                     + " ".join(chans))
    return notes


def build(config: ScenarioConfig) -> ScenarioBuild:
    """Scene plus the diagram set the scenario evaluates.

    parallel_plates is translation invariant (no Scene; the assembly
    module has a dedicated quadrature path for it).
    """
    sid = config.scenario_id
    # scalar stand-in for EM: its last scalar channel, Neumann, which is
    # also the pure-2D needle rule
    bc = BoundaryCondition.parse(config.bc).scalars[-1]
    if sid == "parallel_plates":
        return ScenarioBuild(None, [], "p" if config.d_dim == 3 else "kappa",
                             1.0 / (2.0 * config.d))
    if sid == "two_halfplates":
        scene = _build_two_halfplates(config, bc)
        diagrams = enumerate_diagrams(2, config.n_max)
        return ScenarioBuild(scene, diagrams, "p",
                             1.0 / (2.0 * config.D))
    if sid == "three_halfplates":
        scene = _build_three_halfplates(config, bc)
        diagrams = [di for di in enumerate_diagrams(3, config.n_max)
                    if 1 in di.word]
        b = ScenarioBuild(scene, diagrams, "p",
                          1.0 / (config.d1 + config.d2))
        b.notes += _channel_notes(scene, diagrams)
        return b
    if sid == "blocking":
        scene = _build_blocking(config, bc)
        diagrams = [di for di in enumerate_diagrams(3, config.n_max)
                    if 1 in di.word and 2 in di.word]
        b = ScenarioBuild(scene, diagrams, "p",
                          1.0 / (config.d1 + config.d2))
        b.notes += _channel_notes(scene, diagrams)
        return b
    if sid == "edge_needle":
        scene = _build_edge_needle(config, bc)
        return ScenarioBuild(scene, enumerate_diagrams(2, 2), "kappa",
                             1.0 / (2.0 * config.D))
    # gap_repulsion
    scene = _build_gap_repulsion(config, bc)
    diagrams = [di for di in enumerate_diagrams(3, 3) if 3 in di.word]
    b = ScenarioBuild(scene, diagrams, "kappa", 1.0 / (2.0 * config.d))
    b.notes.append(
        "geometry mapping: per half-line phi0 = atan(h/d), edge distance "
        "sqrt(d^2+h^2), d = in-plane half-gap (recorded because the "
        "closed form leaves it implicit)")
    return b


def _grid_for(config: ScenarioConfig, bld: ScenarioBuild) -> QuadratureGrid:
    # pure-2D needle integrands peak at rapidities up to ln(1/kappa) for
    # the small kappa nodes; the wider map keeps those peaks resolved
    map_scale = 6.0 if bld.radial == "kappa" else 3.0
    return build_grid(config.n_alpha, config.n_p, p_scale=bld.p_scale,
                      radial=bld.radial, map_scale=map_scale)


def _sweep_map(config, values, fn):
    """Evaluate fn over sweep values, optionally in parallel; rows come
    back ordered by sweep value regardless of completion order."""
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as ex:
            return list(ex.map(fn, values))
    return [fn(v) for v in values]


# --- scenario runners ------------------------------------------------------

def _run_parallel_plates(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param != "d":
        raise ValidationError("parallel_plates sweeps the separation d")
    per_len = "hbar*c/len^3" if config.d_dim == 3 else "hbar*c/len^2"
    orders = list(range(1, config.n_max + 1))
    cols = ["d", "E_D", "E_N", "E_EM"] + [f"order_{n}" for n in orders] \
        + ["trunc_est"]
    units = ["len"] + [per_len] * (len(cols) - 1)

    def point(dv):
        if dv <= 0:
            raise ValidationError("separation must be positive")
        e = [closedforms.parallel_plate_energy(config.d_dim, dv, 1.0,
                                               b).value
             for b in BoundaryCondition.EM2D.scalars]
        per = [closedforms.parallel_plate_per_order(
            config.d_dim, dv, 1.0, config.bc, n).value for n in orders]
        tail = abs(per[-1])
        return [dv, *e, sum(e)] + per + [tail]

    rows = _sweep_map(config, sweep.values(), point)
    return CurveOutput(cols, units, rows,
                       ["E columns: full resummation; order_n columns for "
                        f"bc={config.bc}"])


def _run_two_halfplates(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param not in ("phi1", "phi2"):
        raise ValidationError("two_halfplates sweeps phi1 or phi2")
    cols = [sweep.param, "E_D", "E_N", "E_EM", "order2", "order4",
            "trunc_est"]
    units = ["rad"] + ["hbar*c/len^2"] * 6
    notes = ["E_* columns: two-body [21] closed form; order columns: "
             f"quadrature reflection series for bc={config.bc} "
             "(order2 converges to E as the grid is refined)"]
    half_pi = 0.5 * math.pi

    def point(phi):
        cfg = replace(config, **{sweep.param: float(phi)}, sweep=None)
        e_d, e_n = (closedforms.two_halfplates_energy(
            cfg.phi1, cfg.phi2, cfg.D, cfg.L, b,
            allow_continuation=config.allow_continuation).value
            for b in BoundaryCondition.EM2D.scalars)
        if max(abs(cfg.phi1), abs(cfg.phi2)) >= half_pi - 1e-9:
            # kernels cannot be built on/over the vertical limit for a
            # generic tilt pair; only the closed form continues
            o2 = o4 = float("nan")
        else:
            o2 = o4 = 0.0
            bld = build(cfg)
            grid = _grid_for(cfg, bld)
            for b in BoundaryCondition.parse(config.bc).scalars:
                scene = _build_two_halfplates(cfg, b)
                brk = assembly.reflection_series(scene, max(4, cfg.n_max),
                                                 grid)
                o2 += brk.by_order.get(2, 0.0)
                o4 += brk.by_order.get(4, 0.0)
        return [float(phi), e_d / cfg.L, e_n / cfg.L, (e_d + e_n) / cfg.L,
                o2, o4, abs(o4)]

    rows = _sweep_map(config, sweep.values(), point)
    return CurveOutput(cols, units, rows, notes)


def _cross_check_note(param, value, results, scale) -> str:
    """Manifest note on the largest error of the ``force`` cross-checks,
    relative to ``scale``, the curve's largest |F_total| (or the central
    difference itself where that is larger): a check at a symmetry zero
    of the force then reads the error's size on the curve, not 0/0."""
    delta = max(abs(r.value - r.finite_difference)
                / max(scale, abs(r.finite_difference), 1e-300)
                for r in results)
    return (f"force cross-check at {param}={value:g}: max delta "
            f"{delta:.3e} (relative to max |F_total| {scale:.3e})")


def _force_rows(config, build_fn, moving, direction, sweep):
    """Shared sweep runner for force-type scenarios (three_halfplates).

    Every row takes the analytic force; the first sweep value also runs
    the central-difference cross-check of ``force`` per diagram and
    scalar, and its largest error (see ``_cross_check_note``) goes to
    the notes."""
    bld = build(config)
    words = [word_to_str(di.word) for di in bld.diagrams]
    cols = [sweep.param, "F_total", "F_D", "F_N", "F_EM"] \
        + [f"F_{w}" for w in words] + ["trunc_est"]
    units = ["len"] + ["hbar*c/len^3"] * (len(cols) - 1)
    values = sweep.values()

    def point(i):
        hv = values[i]
        cfg = replace(config, **{sweep.param: float(hv)}, sweep=None)
        b2 = build(cfg)
        grid = _grid_for(cfg, b2)
        per_dn = {}
        checks = []
        for b in BoundaryCondition.EM2D.scalars:
            scene = build_fn(cfg, b)
            if i == 0:
                res = [force(scene, moving, direction, grid=grid,
                             diagrams=[di]) for di in b2.diagrams]
                fs = [r.value for r in res]
                checks += res
            else:
                fs = diagram_forces(scene, moving, direction, grid=grid,
                                    diagrams=b2.diagrams)
            per_dn[b] = {word_to_str(di.word): f
                         for di, f in zip(b2.diagrams, fs)}
        f_d, f_n = (sum(f.values()) for f in per_dn.values())
        sel = BoundaryCondition.parse(config.bc).scalars
        per = {w: sum(per_dn[b][w] for b in sel) for w in words}
        total = sum(per.values())
        max_order = max(di.order for di in b2.diagrams)
        tail = abs(sum(per[word_to_str(di.word)] for di in b2.diagrams
                       if di.order == max_order))
        return [float(hv), total, f_d, f_n, f_d + f_n] \
            + [per[w] for w in words] + [tail], checks

    rows, checks = zip(*_sweep_map(config, range(len(values)), point))
    scale = max(abs(r[1]) for r in rows)
    notes = bld.notes + [_cross_check_note(sweep.param, values[0],
                                           checks[0], scale)]
    return cols, units, list(rows), notes


def _run_three_halfplates(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param != "h":
        raise ValidationError("three_halfplates sweeps the height h")
    cols, units, rows, notes = _force_rows(
        config, _build_three_halfplates, 1, (0.0, 1.0), sweep)
    notes = ["vertical force on the vertical half-plate (object 1); "
             f"per-diagram columns for bc={config.bc}"] + notes
    return CurveOutput(cols, units, rows, notes)


def _run_blocking(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param != "h":
        raise ValidationError("blocking sweeps the height h")
    bld = build(config)
    words = [word_to_str(di.word) for di in bld.diagrams]
    cols = [sweep.param, "I12_total"] + [f"I12_{w}" for w in words] \
        + ["trunc_est"]
    units = ["len"] + ["hbar*c/len^4"] * (len(cols) - 1)

    def point(hv):
        cfg = replace(config, h=float(hv), sweep=None)
        b2 = build(cfg)
        grid = _grid_for(cfg, b2)
        per = {w: 0.0 for w in words}
        for b in BoundaryCondition.parse(config.bc).scalars:
            scene = _build_blocking(cfg, b)
            vals = diagram_I12(scene, grid=grid, diagrams=b2.diagrams)
            for di, v in zip(b2.diagrams, vals):
                per[word_to_str(di.word)] += v
        total = sum(per.values())
        max_order = max(di.order for di in b2.diagrams)
        tail = abs(sum(per[word_to_str(di.word)] for di in b2.diagrams
                       if di.order == max_order))
        return [float(hv), total] + [per[w] for w in words] + [tail]

    rows = _sweep_map(config, sweep.values(), point)
    notes = [f"I12 = -d^2 E / d(d1) d(d2), bc={config.bc}; finite-order "
             "truncation leaves a wall-limit residual below the axis "
             "(full screening needs all orders)"] + bld.notes
    return CurveOutput(cols, units, rows, notes)


def _edge_needle_closed(config, phi0, theta0):
    e00 = closedforms.needle_edge_E00(phi0, config.D, config.t00).value
    exx = closedforms.needle_edge_Exx(phi0, theta0, config.D,
                                      config.txx).value
    eyy = closedforms.needle_edge_Eyy(phi0, theta0, config.D,
                                      config.tyy).value
    return e00, exx, eyy


def _run_edge_needle(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param not in ("theta0", "phi1"):
        raise ValidationError("edge_needle sweeps theta0 or phi1 (the "
                              "half-line tilt phi0)")
    cols = [sweep.param, "E_total", "E00", "Exx", "Eyy", "trunc_est"]
    units = ["rad"] + ["hbar*c"] * 5

    def point(v):
        cfg = replace(config, **{sweep.param: float(v)}, sweep=None)
        e00, exx, eyy = _edge_needle_closed(cfg, cfg.phi1, cfg.theta0)
        return [float(v), e00 + exx + eyy, e00, exx, eyy, 0.0]

    rows = _sweep_map(config, sweep.values(), point)
    return CurveOutput(cols, units, rows,
                       ["single-reflection closed forms, exact in the "
                        "vanishing-needle limit (pure-2D EM = Neumann)"])


def gap_twobody_energy(config: ScenarioConfig, h: float) -> float:
    """Closed-form two-body energy of the needle kinds over the gap."""
    g = config.d
    beta = math.atan2(h, g)
    de = math.hypot(g, h)
    t = config.tyy

    def one(theta0):
        return closedforms.needle_edge_Eyy(beta, theta0, de, t).value

    base = 2.0 * closedforms.needle_edge_E00(beta, de, config.t00).value
    th_v = 0.5 * math.pi - beta
    if config.needle == "vertical":
        return base + 2.0 * one(th_v)
    if config.needle == "horizontal":
        return base + 2.0 * one(th_v + 0.5 * math.pi)
    return base + 2.0 * (one(th_v) + one(th_v + 0.5 * math.pi))


def _run_gap_repulsion(config: ScenarioConfig) -> CurveOutput:
    sweep = config.sweep or default_sweep(config.scenario_id)
    if sweep.param != "h":
        raise ValidationError("gap_repulsion sweeps the height h")
    cols = ["h", "F_total", "F_twobody", "F_threebody", "E_twobody",
            "E_threebody", "trunc_est"]
    units = ["len", "hbar*c/len", "hbar*c/len", "hbar*c/len", "hbar*c",
             "hbar*c", "hbar*c"]
    bld = build(config)
    two = [di for di in bld.diagrams if di.order == 2 and 3 in di.word]
    three = [di for di in bld.diagrams if di.order == 3]

    values = sweep.values()

    def point(i):
        hv = values[i]
        cfg = replace(config, h=float(hv), sweep=None)
        b2 = build(cfg)
        grid = _grid_for(cfg, b2)
        scene = _build_gap_repulsion(cfg, BoundaryCondition.NEUMANN)
        es = diagram_energies(scene, grid=grid, diagrams=two + three)
        e2, e3 = sum(es[:len(two)]), sum(es[len(two):])
        fs = diagram_forces(scene, 3, (0.0, 1.0), grid=grid,
                            diagrams=two + three)
        f2, f3 = sum(fs[:len(two)]), sum(fs[len(two):])
        # the first row cross-checks the F_total column
        checks = ([force(scene, 3, (0.0, 1.0), grid=grid,
                         diagrams=two + three)] if i == 0 else [])
        return [float(hv), f2 + f3, f2, f3, e2, e3, abs(e3)], checks

    rows, checks = zip(*_sweep_map(config, range(len(values)), point))
    notes = [f"needle kind: {config.needle}; force on the needle along "
             "+y (positive = away from the gap)"] + bld.notes
    notes += _channel_notes(_build_gap_repulsion(config,
                                                 BoundaryCondition.NEUMANN),
                            two + three)
    notes.append(_cross_check_note("h", values[0], checks[0],
                                   max(abs(r[1]) for r in rows)))
    return CurveOutput(cols, units, list(rows), notes)


_RUNNERS = {
    "parallel_plates": _run_parallel_plates,
    "two_halfplates": _run_two_halfplates,
    "three_halfplates": _run_three_halfplates,
    "blocking": _run_blocking,
    "edge_needle": _run_edge_needle,
    "gap_repulsion": _run_gap_repulsion,
}


def run(config: ScenarioConfig) -> CurveOutput:
    """Sweep the scenario's parameter and emit the curve table."""
    return _RUNNERS[config.scenario_id](config)


def force_direction_field(config: ScenarioConfig, positions,
                          orientations) -> CurveOutput:
    """Force vectors on a needle around a half-line (edge_needle only).

    The half-line occupies the ray at angle pi from +x (so a needle at
    polar angle phi0 from +x sits at half-line tilt phi0); all probe
    points are at distance D from the edge.  F is split over the polar
    frame: F_r = 3 E / r exactly (E ~ r^-3), F_t from a central
    difference in phi0 at fixed spatial orientation.  Normalized vectors
    are scaled by the largest magnitude within each position group.
    """
    if config.scenario_id != "edge_needle":
        raise ValidationError("force_direction_field needs edge_needle")
    cols = ["phi0", "theta0", "Fx", "Fy", "Fx_norm", "Fy_norm"]
    units = ["rad", "rad", "hbar*c/len", "hbar*c/len", "1", "1"]
    rows = []
    r = config.D
    delta = 1e-6
    for phi0 in positions:
        group = []
        for th in orientations:
            e = sum(_edge_needle_closed(config, phi0, th))
            f_r = 3.0 * e / r
            # fixed spatial orientation: theta0 co-rotates against phi0
            ep = sum(_edge_needle_closed(config, phi0 + delta, th - delta))
            em = sum(_edge_needle_closed(config, phi0 - delta, th + delta))
            f_t = -(ep - em) / (2.0 * delta) / r
            fx = f_r * math.cos(phi0) - f_t * math.sin(phi0)
            fy = f_r * math.sin(phi0) + f_t * math.cos(phi0)
            group.append([float(phi0), float(th), fx, fy])
        fmax = max(math.hypot(g[2], g[3]) for g in group) or 1.0
        for g in group:
            rows.append(g + [g[2] / fmax, g[3] / fmax])
    return CurveOutput(cols, units, rows,
                       ["normalization is per position group"])
