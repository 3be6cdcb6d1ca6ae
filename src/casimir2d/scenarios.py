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

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assembly, closedforms
from .assembly import Scene, SceneObject
from .diagrams import enumerate_diagrams, word_to_str
from .errors import NumericalDomainError, ValidationError
from .quadrature import (
    QuadratureGrid,
    build_grid,
    check_alpha_count,
    check_radial_count,
)
from .scattering import BoundaryCondition, Channel, HalfPlate, Needle
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
]

# The one documented non-finite output: two_halfplates' quadrature columns
# are nan where |phi1| or |phi2| >= this limit, as no kernel is built there
_VERTICAL_NAN = ("two_halfplates", ("order2", "order4", "trunc_est"),
                 0.5 * math.pi - 1e-9)
# Most scenes of an h sweep one engine pass evaluates.  A batch pays the
# pass's per-node fixed cost once for all its scenes, but its stacked
# buffers grow with B: at 4, a needle curve of 4 points at 96x48 peaks
# 1.2 MB (3%) above its 40.7 MB peak RSS at one scene per pass
B = 4


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("sweep.steps must be >= 1")

    def values(self):
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
        _, default, others, _ = _SCENARIOS[self.scenario_id]
        params = (default.param, *others)
        if self.sweep and self.sweep.param not in params:
            raise ValidationError(f"{self.scenario_id} sweeps "
                                  f"{' or '.join(params)}, not "
                                  f"{self.sweep.param!r}")
        bc = BoundaryCondition.parse(self.bc)
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        if self.sweep:
            values += [("sweep.start", self.sweep.start),
                       ("sweep.stop", self.sweep.stop)]
        for name, v in values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        check_alpha_count(self.n_alpha, "grid.n_alpha")
        check_radial_count(self.n_p, "grid.n_p")
        for name in ("D", "L", "d", "d1", "d2"):
            v = getattr(self, name)
            if self.sweep and self.sweep.param == name:
                v = min(v, self.sweep.start, self.sweep.stop)
            if v <= 0:
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
                bc is BoundaryCondition.DIRICHLET:
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
    p_scale: float
    notes: list = field(default_factory=list)


@dataclass
class CurveOutput:
    columns: list
    units: list
    rows: list
    notes: list = field(default_factory=list)
    threads: dict = field(default_factory=dict)  # set by run()
    n_max: int = 2  # highest reflection order the series columns hold

    def column(self, name):
        j = self.columns.index(name)
        return np.array([r[j] for r in self.rows], dtype=float)


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

def _build_two_halfplates(config) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(config.phi1), FramePose((0.0, 0.0),
                                                       config.phi1)),
         SceneObject(HalfPlate(config.phi2), FramePose((config.D, 0.0),
                                                       config.phi2))),
        BoundaryCondition.parse(config.bc), mode="edge")


def _build_three_halfplates(config) -> Scene:
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(half_pi), FramePose((0.0, config.h), half_pi),
                     plane_normal=(1.0, 0.0)),
         SceneObject(HalfPlate(0.0), FramePose((-config.d1, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d2, 0.0)))),
        BoundaryCondition.parse(config.bc), mode="edge")


def _build_blocking(config) -> Scene:
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-config.d1, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d2, 0.0))),
         SceneObject(HalfPlate(half_pi), FramePose((0.0, config.h), half_pi),
                     plane_normal=(1.0, 0.0))),
        BoundaryCondition.parse(config.bc), mode="edge")


def _build_edge_needle(config) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(config.phi1), FramePose((0.0, 0.0),
                                                       config.phi1)),
         SceneObject(Needle(config.t00, config.txx, config.tyy,
                            config.theta0), FramePose((config.D, 0.0)))),
        BoundaryCondition.parse(config.bc), mode="pure2d")


def _build_gap_repulsion(config) -> Scene:
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-config.d, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+config.d, 0.0))),
         SceneObject(_needle_descriptor(config), FramePose((0.0, config.h)))),
        BoundaryCondition.parse(config.bc), mode="pure2d")


def _resolve_channel(scene: Scene, triple) -> Channel:
    """Channel of the reflection off ``at`` in the triple (to, at, frm):
    RL iff frm and to lie on opposite sides of the object's line.  The
    engine needs no channel, only the edge signs (``_edge_sign``)."""
    to, at, frm = triple
    obj = scene.object_index(at)
    if obj.plane_normal is None:
        return Channel.LL
    s1 = assembly._side(obj, scene.object_index(frm))
    s2 = assembly._side(obj, scene.object_index(to))
    return Channel.RL if s1 * s2 < 0 else Channel.LL


def _channel_notes(scene: Scene, diagrams) -> list:
    """Per-diagram LL/RL channel inference, recorded in the output."""
    notes = []
    for diag in diagrams:
        w = diag.word
        chans = [f"T{w[k]}:"
                 + _resolve_channel(scene, (w[k - 1], w[k],
                                            w[(k + 1) % len(w)])).value
                 for k in range(len(w))]
        notes.append(f"channels {word_to_str(w)}: " + " ".join(chans))
    return notes


def build(config: ScenarioConfig) -> ScenarioBuild:
    """Scene plus the diagram set the scenario evaluates.

    The scene takes the config's bc as it is, EM included: its values
    are sums over its scalar problems (``Scene.scalars``).
    parallel_plates is translation invariant: it has no Scene, and its
    curve comes from the closed forms.
    """
    sid = config.scenario_id
    if sid == "parallel_plates":
        return ScenarioBuild(None, [], 1.0 / (2.0 * config.d))
    if sid == "two_halfplates":
        # [12] and [1212], the orders 2 and 4 the columns hold
        return ScenarioBuild(_build_two_halfplates(config),
                             enumerate_diagrams(2, 4), 1.0 / (2.0 * config.D))
    if sid == "three_halfplates":
        scene = _build_three_halfplates(config)
        diagrams = [di for di in enumerate_diagrams(3, config.n_max)
                    if 1 in di.word]
        b = ScenarioBuild(scene, diagrams, 1.0 / (config.d1 + config.d2))
        b.notes += _channel_notes(scene, diagrams)
        return b
    if sid == "blocking":
        scene = _build_blocking(config)
        diagrams = [di for di in enumerate_diagrams(3, config.n_max)
                    if 1 in di.word and 2 in di.word]
        b = ScenarioBuild(scene, diagrams, 1.0 / (config.d1 + config.d2))
        b.notes += _channel_notes(scene, diagrams)
        return b
    if sid == "edge_needle":
        scene = _build_edge_needle(config)
        return ScenarioBuild(scene, enumerate_diagrams(2, 2),
                             1.0 / (2.0 * config.D))
    # gap_repulsion
    scene = _build_gap_repulsion(config)
    diagrams = [di for di in enumerate_diagrams(3, 3) if 3 in di.word]
    b = ScenarioBuild(scene, diagrams, 1.0 / (2.0 * config.d))
    b.notes.append(
        "geometry mapping: per half-line phi0 = atan(h/d), edge distance "
        "sqrt(d^2+h^2), d = in-plane half-gap (recorded because the "
        "closed form leaves it implicit)")
    b.notes += _channel_notes(scene, diagrams)
    return b


def _grid_for(config: ScenarioConfig, bld: ScenarioBuild) -> QuadratureGrid:
    # the grid's radial rule is the plain int dp, to which the scene's
    # mode adds its Jacobian.  Pure-2D needle integrands peak at
    # rapidities up to ln(1/kappa) for the small kappa nodes; the wider
    # map keeps those peaks resolved
    map_scale = 6.0 if bld.scene.mode == "pure2d" else 3.0
    return build_grid(config.n_alpha, config.n_p, p_scale=bld.p_scale,
                      map_scale=map_scale)


def _sweep_map(values, workers, batches, fn, size) -> list:
    """Rows of fn over the sweep values on ``workers`` threads, ordered
    by sweep value.  Each worker takes a contiguous share of the values,
    cut into chunks of at most ``size``, and fn(chunk) returns the rows
    of a chunk; the chunk sizes are appended to ``batches``."""
    chunks = [[share[i:i + size] for i in range(0, len(share), size)]
              for share in np.array_split(np.asarray(values), workers)]
    batches += [len(chunk) for share in chunks for chunk in share]

    def work(share):
        return [row for chunk in share for row in fn(chunk)]

    if workers == 1:
        return work(chunks[0])
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return [row for rows in ex.map(work, chunks) for row in rows]


def _each(point):
    """fn for ``_sweep_map`` that evaluates a chunk one point at a time."""
    return lambda values: [point(v) for v in values]


# --- scenario runners ------------------------------------------------------
# sweep_map(fn) is the rows of fn(chunk) over chunks of the sweep values,
# in sweep order (see _sweep_map); the h sweeps evaluate a chunk of at
# most B values as one batch of scenes, the other curves take chunks of
# one point (the chunk size is the scenario table's)

def _run_parallel_plates(config, sweep, sweep_map) -> CurveOutput:
    per_len = "hbar*c/len^3" if config.d_dim == 3 else "hbar*c/len^2"
    orders = list(range(1, config.n_max + 1))
    cols = ["d", "E_D", "E_N", "E_EM"] + [f"order_{n}" for n in orders] \
        + ["trunc_est"]
    units = ["len"] + [per_len] * (len(cols) - 1)

    def point(dv):
        e = [closedforms.parallel_plate_energy(config.d_dim, dv, 1.0,
                                               b).value
             for b in BoundaryCondition.EM2D.scalars]
        per = [closedforms.parallel_plate_per_order(
            config.d_dim, dv, 1.0, config.bc, n).value for n in orders]
        tail = abs(per[-1])
        return [dv, *e, sum(e)] + per + [tail]

    return CurveOutput(cols, units, sweep_map(_each(point)),
                       ["E columns: full resummation; order_n columns for "
                        f"bc={config.bc}"], n_max=config.n_max)


def _run_two_halfplates(config, sweep, sweep_map) -> CurveOutput:
    cols = [sweep.param, "E_D", "E_N", "E_EM", "order2", "order4",
            "trunc_est"]
    units = ["rad"] + ["hbar*c/len^2"] * 6
    notes = ["E_* columns: two-body [21] closed form; order columns: "
             f"quadrature reflection series for bc={config.bc} "
             "(order2 converges to E as the grid is refined)"]
    # D is not sweepable, so one grid serves the curve
    bld = build(config)
    grid = _grid_for(config, bld)

    def point(phi):
        cfg = replace(config, **{sweep.param: float(phi)}, sweep=None)
        e_d, e_n = (closedforms.two_halfplates_energy(
            cfg.phi1, cfg.phi2, cfg.D, cfg.L, b,
            allow_continuation=config.allow_continuation).value
            for b in BoundaryCondition.EM2D.scalars)
        if max(abs(cfg.phi1), abs(cfg.phi2)) >= _VERTICAL_NAN[2]:
            # kernels cannot be built on/over the vertical limit for a
            # generic tilt pair; only the closed form continues
            o2 = o4 = float("nan")
        else:
            (o2, o4), = assembly.evaluate((_build_two_halfplates(cfg),),
                                          bld.diagrams, grid, [()])[0]
        return [float(phi), e_d / cfg.L, e_n / cfg.L, (e_d + e_n) / cfg.L,
                o2, o4, abs(o4)]

    return CurveOutput(cols, units, sweep_map(_each(point)), notes,
                       n_max=_top(bld.diagrams))


def _top(diagrams) -> int:
    """Highest reflection order among ``diagrams``."""
    return max(di.order for di in diagrams)


def _fold(diagrams, per) -> tuple:
    """Total of the per-diagram values ``per`` and the truncation
    estimate, |sum over the diagrams of the highest order|."""
    top = _top(diagrams)
    return sum(per), abs(sum(v for di, v in zip(diagrams, per)
                             if di.order == top))


def _batch_values(config, hs, scene_of, grid, diagrams, queries) -> list:
    """(h, scene, values) per sweep value of the batch ``hs``: the scene
    ``scene_of`` builds from the config at that h and its values of the
    ``queries`` (``assembly.evaluate``), from one engine call on the
    batch."""
    hs = [float(hv) for hv in hs]
    scenes = tuple(scene_of(replace(config, h=hv, sweep=None)) for hv in hs)
    return list(zip(hs, scenes, assembly.evaluate(scenes, diagrams, grid,
                                                  queries)))


def _force_curve(sweep_map, batch, moving, grid, diagrams) -> tuple:
    """Rows of a force curve on object ``moving`` along +y, swept value
    in column 0 and F_total in column 1, and the manifest note of its
    cross-check.

    ``batch(values)`` returns, per value, a row and its (scene,
    per-diagram forces) per scene it evaluated, from one engine pass per
    scalar for the whole batch.  The first row whose |F_total| is at
    least 1e-2 of the curve's largest is checked, each force against its
    own central difference, so a symmetry zero of the force is never the
    row checked.  The note gives the largest error relative to that
    largest |F_total| (or the central difference itself where that is
    larger).
    """
    out = sweep_map(batch)
    rows = [row for row, _ in out]
    scale = max(abs(row[1]) for row in rows)
    i = next((i for i, row in enumerate(rows)
              if abs(row[1]) >= 1e-2 * scale), 0)  # 0 on a nan curve
    delta = max(abs(f - fd) / max(scale, abs(fd), 1e-300)
                for scene, fs in out[i][1]
                for f, fd in zip(fs, assembly._central_differences(
                    scene, moving, (0.0, 1.0), grid, diagrams)))
    note = (f"force cross-check at h={rows[i][0]:g}: max delta "
            f"{delta:.3e} (relative to max |F_total| {scale:.3e})")
    return rows, note


def _run_three_halfplates(config, sweep, sweep_map) -> CurveOutput:
    bld = build(config)
    words = [word_to_str(di.word) for di in bld.diagrams]
    cols = ["h", "F_total", "F_D", "F_N", "F_EM"] \
        + [f"F_{w}" for w in words] + ["trunc_est"]
    units = ["len"] + ["hbar*c/len^3"] * (len(cols) - 1)
    grid = _grid_for(config, bld)
    sel = BoundaryCondition.parse(config.bc).scalars

    def batch(hs):
        # per scalar, one pass on the batch: (scene, forces) per point
        by_bc = [[(scene, fs) for _, scene, (fs,) in _batch_values(
            replace(config, bc=b.value), hs, _build_three_halfplates, grid,
            bld.diagrams, [((1, (0.0, 1.0)),)])]
            for b in BoundaryCondition.EM2D.scalars]
        out = []
        for hv, passes in zip(hs, zip(*by_bc)):
            per = [0.0] * len(words)
            for scene, fs in passes:
                if scene.bc in sel:
                    per = [a + f for a, f in zip(per, fs)]
            f_d, f_n = (sum(fs) for _, fs in passes)
            total, tail = _fold(bld.diagrams, per)
            out.append(([float(hv), total, f_d, f_n, f_d + f_n, *per, tail],
                        list(passes)))
        return out

    rows, note = _force_curve(sweep_map, batch, 1, grid, bld.diagrams)
    notes = ["vertical force on the vertical half-plate (object 1); "
             f"per-diagram columns for bc={config.bc}"] + bld.notes + [note]
    return CurveOutput(cols, units, rows, notes, n_max=_top(bld.diagrams))


def _run_blocking(config, sweep, sweep_map) -> CurveOutput:
    bld = build(config)
    words = [word_to_str(di.word) for di in bld.diagrams]
    cols = ["h", "I12_total"] + [f"I12_{w}" for w in words] + ["trunc_est"]
    units = ["len"] + ["hbar*c/len^4"] * (len(cols) - 1)
    grid = _grid_for(config, bld)

    def batch(hs):
        out = []
        for hv, _, (per,) in _batch_values(config, hs, _build_blocking, grid,
                                           bld.diagrams, [assembly.I12]):
            total, tail = _fold(bld.diagrams, per)
            out.append([hv, total, *per, tail])
        return out

    rows = sweep_map(batch)
    # the two-body closed form anchors I12_[12] on every row: E_[12] is
    # proportional to D^-2, D = d1 + d2, so -d^2 E / d(d1) d(d2) is
    # -6 E_[12] / D^2 whatever h is
    dd = config.d1 + config.d2
    closed = -6.0 * closedforms.two_halfplates_energy(
        0.0, 0.0, dd, 1.0, config.bc).value / (dd * dd)
    col = cols.index("I12_[12]")
    worst = max(abs(row[col] - closed) for row in rows)
    anchor = (f"closed-form anchor: max |I12_[12] - (-6 E_[12] / D^2)| "
              f"{worst / abs(closed):.3e} (relative to |closed form| "
              f"{abs(closed):.3e})")
    # the all-orders comparison of README's numerical notes
    notes = [f"I12 = -d^2 E / d(d1) d(d2), bc={config.bc}; a truncated "
             "reflection series: at n_max = 4 the D I12 is 54% above its "
             "all-orders value at h = 0.5 and 2000x above it at h = -1, "
             "where the vertical plate screens the pair almost completely; "
             "a row is trustworthy only where trunc_est is small against "
             "its value"] + bld.notes + [anchor]
    return CurveOutput(cols, units, rows, notes, n_max=_top(bld.diagrams))


def _edge_needle_closed(config, phi0, theta0):
    e00 = closedforms.needle_edge_E00(phi0, config.D, config.t00).value
    exx = closedforms.needle_edge_Exx(phi0, theta0, config.D,
                                      config.txx).value
    eyy = closedforms.needle_edge_Eyy(phi0, theta0, config.D,
                                      config.tyy).value
    return e00, exx, eyy


def _run_edge_needle(config, sweep, sweep_map) -> CurveOutput:
    cols = [sweep.param, "E_total", "E00", "Exx", "Eyy", "trunc_est"]
    units = ["rad"] + ["hbar*c"] * 5

    def point(v):
        cfg = replace(config, **{sweep.param: float(v)}, sweep=None)
        e00, exx, eyy = _edge_needle_closed(cfg, cfg.phi1, cfg.theta0)
        return [float(v), e00 + exx + eyy, e00, exx, eyy, 0.0]

    return CurveOutput(cols, units, sweep_map(_each(point)),
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
        # the gap's repulsion formula, even in h by the y -> -y mirror
        return base + closedforms.repulsion_energy(abs(beta), g, t).value
    if config.needle == "horizontal":
        return base + 2.0 * one(th_v + 0.5 * math.pi)
    return base + 2.0 * (one(th_v) + one(th_v + 0.5 * math.pi))


def _run_gap_repulsion(config, sweep, sweep_map) -> CurveOutput:
    cols = ["h", "F_total", "F_twobody", "F_threebody", "E_twobody",
            "E_threebody", "trunc_est"]
    units = ["len", "hbar*c/len", "hbar*c/len", "hbar*c/len", "hbar*c",
             "hbar*c", "hbar*c"]
    bld = build(config)
    grid = _grid_for(config, bld)
    # the diagrams come sorted by order: the two-body ones first
    n2 = sum(di.order == 2 for di in bld.diagrams)

    def batch(hs):
        out = []
        for hv, scene, (es, fs) in _batch_values(
                config, hs, _build_gap_repulsion, grid, bld.diagrams,
                [(), ((3, (0.0, 1.0)),)]):
            e2, e3 = sum(es[:n2]), sum(es[n2:])
            f2, f3 = sum(fs[:n2]), sum(fs[n2:])
            out.append(([hv, f2 + f3, f2, f3, e2, e3, abs(e3)],
                        [(scene, fs)]))
        return out

    rows, note = _force_curve(sweep_map, batch, 3, grid, bld.diagrams)
    # the two-body closed form anchors E_twobody on every row
    col = cols.index("E_twobody")
    closed = [gap_twobody_energy(config, row[0]) for row in rows]
    scale = max(abs(c) for c in closed)
    worst = max(abs(row[col] - c) for row, c in zip(rows, closed))
    anchor = (f"closed-form anchor: max |E_twobody - closed form| "
              f"{worst / max(scale, 1e-300):.3e} (relative to max |closed "
              f"form| {scale:.3e})")
    notes = [f"needle kind: {config.needle}; force on the needle along "
             "+y (positive = away from the gap)", *bld.notes, note, anchor]
    return CurveOutput(cols, units, rows, notes, n_max=_top(bld.diagrams))


# scenario -> (runner, default sweep, the other parameters it may sweep,
# the most sweep values one chunk holds: B for the batched h sweeps)
_SCENARIOS = {
    "parallel_plates": (_run_parallel_plates,
                        SweepSpec("d", 0.5, 2.0, 7), (), 1),
    "two_halfplates": (_run_two_halfplates,
                       SweepSpec("phi1", 0.0, 1.1, 12), ("phi2",), 1),
    "three_halfplates": (_run_three_halfplates,
                         SweepSpec("h", -1.0, 3.0, 17), (), B),
    "blocking": (_run_blocking, SweepSpec("h", -1.0, 3.0, 17), (), B),
    "edge_needle": (_run_edge_needle,
                    SweepSpec("theta0", 0.0, math.pi, 13), ("phi1",), 1),
    "gap_repulsion": (_run_gap_repulsion,
                      SweepSpec("h", 0.0, 1.5, 16), (), B),
}
SCENARIOS = tuple(_SCENARIOS)


def run(config: ScenarioConfig) -> CurveOutput:
    """Sweep the scenario's parameter and emit the curve table; any
    non-finite value but the documented ``_VERTICAL_NAN`` one raises
    NumericalDomainError.

    ``config.threads`` is the most sweep workers the run may use: the
    pool gets one worker per chunk of points, at most threads.  Each
    worker takes a contiguous share of the points; the h sweeps
    (three_halfplates, blocking, gap_repulsion) cut it into batches of
    at most B scenes per engine pass and get min(threads, ceil(points /
    B)) workers, the other curves run one point at a time on
    min(threads, points).  A worker per batch, not per point: the pool's
    threads share the interpreter lock.  On two threads with one BLAS
    thread each, two single-point passes of a blocking I12 point at
    128x48 ran at 0.67 to 0.99 times the speed of the same passes one
    after the other, and a 2-point blocking I12 curve at 128x48 took
    0.71 of its two-worker time as one batch on one worker, which pays
    the pass's per-node work once (2-vCPU host).  The sweep leaves BLAS
    alone: its threads are set as usual, by OPENBLAS_NUM_THREADS.
    ``out.threads`` records the workers and, as ``batches``, the size of
    each chunk of points in sweep order.
    """
    sid = config.scenario_id
    runner, default, _, size = _SCENARIOS[sid]
    sweep = config.sweep or default
    values = sweep.values()
    workers = min(config.threads, math.ceil(len(values) / size))
    batches: list = []
    out = runner(config, sweep, functools.partial(
        _sweep_map, values, workers, batches, size=size))
    out.threads = {"sweep_workers": workers, "batches": batches}
    nan_sid, nan_cols, limit = _VERTICAL_NAN
    for i, row in enumerate(out.rows):
        for name, v in zip(out.columns, row):
            if math.isfinite(v):
                continue
            phis = {"phi1": config.phi1, "phi2": config.phi2,
                    sweep.param: row[0]}
            if not (sid == nan_sid and name in nan_cols and math.isnan(v)
                    and max(abs(phis["phi1"]), abs(phis["phi2"])) >= limit):
                raise NumericalDomainError(
                    f"{sid}: non-finite {name} = {v} in row {i} "
                    f"({sweep.param} = {row[0]:g})")
    return out


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
