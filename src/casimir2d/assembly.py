"""Diagram-chain evaluation: energies, reflection series, forces.

A scene is a list of scatterers with poses in a global frame whose x
axis is the decay axis.  For a diagram word [i_N ... i_1] the energy is

    E = -S * C * int dr Re tr( U_{i1,iN} T_{iN} ... U_{i2,i1} T_{i1} )

where the radial integral and constant C depend on the scene mode:

* mode "edge"   (2.5D, energy per unit edge length):
      C = 1/(4 pi), dr = p dp  (folded (kappa, k_z) half-plane)
* mode "pure2d" (2D world, absolute energy):
      C = 1/(2 pi), dr = dkappa

Mirror-partner diagrams have complex-conjugate traces, so Re tr is the
correct per-diagram real value; summing both members of a mirror pair
yields their joint (manifestly real) contribution.

Every T kernel is the weighted matrix K * diag(w) the scattering
builders return, so operator products are plain matrix products and
operator traces plain matrix traces; each translation U is a diagonal
symbol scaling the rows of the T matrix it precedes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagrams import Diagram, enumerate_diagrams, word_to_str
from .errors import GeometryError, ValidationError
from .quadrature import QuadratureGrid
from .scattering import (
    BoundaryCondition,
    Channel,
    HalfPlate,
    InfinitePlate,
    Needle,
    halfplate_kernel,
    infinite_plate_rl,
    needle_kernel_planar,
)
from .translation import FramePose, translation_diagonal

__all__ = [
    "SceneObject",
    "Scene",
    "EnergyBreakdown",
    "ForceResult",
    "diagram_energy",
    "reflection_series",
    "force",
    "interaction_I12",
    "parallel_plates_energy_quadrature",
    "suggest_p_scale",
]

HBAR_C = 1.0  # natural units; outputs are in powers of hbar*c


@dataclass(frozen=True)
class SceneObject:
    """A scatterer with its pose.

    ``plane_normal``, if set, defines the object's blocking line for
    channel resolution: a link reflecting off this object is RL when the
    neighbors sit on opposite sides of the line through the origin with
    this normal, LL otherwise.
    """

    descriptor: object
    pose: FramePose
    plane_normal: tuple | None = None


@dataclass(frozen=True)
class Scene:
    objects: tuple
    bc: BoundaryCondition
    mode: str = "edge"  # "edge" (2.5D per length) or "pure2d"

    def __post_init__(self):
        if len(self.objects) < 2:
            raise ValidationError("a scene needs at least two objects")
        if self.mode not in ("edge", "pure2d"):
            raise ValidationError(f"unknown scene mode {self.mode!r}")
        if self.bc is BoundaryCondition.EM2D:
            raise ValidationError(
                "assemble EM2D as the D+N sum (edge mode) or as Neumann "
                "(pure-2D); pass a scalar boundary condition here"
            )
        seen = set()
        for obj in self.objects:
            key = obj.pose.origin
            if key in seen:
                raise GeometryError("two objects share an origin")
            seen.add(key)

    @property
    def M(self) -> int:
        return len(self.objects)

    def object_index(self, i: int) -> SceneObject:
        """1-based diagram index -> scene object."""
        return self.objects[i - 1]


@dataclass
class EnergyBreakdown:
    per_diagram: dict
    by_order: dict
    total: float
    truncation_estimate: float
    grid_meta: dict = field(default_factory=dict)


@dataclass
class ForceResult:
    value: float
    cross_check_delta: float


def _radial_prefactor(mode: str) -> float:
    return 1.0 / (4.0 * math.pi) if mode == "edge" else 1.0 / (2.0 * math.pi)


def suggest_p_scale(scene: Scene) -> float:
    """Radial grid scale matched to the shortest round trip: the
    integrand envelope is e^{-2 p gap_min}."""
    gap = min_gap(scene)
    return 1.0 / (2.0 * gap)


def min_gap(scene: Scene) -> float:
    gaps = []
    for i, a in enumerate(scene.objects):
        for b in scene.objects[i + 1:]:
            dx = abs(a.pose.origin[0] - b.pose.origin[0])
            if dx > 0:
                gaps.append(dx)
    if not gaps:
        raise GeometryError("no pair is separated along the decay axis")
    return min(gaps)


def _side(obj: SceneObject, other: SceneObject) -> float:
    nx, ny = obj.plane_normal
    ox, oy = obj.pose.origin
    px, py = other.pose.origin
    return (px - ox) * nx + (py - oy) * ny


def _resolve_channel(scene: Scene, k: int, word) -> Channel:
    """Channel for the T insertion word[k]: RL iff the incoming and
    outgoing partners lie on opposite sides of the object's line."""
    n = len(word)
    obj = scene.object_index(word[k])
    if obj.plane_normal is None:
        return Channel.LL
    came_from = scene.object_index(word[(k + 1) % n])
    goes_to = scene.object_index(word[(k - 1) % n])
    s1 = _side(obj, came_from)
    s2 = _side(obj, goes_to)
    return Channel.RL if s1 * s2 < 0 else Channel.LL


def _t_hat(scene: Scene, k: int, word, grid: QuadratureGrid, p: float,
           cache: dict) -> np.ndarray:
    """Weighted T matrix for insertion word[k], memoized in ``cache``."""
    obj = scene.object_index(word[k])
    desc = obj.descriptor
    if isinstance(desc, Needle):
        key = ("needle", word[k], p)
        if key not in cache:
            cache[key] = needle_kernel_planar(desc, p, grid)
        return cache[key]
    if isinstance(desc, InfinitePlate):
        key = ("wall",)
        if key not in cache:
            cache[key] = infinite_plate_rl(grid)
        return cache[key]
    if isinstance(desc, HalfPlate):
        chan = _resolve_channel(scene, k, word)
        key = ("hp", word[k], chan)
        if key not in cache:
            cache[key] = halfplate_kernel(scene.bc, chan, obj.pose.tilt,
                                          grid)
        return cache[key]
    raise ValidationError(f"no kernel for descriptor {type(desc).__name__}")


def _u_slots(word):
    """Ordered (to, from) pairs as they appear left-to-right in the chain
    U_{i1,iN} T_{iN} U_{iN,iN-1} ... U_{i2,i1} T_{i1}."""
    n = len(word)
    return [(word[(k - 1) % n], word[k]) for k in range(n)]


def _chain_trace(scene: Scene, word, grid: QuadratureGrid, p: float,
                 cache: dict, deriv_factors=None) -> complex:
    """Trace of the diagram chain at radial frequency p.

    deriv_factors: optional {slot_index: diagonal factor array} inserted
    into the corresponding U (for analytic derivatives).
    """
    a = grid.alpha_nodes
    cosh_a, sinh_a = np.cosh(a), np.sinh(a)
    slots = _u_slots(word)
    n = len(word)
    # chain reads U_slot[0] T_{word[0]} U_slot[1] T_{word[1]} ...
    acc = None
    for k in range(n):
        to, frm = slots[k]
        u = translation_diagonal(scene.object_index(to).pose,
                                 scene.object_index(frm).pose, p,
                                 cosh_a, sinh_a)
        if deriv_factors and k in deriv_factors:
            u = u * deriv_factors[k]
        t = _t_hat(scene, k, word, grid, p, cache)
        block = u[:, None] * t
        acc = block if acc is None else acc @ block
    return complex(np.trace(acc))


def _u_param_derivative(scene: Scene, word, grid: QuadratureGrid, p: float,
                        moving: int, direction) -> dict:
    """Per-slot d(exponent)/ds factors for moving one object.

    direction is a unit 2-vector; the factor for slot (to, from) is
    -p [ (d delta_par/ds) cosh(alpha) + i (d delta_perp/ds) sinh(alpha) ].
    """
    a = grid.alpha_nodes
    cosh_a, sinh_a = np.cosh(a), np.sinh(a)
    ux, uy = direction
    out = {}
    for k, (to, frm) in enumerate(_u_slots(word)):
        if moving not in (to, frm):
            continue
        sx = math.copysign(1.0, scene.object_index(to).pose.origin[0]
                           - scene.object_index(frm).pose.origin[0])
        sgn = 1.0 if to == moving else -1.0  # d(pos_to - pos_from)/ds
        ddpar = sx * sgn * ux
        ddperp = sgn * uy
        if ddpar == 0.0 and ddperp == 0.0:
            continue
        out[k] = -p * (ddpar * cosh_a + 1j * ddperp * sinh_a)
    return out


def diagram_energy(scene: Scene, diagram: Diagram,
                   grid: QuadratureGrid) -> float:
    """Energy of one diagram: -S * C * int dr Re tr(chain)."""
    for i in diagram.word:
        if not 1 <= i <= scene.M:
            raise ValidationError(
                f"diagram {diagram} references object {i} outside the scene"
            )
    if grid.n_p == 0:
        raise ValidationError("grid has no radial nodes")
    cache: dict = {}
    acc = 0.0
    for p, wp in zip(grid.p_nodes, grid.p_weights):
        acc += wp * _chain_trace(scene, diagram.word, grid, p, cache).real
    S = float(diagram.symmetry_factor)
    return -S * _radial_prefactor(scene.mode) * HBAR_C * acc


def reflection_series(scene: Scene, N_max: int,
                      grid: QuadratureGrid) -> EnergyBreakdown:
    """All diagrams to order N_max, with by-order partial sums."""
    if N_max < 2:
        raise ValidationError("N_max must be >= 2")
    per_diagram = {}
    by_order: dict = {}
    for diag in enumerate_diagrams(scene.M, N_max):
        e = diagram_energy(scene, diag, grid)
        per_diagram[word_to_str(diag.word)] = e
        by_order[diag.order] = by_order.get(diag.order, 0.0) + e
    total = sum(per_diagram.values())
    last = by_order[max(by_order)] if by_order else 0.0
    return EnergyBreakdown(
        per_diagram=per_diagram,
        by_order=by_order,
        total=total,
        truncation_estimate=abs(last),
        grid_meta={"n_alpha": grid.n_alpha, "n_p": grid.n_p,
                   "epsilon": grid.epsilon, "mode": scene.mode},
    )


def _series_force_analytic(scene, diagrams, grid, moving, direction):
    pref = _radial_prefactor(scene.mode)
    total = 0.0
    for diag in diagrams:
        cache: dict = {}
        S = float(diag.symmetry_factor)
        acc = 0.0
        for p, wp in zip(grid.p_nodes, grid.p_weights):
            dfs = _u_param_derivative(scene, diag.word, grid, p,
                                      moving, direction)
            for k, g in dfs.items():
                acc += wp * _chain_trace(
                    scene, diag.word, grid, p, cache, {k: g}
                ).real
        # F = -dE/ds and E = -S*pref*int Re tr, so F = +S*pref*int Re tr'
        total += S * pref * acc
    return total


def _moved_scene(scene: Scene, moving: int, direction, h: float) -> Scene:
    objs = list(scene.objects)
    obj = objs[moving - 1]
    x, y = obj.pose.origin
    ux, uy = direction
    new_pose = FramePose((x + h * ux, y + h * uy), obj.pose.tilt)
    objs[moving - 1] = SceneObject(obj.descriptor, new_pose,
                                   obj.plane_normal)
    return Scene(tuple(objs), scene.bc, scene.mode)


def force(scene: Scene, moving_object: int, direction, *,
          grid: QuadratureGrid, N_max: int = 2,
          diagrams=None) -> ForceResult:
    """Force on ``moving_object`` along ``direction`` (unit 2-vector):
    F = -dE/ds, E summed over the given diagrams (default: all to N_max).

    The value inserts -d(exponent)/ds factors into the U symbols.  A
    central difference, displacing the object by h = 1e-3 * gap_min,
    cross-checks it; cross_check_delta is their relative difference.
    """
    if diagrams is None:
        diagrams = enumerate_diagrams(scene.M, N_max)
    analytic = _series_force_analytic(scene, diagrams, grid,
                                      moving_object, direction)
    h = 1e-3 * min_gap(scene)
    if h <= 0:
        raise ValidationError("finite-difference step underflow")
    ep = sum(diagram_energy(_moved_scene(scene, moving_object, direction, h),
                            d, grid) for d in diagrams)
    em = sum(diagram_energy(_moved_scene(scene, moving_object, direction, -h),
                            d, grid) for d in diagrams)
    fd = -(ep - em) / (2.0 * h)
    scale = max(abs(analytic), abs(fd), 1e-300)
    delta = abs(analytic - fd) / scale
    return ForceResult(value=analytic, cross_check_delta=delta)


def interaction_I12(scene: Scene, *, grid: QuadratureGrid,
                    diagrams=None, N_max: int = 4) -> float:
    """I12 = d(F_1)/d(d2) = -d^2 E / d(d1) d(d2) by nested analytic
    derivatives.

    Convention: objects 1 and 2 face each other across the decay axis;
    increasing d1 moves object 1 away along -x, increasing d2 moves
    object 2 away along +x.  Only diagrams containing both 1 and 2
    contribute.
    """
    if diagrams is None:
        diagrams = [d for d in enumerate_diagrams(scene.M, N_max)
                    if 1 in d.word and 2 in d.word]
    pref = _radial_prefactor(scene.mode)
    dir1 = (-1.0, 0.0)  # d/d(d1): object 1 moves along -x
    dir2 = (+1.0, 0.0)  # d/d(d2): object 2 moves along +x
    total = 0.0
    for diag in diagrams:
        cache: dict = {}
        S = float(diag.symmetry_factor)
        acc = 0.0
        for p, wp in zip(grid.p_nodes, grid.p_weights):
            g1 = _u_param_derivative(scene, diag.word, grid, p, 1, dir1)
            g2 = _u_param_derivative(scene, diag.word, grid, p, 2, dir2)
            for k1, f1 in g1.items():
                for k2, f2 in g2.items():
                    ins = {k1: f1}
                    ins[k2] = ins.get(k2, 1.0) * f2
                    acc += wp * _chain_trace(
                        scene, diag.word, grid, p, cache, ins
                    ).real
        # I12 = -d2 d1 E = +S*pref*int Re (second derivative of tr)
        total += S * pref * acc
    return total


def parallel_plates_energy_quadrature(d: float, bc, D_dim: int,
                                      grid: QuadratureGrid,
                                      N_max: int | None = None) -> float:
    """Parallel perfect plates by assembly-style quadrature on diagonal
    kernels.

    Translation invariance makes the kernels diagonal symbols in k_x;
    the trace per unit transverse width carries the Jacobian
    dk_x/(2 pi) = p cosh(alpha) d(alpha)/(2 pi).

    D_dim=2: two lines in a 2D world, energy per unit line length
    (grid radial part must realize int dkappa).
    D_dim=3: two plates in 3D, energy per unit area (grid radial part
    must realize int p dp).
    """
    if d <= 0:
        raise ValidationError("separation must be positive")
    if D_dim not in (2, 3):
        raise ValidationError("D_dim must be 2 or 3")
    # T1*T2 = (+-1)^2 = 1 for matching scalar plates: every scalar
    # channel of bc contributes the same energy
    n_scalars = len(BoundaryCondition.parse(bc).scalars)
    a = grid.alpha_nodes
    wa = grid.alpha_weights
    cosh_a = np.cosh(a)
    pref = _radial_prefactor("edge" if D_dim == 3 else "pure2d")
    acc = 0.0
    for p, wp in zip(grid.p_nodes, grid.p_weights):
        x = np.exp(-2.0 * p * d * cosh_a)
        if N_max is None:
            g = -np.log1p(-x)
        else:
            g = sum(x ** n / n for n in range(1, N_max + 1))
        acc += wp * float(np.sum(wa * p * cosh_a * g))
    return -pref * HBAR_C * acc * n_scalars
