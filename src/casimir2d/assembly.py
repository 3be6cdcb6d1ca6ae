"""Diagram-chain evaluation: energies, reflection series, forces.

A scene is a list of scatterers with poses in a global frame whose x
axis is the decay axis.  For a diagram word [i_N ... i_1] the energy is

    E = -S * C * int dr Re tr( U_{i1,iN} T_{iN} ... U_{i2,i1} T_{i1} )

where the radial integral and constant C depend on the scene mode:

* mode "edge"   (2.5D, energy per unit edge length):
      C = 1/(4 pi), dr = p dp  (folded (kappa, k_z) half-plane)
* mode "pure2d" (2D world, absolute energy):
      C = 1/(2 pi), dr = dkappa

Each diagram's value is Re tr.  In the continuum, mirror-partner
diagrams (a word and its reverse) have complex-conjugate traces, so
summing both members of a pair gives their joint, real contribution.
On the quadrature grid the partners agree only in the continuum limit:
in the three_halfplates Neumann scene at h = 0.37, the forces on object
2 along +y from [123] and [132] differ by 3.5e-3 relative at 48x16,
1.2e-3 at 96x40 and 4.4e-4 at 192x64, while each matches its own
central difference.  So every diagram is evaluated on its own; one
partner's value never stands in for the other's.

Every T kernel is the weighted matrix K * diag(w) the scattering
builders return, so operator products are plain matrix products and
operator traces plain matrix traces; each translation U is a diagonal
symbol scaling the rows of the T matrix it precedes.

Forces and I12 are one or two diagonal insertions of d(U exponent)/ds
into the same cyclic product.  One engine (``_plan``, ``_closed_trace``,
``_integrate``) serves the energy, the force and I12: it cuts the cycle
into two arcs at the insertion slots and closes every trace, with or
without insertions, as an O(n_alpha^2) contraction of the two arcs
instead of re-multiplying the chain per insertion slot.  Each arc is
built once per radial node, by prepending blocks to its longest stored
suffix, arc(a, L) = diag(u_a) T_a[W_a, W_{a+1}] arc(a+1, L-1), so the
kernel is always the left factor.

One pass evaluates several queries, each a tuple of (object, direction)
moves: () for the energy, one move for a force, two for I12.  The
queries share one link table and, per diagram and node, one arc memo;
an energy needs no insertion, so it closes on an existing cut of the
other queries and makes a cut of its own only for a diagram that has
none.  A needle curve gets its energies and forces from one pass
(``_energies_and_forces``); ``diagram_energies``, ``diagram_forces``
and ``diagram_I12`` are one-query passes.

Real arithmetic wherever the data are real: a kernel whose imaginary
part is exactly zero (a tilt-0 half-plate, D or N, LL or RL, and the
wall) is cached as float64, and a translation between objects at one
height (Delta_perp = 0) has a real exponent g.  So, for each prepended
block,

* a real T times a real right factor is one real product (dgemm);
* a real T times a complex right factor Z is one real product on Z's
  float view, (T @ Z.view(float64)).view(complex128), with no copy;
* a complex T (tilted and vertical plates, a needle with complex
  multipoles) is a complex product.

In the scenes of the edge applications most plates are horizontal, so
whole arcs between them stay real.

Workspace: the chain loop allocates nothing large.  Each pass owns one
``_Workspace``: a free list of flat float64 buffers of 2 n_alpha^2
entries, so that any arc fits as a complex matrix, and two scratch
buffers, one for the scaled right factor u[:, None] * A and one for the
closing X * Y^T.  Every scaling, product and closing writes into a view
of these (``np.multiply``/``np.matmul`` with ``out=``); an arc takes a
buffer when it is built and gives it back when its cut's drop list
releases it, so the list grows only to the most arcs alive at once.
Blocks stay views of the cached T.  Fresh arrays of this size come
from the allocator and are faulted in anew on each sweep thread: with
them a 2-point ``blocking`` I12 curve at 128x48 takes about 90,000
minor page faults, with the workspace under 1,000.  The arithmetic is
that of the allocating forms (the same gemm per product, the same
elementwise loops), so the values are bit for bit the same.

Link table: block B_k = diag(U_k) T_k depends only on the directed
triple (word[k-1], word[k], word[k+1]) ("a wave from word[k+1] reflects
off word[k] towards word[k-1]"; ``_triples``), so ``_link_table`` holds
one link per triple for every diagram, built once per engine call.  No
kernel depends on p: a needle's T is p^2 times its unit kernel (p = 1),
so link (T, m) stands for p^m T.  U = exp(-p g) with the translation
exponent g = Delta_par cosh(alpha) + i Delta_perp sinh(alpha), which the
table also keeps.  |U(alpha)| = e^{-p Delta_par cosh(alpha)}, so at a
radial node p most rows of a block are far below double precision: each
link keeps, per node, only the contiguous index range W of rapidities
whose row bound

    r(alpha) = |U(alpha)| max_beta |T(alpha, beta)| (1 + p cosh alpha)^2

is at least WINDOW_EPS = 1e-18 times its largest (the squared factor
covers two derivative insertions; p^m scales a whole row and so moves
no window).  The table computes the windows of all radial nodes in one
pass; at node p, ``_links`` turns link k into the rectangular
(p^m exp(-p g_k[W_k]), T_k[W_k, W_{k+1}]).  At the lowest radial nodes
the windows span (nearly) the whole grid.  The kernel row bounds are
cached beside the kernels.
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
from .translation import FramePose, translation_exponent

__all__ = [
    "SceneObject",
    "Scene",
    "EnergyBreakdown",
    "ForceResult",
    "diagram_energy",
    "diagram_energies",
    "diagram_forces",
    "diagram_I12",
    "reflection_series",
    "force",
    "parallel_plates_energy_quadrature",
]

HBAR_C = 1.0  # natural units; outputs are in powers of hbar*c
# Relative cut-off of the rapidity windows (see _link_table)
WINDOW_EPS = 1e-18


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
    """Analytic force and its relative difference from the central
    difference of the energies."""

    value: float
    cross_check_delta: float


def _radial_prefactor(mode: str) -> float:
    return 1.0 / (4.0 * math.pi) if mode == "edge" else 1.0 / (2.0 * math.pi)


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


def _resolve_channel(scene: Scene, triple) -> Channel:
    """Channel of the reflection off ``at`` in the triple (to, at, frm):
    RL iff frm and to lie on opposite sides of the object's line."""
    to, at, frm = triple
    obj = scene.object_index(at)
    if obj.plane_normal is None:
        return Channel.LL
    s1 = _side(obj, scene.object_index(frm))
    s2 = _side(obj, scene.object_index(to))
    return Channel.RL if s1 * s2 < 0 else Channel.LL


def _with_row_bound(t: np.ndarray, m: int = 0) -> tuple:
    """(T, ln rho, m) with rho(alpha) = max_beta |T(alpha, beta)| the row
    bound the rapidity windows use (-inf on a zero row) and m the power
    of p that scales T.  A T whose imaginary part is exactly zero (a
    tilt-0 half-plate, the wall) is returned as float64, so that every
    product it is the left factor of runs in real arithmetic."""
    if not t.imag.any():
        t = np.ascontiguousarray(t.real)
    with np.errstate(divide="ignore"):
        return t, np.log(np.abs(t).max(axis=1)), m


def _t_hat(scene: Scene, triple, grid: QuadratureGrid, cache: dict) -> tuple:
    """Weighted T matrix of the reflection in ``triple``, its log row
    bound and its frequency power m (see ``_with_row_bound``), memoized
    together in ``cache``: the kernel at radial frequency p is p^m T.

    Kernels do not depend on p, so one link table per engine call serves
    every radial node: plates have m = 0, and a needle is p^2 times its
    unit kernel (``needle_T_multipole`` is p^2 times its value at p = 1).
    Keys hold object indices, so a cache belongs to one scene.
    """
    at = triple[1]
    obj = scene.object_index(at)
    desc = obj.descriptor
    if isinstance(desc, Needle):
        key = ("needle", at)
        if key not in cache:
            cache[key] = _with_row_bound(
                needle_kernel_planar(desc, 1.0, grid), 2)
        return cache[key]
    if isinstance(desc, InfinitePlate):
        key = ("wall",)
        if key not in cache:
            cache[key] = _with_row_bound(infinite_plate_rl(grid))
        return cache[key]
    if isinstance(desc, HalfPlate):
        chan = _resolve_channel(scene, triple)
        if scene.bc is BoundaryCondition.DIRICHLET:
            chan = Channel.LL  # Dirichlet RL = +LL: one matrix for both
        key = ("hp", at, chan)
        if key not in cache:
            cache[key] = _with_row_bound(halfplate_kernel(
                scene.bc, chan, obj.pose.tilt, grid))
        return cache[key]
    raise ValidationError(f"no kernel for descriptor {type(desc).__name__}")


def _triples(word) -> list:
    """Directed triple (to, at, frm) = (word[k-1], word[k], word[k+1]) of
    each slot k: block B_k = diag(U_{to<-at}) T_at^{chan(frm->at->to)}
    of the chain U_{i1,iN} T_{iN} U_{iN,iN-1} ... U_{i2,i1} T_{i1}."""
    n = len(word)
    return [(word[k - 1], word[k], word[(k + 1) % n]) for k in range(n)]


def _insertion_slots(scene: Scene, word, moving: int, direction) -> dict:
    """Slots whose U moves with one object: slot -> (d delta_par/ds,
    d delta_perp/ds) along the unit 2-vector ``direction``.

    At radial frequency p the slot's U gains the diagonal factor
    -p [ (d delta_par/ds) cosh(alpha) + i (d delta_perp/ds) sinh(alpha) ].
    """
    ux, uy = direction
    out = {}
    for k, (to, frm, _) in enumerate(_triples(word)):
        if moving not in (to, frm):
            continue
        sx = math.copysign(1.0, scene.object_index(to).pose.origin[0]
                           - scene.object_index(frm).pose.origin[0])
        sgn = 1.0 if to == moving else -1.0  # d(pos_to - pos_from)/ds
        ddpar = sx * sgn * ux
        ddperp = sgn * uy
        if ddpar == 0.0 and ddperp == 0.0:
            continue
        out[k] = (ddpar, ddperp)
    return out


def _plan(word, queries) -> tuple:
    """Cuts that close the cyclic product C = B_0 B_1 ... B_{n-1} of one
    diagram word for every placement of the derivative insertions of
    every query.

    ``queries`` holds, per query, one set of slots per insertion: none
    for the energy tr C, one for a force, two for I12.  An insertion at
    slot k multiplies B_k = diag(U_k) T_k from the left by a diagonal
    factor.

    An arc (a, L) is the segment product B_a ... B_{a+L-1}, indices mod
    n.  A cut (a, b), a < b, splits the cycle into the arcs X = (a, b-a)
    and Y = (b, n-b+a) and closes, for diagonal factors f_a at slot a
    and f_b at slot b,

        tr(diag(f_a) X diag(f_b) Y) = f_a . (X * Y^T) f_b

    in O(n_alpha^2).  Each placement at two distinct slots needs its own
    cut; every placement at one slot rides on a cut through its slot, a
    new one splitting the cycle in half when none exists.  A query
    without insertions (f_a = f_b = 1) rides on the first cut of the
    others and makes the cut (0, n // 2) only when there is none.

    ``_closed_trace`` builds an arc by prepending blocks to its longest
    stored suffix, so it keys arcs by their last slot: (end, length) for
    the arc B_{end-length+1} ... B_end.  A word that repeats with period
    d has B_{k+d} = B_k (each block depends only on its letter and
    neighbours), so the key is (end mod d, length).

    Returns (d, cuts), each cut (a, b, terms, drop): terms lists
    (q, factors at a, factors at b), q the query and the factors tuples
    of its insertion indices, () meaning 1; drop lists the stored arcs no
    later cut reads.
    """
    n = len(word)
    period = next(d for d in range(1, n + 1)
                  if word[d:] + word[:d] == tuple(word))
    m = n // 2
    cuts: dict = {}
    single = []
    plain = []
    for q, slot_sets in enumerate(queries):
        if len(slot_sets) == 2:
            first, second = slot_sets
            for k1 in sorted(first):
                for k2 in sorted(second):
                    if k1 == k2:
                        single.append((k1, q, (0, 1)))
                    elif k1 < k2:
                        cuts.setdefault((k1, k2), []).append((q, (0,), (1,)))
                    else:
                        cuts.setdefault((k2, k1), []).append((q, (1,), (0,)))
        elif slot_sets:
            single += [(k, q, (0,)) for k in sorted(slot_sets[0])]
        else:
            plain.append(q)
    for i, (k, q, f) in enumerate(single):
        cut = next((c for c in cuts if k in c), None)
        if cut is None:
            # pair with the uncovered slot farthest round the cycle, so
            # that one cut closes both and its arcs are about n/2 long
            rest = {j for j, _, _ in single[i + 1:]} - {k} - {
                j for c in cuts for j in c}
            other = min(rest, key=lambda j: (abs((j - k) % n - m), j),
                        default=(k + m) % n)
            cut = (min(k, other), max(k, other))
            cuts[cut] = []
        cuts[cut].append((q, f, ()) if k == cut[0] else (q, (), f))
    for q in plain:
        cuts.setdefault(next(iter(cuts), (0, m)), []).append((q, (), ()))

    # last cut to read each stored arc: a cut reads its two arcs and
    # their suffixes down to the longest one stored
    last: dict = {}
    for i, (a, b) in enumerate(cuts):
        for end, length in (((b - 1) % period, b - a),
                            ((a - 1) % period, n - b + a)):
            for ln in range(length, 1, -1):
                stored = (end, ln) in last
                last[end, ln] = i
                if stored:
                    break
    return period, [(a, b, terms, [arc for arc, j in last.items() if j == i])
                    for i, ((a, b), terms) in enumerate(cuts.items())]


def _link_table(scene: Scene, words, grid: QuadratureGrid, p_nodes,
                cache: dict) -> list:
    """Link table of one engine call: (triple, T, m, g, windows) for
    every triple of ``words``, with T and m from ``_t_hat``, g the
    translation exponent of the slot's U and windows[i] the rapidity
    window W of diag(U) T at radial node p_nodes[i] (see the module
    docstring).

    The row bounds of all nodes come from one (n_p, n_alpha) array.  They
    are taken in logs, so a window never comes out empty through
    underflow; on an all-zero T it is the whole grid.
    """
    a = grid.alpha_nodes
    cosh_a, sinh_a = np.cosh(a), np.sinh(a)
    p = np.asarray(p_nodes, dtype=float)[:, None]
    floor = math.log(WINDOW_EPS)
    lift = 2.0 * np.log1p(p * cosh_a)
    table = []
    for triple in dict.fromkeys(tr for word in words
                                for tr in _triples(word)):
        t, log_rho, m = _t_hat(scene, triple, grid, cache)
        to, at = (scene.object_index(i).pose for i in triple[:2])
        g = translation_exponent(to, at, cosh_a, sinh_a)
        log_r = log_rho - p * abs(to.origin[0] - at.origin[0]) * cosh_a + lift
        keep = log_r >= log_r.max(axis=1, keepdims=True) + floor
        first = keep.argmax(axis=1).tolist()
        stop = (keep.shape[1] - keep[:, ::-1].argmax(axis=1)).tolist()
        table.append((triple, t, m, g, [slice(lo, hi)
                                        for lo, hi in zip(first, stop)]))
    return table


def _links(table, i: int, p: float) -> dict:
    """Links at radial node i of ``table``, whose frequency is p:
    triple -> (U[W], T, W) with U[W] = p^m exp(-p g[W])."""
    out = {}
    for triple, t, m, g, windows in table:
        w = windows[i]
        u = np.exp(-p * g[w])
        out[triple] = (u * p ** m if m else u, t, w)
    return out


class _Workspace:
    """Buffers of one engine pass, so that the chain loop allocates
    nothing large: ``free`` lists flat float64 buffers of 2 n_alpha^2
    entries, each big enough for any arc as a complex matrix; ``z`` and
    ``core`` are the scratch of the scaled right factor and of the
    closing.  ``created`` counts the buffers made, the two scratch ones
    included: the free list grows only to the largest number of arcs
    alive at once."""

    def __init__(self, n_alpha: int):
        self.size = 2 * n_alpha * n_alpha
        self.free = []
        self.z = np.empty(self.size)
        self.core = np.empty(self.size)
        self.created = 2

    def new(self) -> np.ndarray:
        self.created += 1
        return np.empty(self.size)


_F64 = np.dtype(np.float64)
_C128 = np.dtype(np.complex128)


def _closed_trace(triples, plan, links, factors, ws: _Workspace) -> list:
    """Sum of the traces ``plan`` closes over the ``links`` table, one
    per query, for the diagram whose slots have the directed ``triples``
    (``_triples``).

    ``factors[q][j]`` maps each slot of insertion j of query q to its
    diagonal factor.
    Slot k is (U_k[W_k], T_k[W_k, W_{k+1}]), a view of the cached T,
    since block k's columns are block k+1's rows.  An arc is held as
    (u, A), meaning diag(u) A, and is built by prepending a block,
    diag(u1) A1 diag(u2) A2 = diag(u1) [A1 @ (u2[:, None] * A2)], so the
    kernel A1 is always the left factor: a real A1 times a complex
    right factor is one real product on that factor's float view.  The
    memo keys arcs by (end mod period, length); its blocks are the arcs
    (k, 1).

    Every product, scaling and closing is written into the workspace
    ``ws``: the right factor into ``ws.z``, the closing into
    ``ws.core`` and each product arc into a buffer of ``ws.free``, which
    the arc gives back when its cut's drop list releases it.  The plan
    drops every arc by its last cut, so the free list holds all the
    buffers again when the trace returns.
    """
    period, cuts = plan
    n = len(triples)
    slots = [links[tr] for tr in triples]
    win = [w for _, _, w in slots]
    memo = {(k, 1): (u, t[w, nxt]) for k, ((u, t, w), nxt)
            in enumerate(zip(slots, win[1:] + win[:1]))}
    free, zbuf = ws.free, ws.z
    totals = [0j] * len(factors)
    for a, b, terms, drop in cuts:
        ends = []
        for end, length in (((b - 1) % period, b - a),
                            ((a - 1) % period, n - b + a)):
            have = length
            while (end, have) not in memo:
                have -= 1
            u, arc = memo[end, have]
            for ln in range(have + 1, length + 1):
                un, t = memo[(end - ln + 1) % n, 1]
                shape = (t.shape[0], arc.shape[1])
                buf = free.pop() if free else ws.new()
                real = t.dtype.kind == u.dtype.kind == arc.dtype.kind == "f"
                dtype = _F64 if real else _C128
                z = np.ndarray(arc.shape, dtype, zbuf)
                np.multiply(u[:, None], arc, out=z)
                arc = np.ndarray(shape, dtype, buf)
                if real or t.dtype.kind == "c":
                    np.matmul(t, z, out=arc)
                else:
                    np.matmul(t, z.view(_F64), out=arc.view(_F64))
                u = un
                memo[end, ln] = (u, arc)
            ends.append((u, arc))
        (ux, ax), (uy, ay) = ends
        core = np.ndarray(ax.shape, _F64 if ax.dtype.kind == ay.dtype.kind
                          == "f" else _C128, ws.core)
        np.multiply(ax, ay.T, out=core)
        for q, fa, fb in terms:
            left, right = ux, uy
            for j in fa:
                left = left * factors[q][j][a][win[a]]
            for j in fb:
                right = right * factors[q][j][b][win[b]]
            totals[q] += left @ core @ right
        for key in drop:
            free.append(memo.pop(key)[1].base)
    return totals


def _chain_trace(scene: Scene, word, grid: QuadratureGrid, p: float,
                 cache: dict) -> complex:
    """Trace of the diagram chain at radial frequency p, from a link
    table of that one node."""
    links = _links(_link_table(scene, [word], grid, [p], cache), 0, p)
    return complex(_closed_trace(_triples(word), _plan(word, [[]]), links,
                                 [[]], _Workspace(grid.n_alpha))[0])


def _integrate(scene: Scene, diagrams, grid: QuadratureGrid,
               queries) -> list:
    """int dr Re tr(chain) of each diagram for each query, one list per
    query, from one pass.  A query is a tuple of (object, direction)
    moves, each a derivative insertion summed over every slot it can
    take: () for the energy trace, one move for its first derivative,
    two for the mixed second derivative.

    One link table per pass serves every query, diagram and radial node:
    kernels independent of p (the needle as p^2 times its unit kernel),
    translation exponents and the windows of all nodes are computed
    once, leaving each node the exponentials p^m exp(-p g[W]), one
    -p * base per distinct insertion direction and the chain products,
    whose arcs every query of a diagram shares (``_plan``).
    """
    for diag in diagrams:
        for i in diag.word:
            if not 1 <= i <= scene.M:
                raise ValidationError(
                    f"diagram {diag} references object {i} outside the "
                    "scene")
    if grid.n_p == 0:
        raise ValidationError("grid has no radial nodes")
    a = grid.alpha_nodes
    cosh_a, sinh_a = np.cosh(a), np.sinh(a)
    jobs = []
    for diag in diagrams:
        slots = [[_insertion_slots(scene, diag.word, obj, d)
                  for obj, d in query] for query in queries]
        jobs.append((_triples(diag.word), slots, _plan(diag.word, slots)))
    words = [diag.word for diag, (_, _, (_, cuts)) in zip(diagrams, jobs)
             if cuts]
    table = _link_table(scene, words, grid, grid.p_nodes, {})
    ws = _Workspace(grid.n_alpha)
    # insertion factor -p * base, base = (d delta_par/ds) cosh(alpha)
    # + i (d delta_perp/ds) sinh(alpha), for each distinct direction
    bases = {d: d[0] * cosh_a + 1j * d[1] * sinh_a
             for _, slots, _ in jobs for qs in slots for s in qs
             for d in s.values()}
    acc = [[0.0] * len(jobs) for _ in queries]
    for node, (p, wp) in enumerate(zip(grid.p_nodes, grid.p_weights)):
        links = _links(table, node, p)
        scaled = {d: -p * base for d, base in bases.items()}
        for i, (triples, slots, plan) in enumerate(jobs):
            if not plan[1]:
                continue
            factors = [[{k: scaled[d] for k, d in s.items()} for s in qs]
                       for qs in slots]
            for q, total in enumerate(_closed_trace(triples, plan, links,
                                                    factors, ws)):
                acc[q][i] += wp * total.real
    return acc


def _energy_values(scene: Scene, diagrams, accs) -> list:
    """E = -S * C * int dr Re tr(chain) of each diagram."""
    pref = _radial_prefactor(scene.mode)
    return [-float(d.symmetry_factor) * pref * HBAR_C * acc
            for d, acc in zip(diagrams, accs)]


def _derivative_values(scene: Scene, diagrams, accs) -> list:
    """-dE/ds (a force) or -d^2E/ds1 ds2 (I12) of each diagram: E =
    -S * C * int Re tr, so each is +S * C * int Re tr'."""
    pref = _radial_prefactor(scene.mode)
    return [float(d.symmetry_factor) * pref * acc
            for d, acc in zip(diagrams, accs)]


def diagram_energies(scene: Scene, *, grid: QuadratureGrid,
                     diagrams) -> list:
    """Energy of each diagram, -S * C * int dr Re tr(chain), from one
    engine pass (one kernel cache for all of them)."""
    return _energy_values(scene, diagrams,
                          _integrate(scene, diagrams, grid, [()])[0])


def _energies_and_forces(scene: Scene, moving: int, direction,
                         grid: QuadratureGrid, diagrams) -> tuple:
    """(``diagram_energies``, ``diagram_forces``) of one scene from one
    engine pass: each energy closes on a cut of its diagram's force."""
    es, fs = _integrate(scene, diagrams, grid, [(), ((moving, direction),)])
    return (_energy_values(scene, diagrams, es),
            _derivative_values(scene, diagrams, fs))


def diagram_energy(scene: Scene, diagram: Diagram,
                   grid: QuadratureGrid) -> float:
    """Energy of one diagram: -S * C * int dr Re tr(chain)."""
    return diagram_energies(scene, grid=grid, diagrams=[diagram])[0]


def reflection_series(scene: Scene, N_max: int,
                      grid: QuadratureGrid) -> EnergyBreakdown:
    """All diagrams to order N_max, with by-order partial sums."""
    if N_max < 2:
        raise ValidationError("N_max must be >= 2")
    diagrams = enumerate_diagrams(scene.M, N_max)
    per_diagram = {}
    by_order: dict = {}
    for diag, e in zip(diagrams, diagram_energies(scene, grid=grid,
                                                  diagrams=diagrams)):
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


def diagram_forces(scene: Scene, moving_object: int, direction, *,
                   grid: QuadratureGrid, diagrams) -> list:
    """Analytic force of each diagram on ``moving_object`` along
    ``direction`` (unit 2-vector), F = -dE/ds, without a cross-check."""
    return _derivative_values(scene, diagrams, _integrate(
        scene, diagrams, grid, [((moving_object, direction),)])[0])


def _moved_scene(scene: Scene, moving: int, direction, h: float) -> Scene:
    objs = list(scene.objects)
    obj = objs[moving - 1]
    x, y = obj.pose.origin
    ux, uy = direction
    new_pose = FramePose((x + h * ux, y + h * uy), obj.pose.tilt)
    objs[moving - 1] = SceneObject(obj.descriptor, new_pose,
                                   obj.plane_normal)
    return Scene(tuple(objs), scene.bc, scene.mode)


def _central_differences(scene: Scene, moving_object: int, direction,
                         grid: QuadratureGrid, diagrams) -> list:
    """Force of each diagram as the central difference -dE/ds of its
    energies, from two ``diagram_energies`` calls on the scene with the
    object displaced by +-h, h = 1e-3 * gap_min."""
    h = 1e-3 * min_gap(scene)
    if h <= 0:
        raise ValidationError("finite-difference step underflow")
    ep, em = (diagram_energies(
        _moved_scene(scene, moving_object, direction, s), grid=grid,
        diagrams=diagrams) for s in (h, -h))
    return [-(a - b) / (2.0 * h) for a, b in zip(ep, em)]


def force(scene: Scene, moving_object: int, direction, *,
          grid: QuadratureGrid, N_max: int = 2,
          diagrams=None) -> ForceResult:
    """Force on ``moving_object`` along ``direction`` (unit 2-vector):
    F = -dE/ds, E summed over the given diagrams (default: all to N_max).

    The value is the sum of ``diagram_forces``.  The sum of the
    per-diagram central differences (``_central_differences``, the same
    ones the scenario runners pair with a curve's checked row) checks it;
    cross_check_delta is their relative difference.
    """
    if diagrams is None:
        diagrams = enumerate_diagrams(scene.M, N_max)
    analytic = sum(diagram_forces(scene, moving_object, direction,
                                  grid=grid, diagrams=diagrams))
    fd = sum(_central_differences(scene, moving_object, direction, grid,
                                  diagrams))
    delta = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-300)
    return ForceResult(value=analytic, cross_check_delta=delta)


def diagram_I12(scene: Scene, *, grid: QuadratureGrid, diagrams) -> list:
    """I12 = d(F_1)/d(d2) = -d^2 E / d(d1) d(d2) of each diagram, by
    nested analytic derivatives, from one engine call.

    Convention: objects 1 and 2 face each other across the decay axis;
    increasing d1 moves object 1 away along -x, increasing d2 moves
    object 2 away along +x.  Only diagrams containing both 1 and 2
    are nonzero.
    """
    dir1 = (-1.0, 0.0)  # d/d(d1): object 1 moves along -x
    dir2 = (+1.0, 0.0)  # d/d(d2): object 2 moves along +x
    return _derivative_values(scene, diagrams, _integrate(
        scene, diagrams, grid, [((1, dir1), (2, dir2))])[0])


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
