"""Diagram-chain evaluation: energies, reflection series, forces.

A scene is a list of scatterers with poses in a global frame whose x
axis is the decay axis.  For a diagram word [i_N ... i_1] the energy is

    E = -S * C * int dr Re tr( U_{i1,iN} T_{iN} ... U_{i2,i1} T_{i1} )

where the radial measure and constant C depend on the scene mode:

* mode "edge"   (2.5D, energy per unit edge length):
      C = 1/(4 pi), dr = p dp  (folded (kappa, k_z) half-plane)
* mode "pure2d" (2D world, absolute energy):
      C = 1/(2 pi), dr = dkappa

A grid's radial rule is the plain int dp (``quadrature``);
``_radial_measure`` is the one place that maps the mode to C and the
Jacobian (p or 1) the engine puts on the grid's weights.

A scene takes any boundary condition: its values are sums of scalar
problems, ``Scene.scalars``.  In edge mode EM = D + N; in a 2D world EM
is the Neumann scalar alone; a scalar condition is itself.
``evaluate`` holds the rule: it runs one engine pass per scalar, on the
scene with that scalar as its bc, scales each pass's sums and adds them
in the order of ``scalars``.  Everything below it is scalar-only, and
``_edge_sign`` raises on an EM scene through ``bc.sign``.

Each diagram's value is Re tr.  The y -> -y mirror symmetry of the
scattering problem makes every kernel satisfy P T P = conj T, with P
the parity alpha -> -alpha, and every translation P U P = conj U, so
each trace is real, on the grid as in the continuum.  Mirror-partner
diagrams (a word and its reverse) agree only in the continuum limit:
in the three_halfplates Neumann scene at h = 0.37, the forces on object
2 along +y from [123] and [132] differ by 3.5e-3 relative at 48x16,
1.2e-3 at 96x40 and 4.4e-4 at 192x64, while each matches its own
central difference.  So every diagram is evaluated on its own; one
partner's value never stands in for the other's.

Every T kernel is the weighted matrix K * diag(w) the scattering
builders return, so operator products are plain matrix products and
operator traces plain matrix traces; each translation U is a diagonal
symbol scaling the rows of the T matrix it precedes.

Height phases on the kernels: U_{to<-at} = R Phi(y_to) Phi(y_at)^-1,
with the real, even decay R = exp(-p |Delta x| cosh alpha) and the
phase Phi(y) = diag(exp(-i p y sinh alpha)) (see ``translation``).
Around the cycle each object's phases meet on both sides of its kernel:

    tr prod_k U_k T_k = tr prod_k R_k T~_k,
    T~(alpha, beta) = T(alpha, beta) e^{i p y (sinh alpha - sinh beta)},

with y the height of the kernel's object.  T~ keeps P T~ P = conj T~.
Only height differences enter U, so every y may be taken above a common
gauge height y0 (Phi(y0) commutes with R and cancels round the cycle).
``_gauge`` puts y0 at the height shared by the most distinct kernels,
so that the most images are static, with ties going to 0: in the
bundled scenes the gauge is y = 0.  In a batch (below) only the heights
that every scene of the batch shares are candidates, so for a batch of
one the rule is the same.

The even/odd pair basis: the engine keeps every kernel image, arc,
closing and the operator A in one real form.  The parity image T~' = Re
T~ - Im T~ P is real and similar to T~ through the unitary (1 +
iP)/sqrt(2), which commutes with the even R, so the chain of the R_k
T~'_k has the same trace.  The engine writes it in the orthonormal
basis of the pairs of the symmetric rapidity grid (h = n_alpha / 2):

* pair q = 0 .. h-1 holds the rapidities j = h-1-q and jb = h+q
  (alpha_jb = -alpha_j > 0), ordered centre-out;
* its even vector is (e_jb + e_j)/sqrt 2, its odd one (e_jb - e_j)/sqrt
  2; a matrix is a 2x2 array of parity blocks [[EE, EO], [OE, OO]],
  stored (2, 2, h, h), and a symmetric window [lo, n - lo) of the grid
  is the prefix q < h - lo of each parity half, so a block's window is
  the view [..., :m, :k];
* P = diag(1, -1), and every even diagonal (the decays R, the cosh
  insertions, the weights) acts as the same vector on both halves.

With X = T[j_q, j_q'] and Y = T[j_q, jb_q'] the pair image is [[Re(X +
Y), Im(Y - X)], [Im(X + Y), Re(X - Y)]] (``_pair_blocks``).  A real
kernel, P T P = T (the tilt-0 half-plates under D and N, and the wall),
has Im T = 0 and so exactly zero blocks EO and OE: it commutes with P,
and the engine keeps it block-diagonal, as the (2, h, h) stack of EE and
OO.  A product with one block-diagonal factor multiplies one block of
the other per block, two half-size products per parity row where the
dense form makes one full one: bd @ full and full @ bd cost half of
full @ full, and bd @ bd a quarter (``_product``).  Tilted, vertical
and off-gauge kernels keep all four blocks.  The pair image is the one
form a kernel is kept in: the cache holds (T', ln rho, m) per kernel
(``_t_hat``), T' as its factors for a needle (below), and the builder's
complex T is dropped once its symmetry and row bounds are taken; the
row bound of a pair is the larger of its two rapidities'.

A kernel at the gauge height is its own T~ at every p, so T' serves
every node; a kernel at another height gets its image at every radial
node, on the pairs its blocks read, from the phases C -+ S P on both
sides of T, C = cos(p y sinh alpha) and S = sin(p y sinh alpha).  S is
odd and C even, so in the pair basis they act per pair as the rotation
Rot = [[c, s], [-s, c]] (c, s at the pair's positive rapidity), and
T~' = Rot T' Rot^T: a scaling of the blocks and of their
parity-swapped copies, once on the rows and once on the columns
(``_Image``).  Kernels are cached by content (a half-plate by bc and
tilt, a needle by its descriptor, the wall once), and the kernels at
one height share one image per node.
A half-plate's RL kernel is -s times its LL kernel (s = -1 Dirichlet,
+1 Neumann), so the cache holds the LL kernel alone and the channel's
sign rides on the links' edge signs (below), next to p^m.
``_t_hat`` refuses a kernel that breaks the symmetry the images rely
on by more than 1e-12 of its largest entry (NumericalDomainError).

Forces and I12 differentiate the cyclic product along a move of one
object:

* a move along x changes the decay R of each slot whose translation
  ends on the object: a diagonal insertion -p cosh(alpha) d|Delta x|/ds,
  real and even, which the image takes unchanged;
* a move along y changes only the object's own T~ (d/dy T~ =
  i p (sinh alpha - sinh beta) T~): a kernel insertion, whose block is
  replaced by the image of that derivative, -p (dy/ds) G with the
  image gradient G = S P T~' + T~' P S, S = diag(sinh alpha)
  (``_gradient``).  In the pair basis S P = [[0, -s], [s, 0]] and P S
  its transpose, so G is T~' with its row parities swapped and scaled
  by (-s, s), plus the same on its columns: the gradient of a
  block-diagonal image has zero diagonal blocks.  The image of an
  object that moves along y keeps G beside it, built once per pass at
  height 0 and with the image at every node otherwise.

A force along a slanted direction is the sum of both parts.  I12 takes
two moves along x (``I12``); ``evaluate`` refuses a two-move query with
a y part.

Rank-space needle: a needle carries only the multipoles m in {-1, 0,
1}, so its image is the rank-3 product T' = E M E^T W
(``needle_image_factors``: E[j, k] = e^{m_k alpha_j}, M a real 3x3
core, W the alpha weights), which the engine never forms as an n_alpha
x n_alpha matrix.  E is kept in the pair basis, (2, h, 3), and a
height rotation turns it into L = Rot E, so the image at a node is the
pair (L M, L^T W) and its gradient a rank-6 pair built from it
(``_RankImage``): O(n_alpha) work per node where a dense rotation is
O(n_alpha^2).  A block of the needle is a factor pair, each factor with
the parity axis on its long side (left (2, n/2, r), right (2, r,
n/2)), and so is every arc that holds one: prepending a block to such
an arc, or the needle to a dense arc, is a thin product, (n x n)(n x r)
or (r x n)(n x n), summed over the parities it contracts
(``_prepend``), and only arcs of plates alone make n x n products.  A
closing tr(diag(l) X diag(r) Y) with X a pair (A, B) is the trace of
the r x r matrix (B diag(r) Y)(diag(l) A): one (r x n)(n x n) and one
(r x n)(n x r) product, through Y's factors where Y is a pair too
(``_rank_core``).  The gradient's pair
holds the image as its blocks, so an energy that closes on the cut of
a kernel insertion reads its trace off a corner of the insertion's
closing.  A needle at the gauge height is factored once per pass by the
arithmetic of a rotation by 0, which is exact, so a needle scene has
the same values alone and in a batch whichever heights the batch holds.
Plates stay dense: the vertical plate is full rank, and a rank-space
pass of plates ran at 0.63-1.40x the dense engine's speed.

One engine (``_plan``, ``_closed_trace``, ``_integrate``) serves the
energy, the force and I12: it cuts the cycle into two arcs at the
insertion slots (a kernel insertion at slot k on the cut (k, k+1)) and
closes every trace, with or without insertions, as an O(n_alpha^2)
contraction of the two arcs instead of re-multiplying the chain per
insertion slot.  With l and r the pair vectors of the diagonal factors
at the cut, tr(diag(l) X diag(r) Y) = l . C . r with the core C =
sum_{s,t} X[s, t] * Y[t, s]^T, an elementwise product of blocks summed
over the parities, two terms where X or Y is block-diagonal
(``_core``).  Each arc is built once per radial node, by prepending
blocks to its longest stored suffix, arc(a, L) = diag(u_a) T_a[W_a,
W_{a+1}] arc(a+1, L-1), so the kernel is always the left factor.

The engine has one entry, ``evaluate(scenes, diagrams, grid,
queries)``, which checks its input once and runs one pass per scalar.
One pass evaluates several queries, each a tuple of at most two
(object, direction) moves: () for the energy, one move for a force,
two for I12.  The queries share one link table and, per diagram and
node, one arc memo; an energy needs no insertion, so it closes on an
existing cut of the other queries and makes a cut of its own only for
a diagram that has none.  A needle curve gets its energies and forces
from one pass per batch of its points.  ``diagram_energy`` (one
diagram's energy) and ``reflection_series`` (every diagram to an order,
summed by order) are energy queries of one scene.

Workspace: the chain loop allocates nothing large.  Each pass owns one
``_Workspace``: a free list of flat float64 buffers of n_alpha^2
entries, one per arc alive (B n_alpha^2 for a stacked arc of a batch of
B scenes), and one scratch buffer of 5/2 B n_alpha^2 entries, in which
the per-node images rotate before the node's traces and whose halves
then hold the scaled right factor u[:, None] * A and the terms of a
closing, and its quarters the closing's core; a kernel insertion
closes into the first half, which no arc holds by then.  Every
scaling, product and closing of dense blocks writes into a view of
these (``np.multiply``/``np.matmul``/``np.add`` with ``out=``); an arc
takes a buffer when it is built and gives it back when its cut's drop
list releases it, so the list grows only to the most arcs alive at
once.
The factors of a rank-space arc or closing hold O(r n_alpha) entries
and are ordinary arrays.  Blocks are views of the cached images, and a
per-node image and its gradient are rebuilt in place in buffers of
their own.  The workspace counts the pass's n x n and thin products.
Fresh arrays of this size come from the allocator and are faulted in
anew on each sweep thread: with them a 2-point ``blocking`` I12 curve
at 128x48 takes about 90,000 minor page faults, with the workspace
under 1,000.

Closing memo: a two-slot diagram [ab] has the one cut (0, 1), whose
arcs are single blocks, so its core is the core of T'_a[W_a, W_b] and
T'_b[W_b, W_a], the view [W_a, W_b] of the core of the whole images.
When both images are static and dense (every order-2 diagram of plates
at the gauge height) the workspace keeps the full core, computed once
per pass (``_static_core``), and every node reads it through its
windows; the core is elementwise, so its entries are those of the
per-node closing.

Batches: one pass evaluates a batch of scenes that differ only in the
heights (y) of their objects, such as the points of an h sweep
(``_check_batch`` refuses any other difference: bc, mode, descriptor, x
position, tilt, plane normal, or an edge sign that a height flips).  The
decays, windows, kernels, plans and the images at one height are built
once for the batch.  Only the per-node images and gradients of the
objects whose height varies across the batch carry a leading batch
axis, and with them the arcs and closings that hold them: each such
product, scaling and closing is one numpy call for the whole batch, on
stacked workspace buffers.  Every stacked operation is elementwise or a
``np.matmul`` per slice, and a stacked closing contracts slice by slice,
so a scene's values in a batch are bit for bit its values alone
wherever the batch's gauge is the one the scene takes alone, as in
every bundled h sweep (gauge 0).  ``evaluate`` and ``_integrate`` take
the batch as a tuple of scenes; a single scene is a batch of one.

Edge signs: in a Neumann scene the reflection off y in the triple (to,
y, frm) has the sign sigma_y(to) sigma_y(frm), -1 exactly for RL, with
sigma_y(x) the side of y's line that object x lies on (1 without a
plane normal); under Dirichlet it is 1.  Round a closed walk these
signs regroup by edges: their product is that of the edge signs e_xy =
sigma_y(x) sigma_x(y) of the walk's steps (``_edge_sign``).  Each is an
exact +-1 factor, so a chain whose blocks carry the edge signs has,
bit for bit, the trace of one whose blocks carry the channel signs.
An object exactly on a plate's line (sigma = 0) has no such sign, and
``_edge_sign`` refuses it under either scalar.

Link table: block B_k = e diag(R_k) T~'_k depends only on the directed
pair (word[k-1], word[k]) ("a wave from word[k] arriving at
word[k-1]"; ``_pairs``), so ``_link_table`` holds one link per pair,
at most M (M - 1), built once per engine call.  No kernel T depends on
p (its image does off the gauge height): a needle's T is p^2 times its
unit kernel (p = 1), so link (T, e, m) stands for e p^m T.  R = exp(-p
g) with the decay exponent g = |Delta x| cosh(alpha), which the table
also keeps.  At a radial node p most rows of a block are far below
double precision: each link keeps, per node, only the index range W of
rapidities whose row bound

    r(alpha) = R(alpha) max_beta |T(alpha, beta)| (1 + p cosh alpha)^2

is at least WINDOW_EPS = 1e-18 times its largest (the squared factor
covers two derivative insertions and the kernel insertion's p sinh;
e p^m scales a whole row and so moves no window).  r is even in alpha,
so W is symmetric, [lo, n - lo), which P needs: the first and last
kept indices are symmetric in exact arithmetic, and lo is the smaller
of the two margins; in the pair basis W is the first h - lo pairs.
The table computes the windows of all radial nodes in one pass, on the
pairs; at node p, ``_links`` turns link k into the rectangular (e p^m
exp(-p g_k[W_k]), T~'_k[..., W_k, W_{k+1}]), one exponential per
link.  At the lowest radial nodes the windows span
(nearly) the whole grid.  The kernel row bounds are cached beside the
kernels.

Operator on object states (``_operator``): the links make one operator,
A[x, y] = e_xy p^m diag(exp(-p g_{x<-y})) T~'_y (A[x, x] = 0), whose
power traces are the chains: tr(A^k)/k is the sum of S tr(chain) over
the order-k diagrams, and C int dr ln det(1 - A) the all-orders energy.
``_operator`` is the link table over all ordered pairs with windows
spanning the whole grid, laid out as M x M blocks, each in the pair
basis with the even pairs first: A is orthogonally similar to the
operator of the parity images, so its traces and ln det are theirs.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagrams import Diagram, enumerate_diagrams, word_to_str
from .errors import GeometryError, NumericalDomainError, ValidationError
from .quadrature import QuadratureGrid, check_alpha_count
from .scattering import (
    BoundaryCondition,
    Channel,
    HalfPlate,
    InfinitePlate,
    Needle,
    _parity_defect,
    halfplate_kernel,
    infinite_plate_rl,
    needle_image_factors,
    needle_kernel_planar,
)
from .translation import FramePose, decay_exponent

__all__ = [
    "SceneObject",
    "Scene",
    "EnergyBreakdown",
    "evaluate",
    "I12",
    "diagram_energy",
    "reflection_series",
]

HBAR_C = 1.0  # natural units; outputs are in powers of hbar*c
# Relative cut-off of the rapidity windows (see _link_table)
WINDOW_EPS = 1e-18
# Largest parity_defect a kernel may have: the engine's images rely on
# P T P = conj T (see the module docstring)
PARITY_TOL = 1e-12


@dataclass(frozen=True)
class SceneObject:
    """A scatterer with its pose.

    ``plane_normal``, if set, defines the object's blocking line: a
    reflection off this object is RL when its neighbours sit on
    opposite sides of the line through the origin with this normal, LL
    otherwise, which the engine carries as edge signs (``_edge_sign``;
    an object on the line is refused).
    """

    descriptor: object
    pose: FramePose
    plane_normal: tuple | None = None


@dataclass(frozen=True)
class Scene:
    """Scatterers, a boundary condition and a radial mode.

    ``bc`` may be any boundary condition: every value of the scene is
    the sum over its ``scalars`` of the values of the scalar problems.
    ``mode`` alone sets the radial measure (``_radial_measure``).  A
    needle's kernel is the Neumann scalar's (2D EM), so a scene with a
    needle whose scalars hold D raises ValidationError.
    """

    objects: tuple
    bc: BoundaryCondition
    mode: str = "edge"  # "edge" (2.5D per length) or "pure2d"

    def __post_init__(self):
        if len(self.objects) < 2:
            raise ValidationError("a scene needs at least two objects")
        if self.mode not in ("edge", "pure2d"):
            raise ValidationError(f"unknown scene mode {self.mode!r}")
        seen = set()
        for obj in self.objects:
            key = obj.pose.origin
            if key in seen:
                raise GeometryError("two objects share an origin")
            seen.add(key)
        if BoundaryCondition.DIRICHLET in self.scalars and any(
                isinstance(obj.descriptor, Needle) for obj in self.objects):
            raise ValidationError(
                "a needle takes the Neumann scalar only: use bc = N, "
                "or EM in mode pure2d")

    @property
    def scalars(self) -> tuple:
        """Scalar conditions whose values the scene sums: edge EM is
        (D, N), pure-2D EM is (N,) (the 2D world's EM field reduces to
        the Neumann scalar), and a scalar condition is itself."""
        if self.mode == "pure2d" and self.bc is BoundaryCondition.EM2D:
            return (BoundaryCondition.NEUMANN,)
        return self.bc.scalars

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


def _radial_measure(mode: str, p: np.ndarray) -> tuple:
    """(C, Jacobian at the radial nodes ``p``) of a scene ``mode``: edge
    integrates 1/(4 pi) int p dp, pure2d 1/(2 pi) int dkappa."""
    if mode == "edge":
        return 1.0 / (4.0 * math.pi), p
    return 1.0 / (2.0 * math.pi), np.ones_like(p)


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


def _edge_sign(scene: Scene, x: int, y: int) -> int:
    """Sign e_xy = sigma_y(x) sigma_x(y) of the link (x, y), a wave from
    y arriving at x, in a Neumann scene, and 1 in a Dirichlet one, with
    sigma_y(x) the side of y's line that x lies on (1 for an object
    without a plane normal; see the module docstring).  The one reader
    of ``bc.sign``: an EM scene raises ValidationError, since the engine
    is scalar-only, and so does an object on the other's line (sigma =
    0), whose reflections have no sign per edge."""
    neumann = scene.bc.sign > 0
    sides = []
    for at, other in ((y, x), (x, y)):
        obj = scene.object_index(at)
        side = (1.0 if obj.plane_normal is None
                else _side(obj, scene.object_index(other)))
        if side == 0.0:
            raise ValidationError(
                f"object {other} lies on the line of object {at}: its "
                "channel sign is not a product of sides")
        sides.append(side > 0.0)
    return -1 if neumann and sides[0] != sides[1] else 1


def _kernel_key(scene: Scene, at: int) -> tuple:
    """Content key of the kernel of object ``at``: a half-plate by (bc,
    tilt), a needle by its descriptor, the wall by itself, so that
    objects with equal kernels share one cache entry.  A half-plate's
    kernel is its LL one; the sign of an RL reflection rides on the
    links' edge signs (``_edge_sign``)."""
    obj = scene.object_index(at)
    desc = obj.descriptor
    if isinstance(desc, Needle):
        return ("needle", desc)
    if isinstance(desc, InfinitePlate):
        return ("wall",)
    if isinstance(desc, HalfPlate):
        return ("hp", scene.bc, obj.pose.tilt)
    raise ValidationError(f"no kernel for descriptor {type(desc).__name__}")


def _check_batch(scenes) -> None:
    """Refuse a batch whose scenes differ in anything but the heights of
    their objects: bc, mode, descriptors, x positions, tilts and plane
    normals must agree (ValidationError)."""
    first = scenes[0]
    for scene in scenes[1:]:
        if (scene.bc, scene.mode, scene.M) != (first.bc, first.mode,
                                               first.M) or any(
                (a.descriptor, a.pose.origin[0], a.pose.tilt, a.plane_normal)
                != (b.descriptor, b.pose.origin[0], b.pose.tilt,
                    b.plane_normal)
                for a, b in zip(scene.objects, first.objects)):
            raise ValidationError(
                "the scenes of a batch may differ only in the heights of "
                "their objects")


def _heights(scenes, i: int) -> tuple:
    """Heights of object ``i`` (1-based) in the scenes of a batch."""
    return tuple(scene.object_index(i).pose.origin[1] for scene in scenes)


def _gauge(scenes, pairs) -> float:
    """Height of the phase gauge of a link table over the directed
    ``pairs`` for a batch of ``scenes``: among the heights every scene
    shares, the one shared by the most distinct kernels, whose images
    are then static (see the module docstring); 0 when it is among the
    tied, else the lowest of them, and 0 when no object keeps its height
    across the batch.  For a batch of one every height is shared."""
    counts = collections.Counter(ys[0] for _, ys in {
        (_kernel_key(scenes[0], at), _heights(scenes, at))
        for _, at in pairs} if len(set(ys)) == 1)
    return max(sorted(counts), key=lambda y: (counts[y], y == 0.0),
               default=0.0)


def _pair_blocks(t: np.ndarray) -> np.ndarray:
    """Pair image of a kernel T with P T P = conj T as its four parity
    blocks [[EE, EO], [OE, OO]], a (2, 2, h, h) float64 array, h =
    n_alpha / 2: the image Re T - Im T P in the even/odd pair basis (see
    the module docstring).  With X = T[j_q, j_q'] and Y = T[j_q, jb_q']
    the blocks are [[Re(X + Y), Im(Y - X)], [Im(X + Y), Re(X - Y)]]:
    only the rows of negative rapidity are read, and the parity blocks
    EO and OE are exactly 0 where Im T is."""
    h = t.shape[0] // 2
    re, im = t.real[h - 1::-1], t.imag[h - 1::-1]
    out = np.empty((2, 2, h, h))
    np.add(re[:, h - 1::-1], re[:, h:], out=out[0, 0])
    np.subtract(im[:, h:], im[:, h - 1::-1], out=out[0, 1])
    np.add(im[:, h - 1::-1], im[:, h:], out=out[1, 0])
    np.subtract(re[:, h - 1::-1], re[:, h:], out=out[1, 1])
    return out


def _pair_vectors(v: np.ndarray) -> np.ndarray:
    """Columns of an (n_alpha, r) matrix in the pair basis, times sqrt 2:
    (2, h, r), even v[jb] + v[j] and odd v[jb] - v[j]."""
    h = v.shape[0] // 2
    up, down = v[h:], v[h - 1::-1]
    return np.array([up + down, up - down])


def _expand(t) -> np.ndarray:
    """A pair block of any form as its four parity blocks (..., 2, 2, m,
    k): a block-diagonal block with zeros off the diagonal, a factor
    pair multiplied out."""
    if isinstance(t, tuple):
        return np.matmul(t[0][..., :, None, :, :], t[1][..., None, :, :, :])
    if t.ndim == 3:
        out = np.zeros((2,) + t.shape)
        out[0, 0], out[1, 1] = t
        return out
    return t


def _t_hat(key, grid: QuadratureGrid, cache: dict) -> tuple:
    """(T', ln rho, m) of the kernel with content key ``key``
    (``_kernel_key``), memoized in ``cache``: the pair image T' of the
    weighted T of its builder (``_pair_blocks``), its log row bound
    rho(q) = max_beta |T(alpha, beta)| over the two rapidities of pair q
    (-inf on a zero row) and the power m of p that scales it: the kernel
    at radial frequency p is p^m T.  The complex T lives only inside the
    build.

    A kernel whose parity blocks EO and OE are exactly 0 (a real one, P T
    P = T: the tilt-0 half-plates and the wall) is kept block-diagonal,
    as the (2, h, h) stack of EE and OO; any other as its (2, 2, h, h)
    blocks.  Kernels do not depend on p, so one link table per engine
    call serves every radial node: plates have m = 0, and a needle is p^2
    times its unit kernel (``needle_T_multipole`` is p^2 times its value
    at p = 1).  A needle's image is kept as its rank-3 factors (E, M, W),
    T' = E M E^T diag(W) with E (2, h, 3) (``needle_image_factors``)
    never as a dense matrix: E is sqrt 2 times its pair-basis form
    (``_pair_vectors``) and W half the weights of the pairs, so that
    the basis change scales by powers of 2 alone.  A kernel whose
    ``parity_defect`` exceeds PARITY_TOL raises NumericalDomainError: its
    image would not be similar to it.
    """
    if key not in cache:
        kind = key[0]
        if kind == "needle":
            t, m = needle_kernel_planar(key[1], 1.0, grid), 2
        elif kind == "wall":
            t, m = infinite_plate_rl(grid), 0
        else:
            t, m = halfplate_kernel(key[1], Channel.LL, key[2], grid), 0
        rho = np.abs(t).max(axis=1)
        defect = _parity_defect(t, float(rho.max()))
        if defect > PARITY_TOL:
            raise NumericalDomainError(
                f"kernel {key} breaks the mirror symmetry P T P = conj T "
                f"by {defect:.3e} of its largest entry (tolerance "
                f"{PARITY_TOL:.0e})")
        h = rho.size // 2
        if kind == "needle":
            e, core, w = needle_image_factors(key[1], 1.0, grid)
            image = (_pair_vectors(e), core, 0.5 * w[h:])
        else:
            image = _pair_blocks(t)
            if not (image[0, 1].any() or image[1, 0].any()):
                image = np.array([image[0, 0], image[1, 1]])
        with np.errstate(divide="ignore"):
            cache[key] = (image, np.log(np.maximum(rho[h:],
                                                   rho[h - 1::-1])), m)
    return cache[key]


def _gradient(image: np.ndarray, ts_rows: np.ndarray, ts_cols: np.ndarray,
              out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """G = S P T' + T' P S of a full pair block T' (parity blocks on axes
    -4 and -3) into ``out``, with ``scratch`` of the same shape: a parity
    swap scaled by sinh, G = tau s (P-swapped rows) + (P-swapped columns)
    tau s, where ``ts_rows`` and ``ts_cols`` are (-s, s) on the block's
    pairs, s = sinh; -p G is the image of d/dy T~ (see the module
    docstring).  A stacked block (a leading batch axis) gets G per
    scene."""
    np.multiply(ts_rows[:, None, :, None], image[..., ::-1, :, :, :], out=out)
    np.multiply(image[..., ::-1, :, :], ts_cols[:, None, :], out=scratch)
    return np.add(out, scratch, out=out)


class _Image:
    """Image T~' of one kernel at height y above the gauge, in the pair
    basis, the source of the blocks of every link with that kernel and
    height (see the module docstring), and, once ``need_gradient`` is
    called, its gradient G (``_gradient``) in ``grad``.

    ``y`` is one height, or, for an object whose height varies across
    the batch, a (B, 1) column of the heights of its B scenes: the image
    and its gradient are then stacked, with a leading batch axis.  At
    one y = 0 the image is ``static``: T~ = T at every p, ``at`` returns
    the kernel's cached pair image T' (block-diagonal for a real kernel)
    and G is computed once.  Otherwise ``at(i, p, scratch)`` builds T~'
    and G at radial node i, once per node, into (2, 2, h, h) buffers of
    their own, on the first ``rows[i]`` pairs of the rows and the first
    ``cols[i]`` of the columns, which the node's blocks read.  T~' is T'
    turned by the per-pair rotation

        T~' = Rot T' Rot^T,  Rot = [[c, s], [-s, c]],
        c = cos(p y sinh a), s = sin(p y sinh a),

    the image of the phases C -+ S P on both sides of T; on the rows, Rot
    T' = c T' + (s, -s) (T' with its row parities swapped), and the same
    on the columns.  A rotation by y = 0 is exact, so a stacked image
    holds, bit for bit, the image each of its scenes gets alone (with
    exact zeros where a real kernel's block-diagonal image has none).
    ``_link_table`` sets ``rows`` and ``cols``; the rotation runs in
    ``scratch``, a float64 buffer of at least 2 B n_alpha^2 entries that
    ``_links`` lends it (the pass's ``_Workspace.scratch``).  The rest of
    each buffer is stale.
    """

    def __init__(self, image: np.ndarray, y, sinh_p: np.ndarray,
                 n_p: int):
        self.image, self.y, self.sinh = image, y, sinh_p
        self.lead = np.shape(y)[:1]
        self.static = self.lead == () and y == 0.0
        # the four blocks the rotation and the gradient read
        self.src = None if self.static else _expand(image)
        self.tau_s = np.array([-sinh_p, sinh_p])
        self.shape = self.lead + (2, 2) + image.shape[-2:]
        self.out = image if self.static else np.empty(self.shape)
        self.grad = None
        self.node = None
        self.rows = np.zeros(n_p, dtype=int)
        self.cols = self.rows.copy()

    def need_gradient(self) -> None:
        if self.grad is not None:
            return
        self.grad = np.empty(self.shape)
        if self.static:
            _gradient(_expand(self.image), self.tau_s, self.tau_s,
                      self.grad, np.empty(self.shape))

    def at(self, i: int, p: float, scratch: np.ndarray) -> np.ndarray:
        if self.static or self.node == i:
            return self.out
        m, k = int(self.rows[i]), int(self.cols[i])
        theta = p * self.y * self.sinh[:max(m, k)]
        c, s = np.cos(theta), np.sin(theta)
        cs = np.stack([s, -s], axis=-2)
        block = self.src[..., :m, :k]
        shape = self.lead + block.shape
        left = np.ndarray(shape, _F64, scratch)
        tmp = np.ndarray(shape, _F64, scratch, left.nbytes)
        # L = Rot T' on the rows, then L Rot^T into the image
        np.multiply(c[..., None, None, :m, None], block, out=left)
        np.multiply(cs[..., :, None, :m, None], block[::-1], out=tmp)
        np.add(left, tmp, out=left)
        image = self.out[..., :m, :k]
        np.multiply(left, c[..., None, None, None, :k], out=image)
        np.multiply(left[..., ::-1, :, :], cs[..., None, :, None, :k],
                    out=tmp)
        np.add(image, tmp, out=image)
        if self.grad is not None:
            _gradient(image, self.tau_s[:, :m], self.tau_s[:, :k],
                      self.grad[..., :m, :k], tmp)
        self.node = i
        return self.out


class _RankImage:
    """Image T~' of a needle at height y above the gauge in rank space:
    the factor pair (left, right) with T~' = left @ right, and, once
    ``need_gradient`` is called, its gradient G as the pair ``grad``.
    Each factor carries the parity axis on its long side: left is (2, h,
    r), right (2, r, h), and block [s, t] of T~' is left[s] @ right[t].

    The needle's image is T' = E M E^T W (``needle_image_factors``, E in
    the pair basis), and a height rotation turns E into L = Rot E, so
    T~' = L M L^T W: left = L M, right = L^T W.  The gradient G = S P
    T~' + T~' P S (``_gradient``) is then the rank-6 pair ([tau s
    (P-swapped left), left], [right; (P-swapped right) tau s]), which
    holds the image as its blocks (gl[..., 3:], gr[..., :3, :]): ``out``
    views them.

    As ``_Image``: ``y`` is one height or a (B, 1) column of them, the
    factors then stacked; at one y = 0 the pair is ``static``, built
    once, by the same arithmetic as a rotation by 0, which is exact, so a
    needle's values are the same alone and in a batch.  Otherwise ``at(i,
    p, scratch)`` rebuilds the pair (and G) at radial node i on every
    pair, O(n) work, in buffers of its own (``scratch`` is unused); the
    blocks read their windows from it.
    """

    def __init__(self, factors, y, sinh_p: np.ndarray):
        self.e, self.core, self.w = factors
        self.y, self.sinh = y, sinh_p
        self.tau_s = np.array([-sinh_p, sinh_p])
        lead = np.shape(y)[:1]
        self.static = lead == () and y == 0.0
        _, h, r = self.e.shape
        self.gl = np.empty(lead + (2, h, 2 * r))
        self.gr = np.empty(lead + (2, 2 * r, h))
        self.out = (self.gl[..., r:], self.gr[..., :r, :])
        self.grad = None
        self.node = None
        if self.static:
            self._factor(self.e)

    def _factor(self, rot: np.ndarray) -> None:
        """The pair (rot M, rot^T W), and G from it where it is kept."""
        left, right = self.out
        np.matmul(rot, self.core, out=left)
        np.multiply(rot.swapaxes(-1, -2), self.w, out=right)
        if self.grad is not None:
            r = left.shape[-1]
            np.multiply(self.tau_s[:, :, None], left[..., ::-1, :, :],
                        out=self.gl[..., :r])
            np.multiply(right[..., ::-1, :, :], self.tau_s[:, None, :],
                        out=self.gr[..., r:, :])

    def need_gradient(self) -> None:
        if self.grad is None:
            self.grad = (self.gl, self.gr)
            if self.static:
                self._factor(self.e)

    def at(self, i: int, p: float, scratch: np.ndarray) -> tuple:
        if self.static or self.node == i:
            return self.out
        theta = p * self.y * self.sinh
        s = np.sin(theta)
        cs = np.stack([s, -s], axis=-2)
        rot = np.cos(theta)[..., None, :, None] * self.e
        rot += cs[..., None] * self.e[::-1]
        self._factor(rot)
        self.node = i
        return self.out


def _pairs(word) -> list:
    """Directed pair (to, at) = (word[k-1], word[k]) of each slot k: block
    B_k = e_{to,at} diag(U_{to<-at}) T_at of the chain U_{i1,iN} T_{iN}
    U_{iN,iN-1} ... U_{i2,i1} T_{i1}, with e the edge sign."""
    return [(word[k - 1], word[k]) for k in range(len(word))]


def _insertion_slots(scene: Scene, word, moving: int, ux: float) -> dict:
    """Slots whose decay R moves when one object moves by ux per unit s
    along x: slot -> d|Delta x|/ds.

    At radial frequency p the slot's R gains the diagonal factor
    -p (d|Delta x|/ds) cosh(alpha).
    """
    out = {}
    for k, (to, at) in enumerate(_pairs(word)):
        if moving not in (to, at):
            continue
        sx = math.copysign(1.0, scene.object_index(to).pose.origin[0]
                           - scene.object_index(at).pose.origin[0])
        sgn = 1.0 if to == moving else -1.0  # d(pos_to - pos_from)/ds
        ddpar = sx * sgn * ux
        if ddpar != 0.0:
            out[k] = ddpar
    return out


def _plan(word, queries, kernel=()) -> tuple:
    """Cuts that close the cyclic product C = B_0 B_1 ... B_{n-1} of one
    diagram word for every placement of the derivative insertions of
    every query.

    ``queries`` holds, per query, one set of slots per insertion: none
    for the energy tr C, one for a force, two for I12.  An insertion at
    slot k multiplies B_k = diag(R_k) T_k from the left by a diagonal
    factor, except in the queries listed in ``kernel``: their one
    insertion replaces B_k by diag(R_k) c G_k, a kernel insertion.

    An arc (a, L) is the segment product B_a ... B_{a+L-1}, indices mod
    n.  A cut (a, b), a < b, splits the cycle into the arcs X = (a, b-a)
    and Y = (b, n-b+a) and closes, for diagonal factors f_a at slot a
    and f_b at slot b,

        tr(diag(f_a) X diag(f_b) Y) = f_a . (X * Y^T) f_b

    in O(n_alpha^2).  Each placement at two distinct slots needs its own
    cut.  A kernel insertion at slot k takes the cut (k, k + 1), whose
    one-block arc it replaces.  Every other placement at one slot rides
    on a cut through its slot, a new one splitting the cycle in half
    when none exists.  A query without insertions (f_a = f_b = 1) rides
    on the first cut of the others and makes the cut (0, n // 2) only
    when there is none.

    ``_closed_trace`` builds an arc by prepending blocks to its longest
    stored suffix, so it keys arcs by their last slot: (end, length) for
    the arc B_{end-length+1} ... B_end.  A word that repeats with period
    d has B_{k+d} = B_k (each block depends only on its letter and the
    one before it), so the key is (end mod d, length).

    Returns (d, cuts), each cut (a, b, terms, drop): terms lists
    (q, factors at a, factors at b, side), q the query, the factors
    tuples of its diagonal insertion indices, () meaning 1, and side
    None, or 0 or 1 when the block at a or at b takes the kernel
    insertion.  drop lists the stored arcs no later cut reads.
    """
    n = len(word)
    period = next(d for d in range(1, n + 1)
                  if word[d:] + word[:d] == tuple(word))
    m = n // 2
    cuts: dict = {}
    kern = []
    single = []
    plain = []
    for q, slot_sets in enumerate(queries):
        if q in kernel:
            kern += [(k, q) for k in sorted(slot_sets[0])]
        elif len(slot_sets) == 2:
            first, second = slot_sets
            for k1 in sorted(first):
                for k2 in sorted(second):
                    if k1 == k2:
                        single.append((k1, q, (0, 1)))
                    elif k1 < k2:
                        cuts.setdefault((k1, k2), []).append(
                            (q, (0,), (1,), None))
                    else:
                        cuts.setdefault((k2, k1), []).append(
                            (q, (1,), (0,), None))
        elif slot_sets:
            single += [(k, q, (0,)) for k in sorted(slot_sets[0])]
        else:
            plain.append(q)
    for k, q in kern:
        cut = tuple(sorted((k, (k + 1) % n)))
        cuts.setdefault(cut, []).append((q, (), (), int(k != cut[0])))
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
        cuts[cut].append((q, f, (), None) if k == cut[0]
                         else (q, (), f, None))
    for q in plain:
        cuts.setdefault(next(iter(cuts), (0, m)), []).append(
            (q, (), (), None))

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


def _link_table(scenes, words, grid: QuadratureGrid, p_nodes,
                gradients=(), full: bool = False) -> list:
    """Link table of one engine call on a batch of ``scenes`` that differ
    only in the heights of their objects: (pair, image, sign, m, g,
    windows) for every directed pair (to, at) of ``words``, with image
    the ``_Image`` (a needle's ``_RankImage``) of at's kernel at its
    height(s) above the gauge (``_gauge``; one image per kernel and
    heights, stacked where the heights vary across the batch), sign the
    edge sign e_{to,at} (``_edge_sign``), m the kernel's power of p
    (``_t_hat``), g the decay exponent of U_{to<-at} on the pairs and
    windows[i] the rapidity window W of diag(R) T at radial node
    p_nodes[i], the slice of its first pairs (see the module docstring;
    every pair when ``full``).  The images of the objects in
    ``gradients``, the ones a kernel insertion moves along y, keep their
    gradients.  Each distinct kernel is built once per table.  A batch
    whose scenes give a pair different signs (a plane normal with a y
    part) raises ValidationError.

    The row bounds of all nodes come from one (n_p, n_alpha / 2) array.
    They are taken in logs, so a window never comes out empty through
    underflow; on an all-zero T it is the whole grid.  A dense per-node
    image covers the windows of its links' rows and of the columns they
    read, the rows of the links that follow them in ``words``; a needle's
    factors cover every pair.
    """
    scene = scenes[0]
    half = grid.alpha_nodes[grid.n_alpha // 2:]
    h = half.size
    cosh_p, sinh_p = np.cosh(half), np.sinh(half)
    p = np.asarray(p_nodes, dtype=float)[:, None]
    floor = -math.inf if full else math.log(WINDOW_EPS)
    lift = 2.0 * np.log1p(p * cosh_p)
    cache: dict = {}
    images: dict = {}
    sizes: dict = {}
    table = []
    pairs = list(dict.fromkeys(pr for word in words for pr in _pairs(word)))
    gauge = _gauge(scenes, pairs)
    for to, at in pairs:
        sign = _edge_sign(scene, to, at)
        if any(_edge_sign(other, to, at) != sign for other in scenes[1:]):
            raise ValidationError(
                f"the scenes of a batch give the link {(to, at)} different "
                "signs")
        key = _kernel_key(scene, at)
        image, log_rho, m = _t_hat(key, grid, cache)
        ys = _heights(scenes, at)
        if (key, ys) not in images:
            y = (ys[0] - gauge if len(set(ys)) == 1
                 else np.array(ys)[:, None] - gauge)
            images[key, ys] = (
                _RankImage(image, y, sinh_p) if isinstance(image, tuple)
                else _Image(image, y, sinh_p, p.shape[0]))
        image = images[key, ys]
        if at in gradients:
            image.need_gradient()
        g = decay_exponent(scene.object_index(to).pose,
                           scene.object_index(at).pose, cosh_p)
        log_r = log_rho - p * g + lift
        keep = log_r >= log_r.max(axis=1, keepdims=True) + floor
        size = h - keep[:, ::-1].argmax(axis=1)
        sizes[to, at] = image, size
        table.append(((to, at), image, sign, m, g,
                      [slice(0, k) for k in size.tolist()]))
    for word in words:
        prs = _pairs(word)
        for pr, nxt in zip(prs, prs[1:] + prs[:1]):
            image, size = sizes[pr]
            if isinstance(image, _Image):
                np.maximum(image.rows, size, out=image.rows)
                np.maximum(image.cols, sizes[nxt][1], out=image.cols)
    return table


def _links(table, i: int, p: float, scratch: np.ndarray) -> dict:
    """Links at radial node i of ``table``, whose frequency is p: pair
    -> (R[W], T~', W, G) with R[W] = sign p^m exp(-p g[W]) on the pairs
    of the window W, T~' the pair image of at's kernel at node i
    (stacked where its height varies across the batch; a factor pair
    for a needle) and G its gradient, or None where no kernel insertion
    needs it.  The per-node dense images rotate in ``scratch``
    (``_Image``)."""
    out = {}
    for pair, image, sign, m, g, windows in table:
        w = windows[i]
        u = np.exp(-p * g[w])
        if m or sign < 0:
            u *= sign * p ** m
        out[pair] = (u, image.at(i, p, scratch), w, image.grad)
    return out


def _operator(scene: Scene, grid: QuadratureGrid):
    """The scalar ``scene``'s operator A on object states (see the module
    docstring), an iterator that builds it at one radial node of ``grid``
    at a time: a dense float64 matrix whose block A[x, y] is the link (x,
    y) of the link table over all ordered pairs, diag(R) T~', on the
    whole grid, laid out in the pair basis with the even pairs first;
    A[x, x] = 0.  An object on a plate's line (sigma = 0) raises
    ValidationError."""
    objs = range(1, scene.M + 1)
    n = grid.n_alpha
    # the words [xy], x < y, hold every ordered pair
    table = _link_table((scene,), [(x, y) for x in objs for y in objs
                                   if x < y], grid, grid.p_nodes, full=True)
    scratch = np.empty(2 * n * n)

    def at(i: int, p: float) -> np.ndarray:
        a = np.zeros((scene.M * n, scene.M * n))
        for (x, y), (u, t, _, _) in _links(table, i, p, scratch).items():
            block = u[:, None] * _expand(t)
            a[(x - 1) * n:x * n, (y - 1) * n:y * n] = block.transpose(
                0, 2, 1, 3).reshape(n, n)
        return a

    return map(at, range(grid.n_p), grid.p_nodes)


# The kinds of a dense product by the forms of its factors, "bd" for a
# block-diagonal one (2, m, k), never stacked, and "full" for one of four
# parity blocks (..., 2, 2, m, k), and the multiply-adds of each per m l
# k; _FORMS keys the kind by whether each factor is block-diagonal
_KINDS = {("bd", "bd"): 2, ("bd", "full"): 4, ("full", "bd"): 4,
          ("full", "full"): 8}
_FORMS = {(t == "bd", z == "bd"): (t, z) for t, z in _KINDS}


class _Workspace:
    """Buffers of one engine pass, so that the chain loop allocates
    nothing large: ``free`` lists flat float64 buffers of n_alpha^2
    entries, each big enough for any arc, and ``stacked`` ones of
    ``batch`` times that, for the arcs that hold an object whose height
    varies across the batch.  ``scratch`` holds 5/2 ``batch`` n_alpha^2
    entries: ``_links`` rotates the link table's per-node images in it,
    and then its halves ``z`` and ``terms`` hold the scaled right factor
    and the terms of a closing, big enough for a stacked one, and its
    quarters ``core`` and ``zcore`` the core of a cut (``_core``) and
    that of a kernel insertion, whose terms go to ``z``, free by then; a
    product of two full blocks adds its second half-sum from ``terms``,
    free while arcs are built.  ``created`` counts the buffers made, the two
    scratch halves included: each free list grows only to the largest
    number of its arcs alive at once.

    ``static`` holds the pairs whose dense image is the same at every
    node (one height, 0 above the gauge); ``cores`` keeps the full
    closing terms of each two-slot diagram whose both pairs are static
    (``_static_core``), made once per pass.  ``dense`` and ``thin``
    count the pass's matrix products: n x n ones, of plates, and those
    of rank-space factors.  ``kinds`` counts the n x n products by the
    forms of their factors (``_KINDS``: a block-diagonal factor is "bd",
    any other "full"), ``madds`` their multiply-adds and ``madds_full``
    the multiply-adds they would cost with both factors full."""

    def __init__(self, n_alpha: int, static=frozenset(), batch: int = 1):
        self.size = n_alpha * n_alpha
        self.free = []
        self.stacked = []
        self.batch = batch
        half = batch * self.size
        quarter = half // 4
        self.scratch = np.empty(2 * half + 2 * quarter)
        self.z, self.terms, self.core, self.zcore = np.split(
            self.scratch, np.cumsum([half, half, quarter]))
        self.created = 2
        self.static = static
        self.cores: dict = {}
        self.dense = self.thin = 0
        self.kinds = dict.fromkeys(_KINDS, 0)
        self.madds = self.madds_full = 0

    def take(self, shape) -> np.ndarray:
        """A view of a free buffer as an array of ``shape``: a stacked
        buffer for a shape with a batch axis (a stacked full block)."""
        free = self.stacked if len(shape) == 5 else self.free
        if free:
            buf = free.pop()
        else:
            self.created += 1
            buf = np.empty(self.size * (self.batch if free is self.stacked
                                        else 1))
        return np.ndarray(shape, _F64, buf)

    def give(self, arc: np.ndarray) -> None:
        """Return the buffer of an arc ``take`` made."""
        (self.stacked if arc.ndim == 5 else self.free).append(arc.base)


_F64 = np.dtype(np.float64)


def _lead(x: np.ndarray, y: np.ndarray) -> tuple:
    """Batch axis of a product or closing of the pair blocks x and y:
    that of the stacked one, () where neither is."""
    return x.shape[:-4] if x.ndim == 5 else y.shape[:-4] if y.ndim == 5 else ()


def _psum(t: np.ndarray) -> np.ndarray:
    """Sum over the parity axis -3 of (..., 2, a, b)."""
    return t[..., 0, :, :] + t[..., 1, :, :]


def _diagonal(t: np.ndarray) -> np.ndarray:
    """The parity-diagonal blocks (..., 2, m, k) of a pair block: the
    block itself where it is block-diagonal, else blocks [0, 0] and [1,
    1], a view where its parity axes merge (every image, gradient and
    arc)."""
    if t.ndim == 3:
        return t
    return t.reshape(t.shape[:-4] + (4,) + t.shape[-2:])[..., ::3, :, :]


def _core(x: np.ndarray, y: np.ndarray, buf: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Core C of the closing tr(diag(l) X diag(r) Y) = l . C . r of two
    dense pair blocks (see the module docstring): the sum of the terms
    X[s, t] * Y[t, s]^T, the two parity-diagonal ones where X or Y is
    block-diagonal, else all four, made in ``buf`` and added in order
    into ``out``; an (..., m, m') view of it, which closes as l . C . r."""
    m, k = x.shape[-2:]
    lead = _lead(x, y)
    if x.ndim == 3 or y.ndim == 3:
        terms = np.ndarray(lead + (2, m, k), _F64, buf)
        np.multiply(_diagonal(x), _diagonal(y).swapaxes(-1, -2), out=terms)
    else:
        terms = np.ndarray(lead + (2, 2, m, k), _F64, buf)
        np.multiply(x, y.swapaxes(-1, -2).swapaxes(-3, -4), out=terms)
        terms = terms.reshape(lead + (4, m, k))
    return np.add.reduce(terms, axis=-3,
                         out=np.ndarray(lead + (m, k), _F64, out))


def _static_core(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full closing core of a two-slot diagram from its two static
    images: at every node its cut (0, 1) closes on the view core[W_0,
    W_1] of the core of X[W_0, W_1] and Y[W_1, W_0] (``_core``; see
    ``_Workspace``), whose entries are those of the node's own core."""
    m, k = x.shape[-2], y.shape[-2]
    return _core(x, y, np.empty(4 * m * k), np.empty(m * k))


def _block(t, rows: slice, cols: slice):
    """Block [rows, cols] of a dense pair image or of a factor pair."""
    if isinstance(t, tuple):
        return t[0][..., rows, :], t[1][..., :, cols]
    return t[..., rows, cols]


def _product(t: np.ndarray, z: np.ndarray, ws: _Workspace) -> np.ndarray:
    """t @ z of two dense pair blocks, into a buffer of ``ws``: a block
    of a block-diagonal factor multiplies one block of the other, so
    bd @ bd is two products of (m x l)(l x k), bd @ full and full @ bd
    four, and full @ full eight, as two half-sums."""
    kind = _FORMS[t.ndim == 3, z.ndim == 3]
    m, l, k = t.shape[-2], t.shape[-1], z.shape[-1]
    ws.dense += 1
    ws.kinds[kind] += 1
    ws.madds += _KINDS[kind] * m * l * k
    ws.madds_full += 8 * m * l * k
    if kind == ("bd", "bd"):
        return np.matmul(t, z, out=ws.take((2, m, k)))
    shape = _lead(t, z) + (2, 2, m, k)
    out = ws.take(shape)
    if kind == ("bd", "full"):
        return np.matmul(t[:, None], z, out=out)
    if kind == ("full", "bd"):
        return np.matmul(t, z, out=out)
    np.matmul(t[..., :, :1, :, :], z[..., :1, :, :, :], out=out)
    tmp = np.ndarray(shape, _F64, ws.terms)
    np.matmul(t[..., :, 1:, :, :], z[..., 1:, :, :, :], out=tmp)
    return np.add(out, tmp, out=out)


def _left(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """t @ f of a dense pair block and a left factor f (..., 2, l, r)."""
    if t.ndim == 3:
        return np.matmul(t, f)
    return _psum(np.matmul(t, f[..., None, :, :, :]))


def _right(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f @ t of a right factor f (..., 2, r, l) and a dense pair block."""
    if t.ndim == 3:
        return np.matmul(f, t)
    prod = np.matmul(f[..., :, None, :, :], t)
    return prod[..., 0, :, :, :] + prod[..., 1, :, :, :]


def _prepend(t, u: np.ndarray, arc, ws: _Workspace):
    """The arc t diag(u) arc, factored where t or arc is a factor pair:
    a thin product then carries the pair's rank, and only a dense block
    on a dense arc makes an n x n product, into a buffer of ``ws``
    (``_product``)."""
    if not isinstance(t, tuple) and not isinstance(arc, tuple):
        z = np.ndarray(arc.shape, _F64, ws.z)
        np.multiply(u[:, None], arc, out=z)
        return _product(t, z, ws)
    if not isinstance(t, tuple):
        ws.thin += 1
        return _left(t, u[:, None] * arc[0]), arc[1]
    left, right = t
    right = right * u
    if isinstance(arc, tuple):
        ws.thin += 2
        return left, np.matmul(_psum(np.matmul(right, arc[0]))[
            ..., None, :, :], arc[1])
    ws.thin += 1
    return left, _right(right, arc)


def _rank_core(left: np.ndarray, x: tuple, right: np.ndarray, y,
               ws: _Workspace) -> np.ndarray:
    """W with tr W = tr(diag(left) X diag(right) Y) for the factor pair
    x = (A, B) of X: W = (B diag(right) Y) (diag(left) A), summed over
    the parities the products contract, through Y's factors where it is
    a pair, so its rows follow B's rank and its columns A's.  Only thin
    products: (r x n)(n x n) and (r x n)(n x r)."""
    a, b = x
    if isinstance(y, tuple):
        ws.thin += 3
        return np.matmul(_psum(np.matmul(b * right, y[0])),
                         _psum(np.matmul(y[1] * left, a)))
    ws.thin += 2
    return _psum(np.matmul(_right(b * right, y), left[:, None] * a))


def _closed_trace(pairs, plan, links, factors, ws: _Workspace) -> list:
    """Sum of the traces ``plan`` closes over the ``links`` table, one
    per query, for the diagram whose slots have the directed ``pairs``
    (``_pairs``): a float, or, where a block is stacked, an array over
    the scenes of the batch.

    ``factors[q][j]`` maps each slot of insertion j of query q to its
    factor: the diagonal one, a pair vector, or the scalar c of a kernel
    insertion, which replaces the slot's T' by c G (``_gradient``).
    Slot k is (R_k[W_k], T'_k[..., W_k, W_{k+1}]), a view of the image,
    since block k's columns are block k+1's rows.  An arc is held as (u,
    A), meaning diag(u) A, and is built by prepending a block,
    diag(u1) A1 diag(u2) A2 = diag(u1) [A1 @ (u2[:, None] * A2)], so the
    kernel A1 is always the left factor (``_prepend``); an arc is
    block-diagonal exactly when all its blocks are.  A needle's block,
    and every arc that holds one, is a factor pair, closed in rank space
    (``_rank_core``; see the module docstring).  Every array is float64;
    an arc is stacked when one of its blocks is, and ``np.matmul``
    multiplies a stack slice by slice, so each scene's arcs carry the
    bits they have alone.  The memo keys arcs by (end mod period,
    length); its blocks are the arcs (k, 1).

    Every dense product, scaling and closing is written into the
    workspace ``ws``: the right factor into ``ws.z``, the closing's terms
    into ``ws.terms`` and its core into ``ws.core`` (a kernel
    insertion's into ``ws.z`` and ``ws.zcore``, free by then)
    and each dense product arc into a buffer ``ws.take`` hands out, which
    the arc gives back when its cut's drop list releases it.  The plan
    drops every arc by its last cut, so the free lists hold all the
    buffers again when the trace returns.
    """
    period, cuts = plan
    n = len(pairs)
    slots = [links[pr] for pr in pairs]
    win = [w for _, _, w, _ in slots]
    memo = {(k, 1): (u, _block(t, w, nxt)) for k, ((u, t, w, _), nxt)
            in enumerate(zip(slots, win[1:] + win[:1]))}
    # a two-slot diagram of static images closes on its pass's core
    static = n == 2 and all(pr in ws.static for pr in pairs)
    totals = [0.0] * len(factors)
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
                arc = _prepend(t, u, arc, ws)
                u = un
                memo[end, ln] = (u, arc)
            ends.append((u, arc))
        (ux, ax), (uy, ay) = ends
        # a cut with a needle block closes in rank space; a kernel
        # insertion's G is a pair exactly where the block it replaces is
        rank = isinstance(ax, tuple) or isinstance(ay, tuple)
        core = None
        # the rank-space closing of a factored kernel insertion, whose
        # corner closes the image it replaces (see ``_RankImage``)
        kernel_w = None
        for q, fa, fb, side in terms:
            left, right = ux, uy
            for j in fa:
                left = left * factors[q][j][a][win[a]]
            for j in fb:
                right = right * factors[q][j][b][win[b]]
            x, y, g = ax, ay, None
            if side is not None:
                k = (a, b)[side]
                g = _block(slots[k][3], win[k], win[(k + 1) % n])
                x, y = (g, ay) if side == 0 else (ax, g)
            if rank:
                if side is None and kernel_w is not None and not fa + fb:
                    w, r = kernel_w
                    value = np.trace(w[..., :r, r:], axis1=-2, axis2=-1)
                else:
                    # orient the trace so that x is a factor pair, the
                    # kernel insertion's where it is one
                    if not isinstance(x, tuple) or (
                            side == 1 and isinstance(y, tuple)):
                        left, x, right, y = right, y, left, x
                    w = _rank_core(left, x, right, y, ws)
                    value = np.trace(w, axis1=-2, axis2=-1)
                    if isinstance(g, tuple):
                        kernel_w = (w, g[0].shape[-1] // 2)
            else:
                if side is not None:
                    c = _core(x, y, ws.z, ws.zcore)
                else:
                    if core is None and static:
                        key = tuple(pairs)
                        if key not in ws.cores:
                            ws.cores[key] = _static_core(slots[0][1],
                                                         slots[1][1])
                        core = ws.cores[key][..., win[0], win[1]]
                    elif core is None:
                        core = _core(ax, ay, ws.terms, ws.core)
                    c = core
                if c.ndim == 2:
                    value = left @ c @ right
                else:
                    # one row and one column per slice, which gives each
                    # scene the bits of its own left @ c @ right
                    value = np.matmul(np.matmul(left[None, None], c),
                                      right[None, :, None])[:, 0, 0]
            totals[q] += value if side is None else factors[q][0][k] * value
        for key in drop:
            arc = memo.pop(key)[1]
            if not isinstance(arc, tuple):
                ws.give(arc)
    return totals


def _integrate(scenes, diagrams, grid: QuadratureGrid, queries) -> list:
    """int dr Re tr(chain) of each diagram for each query, one list per
    query, for each scene of the batch ``scenes``, from one pass, dr the
    radial measure of the scenes' mode (``_radial_measure``) on the
    grid's plain int dp.  A query is a tuple of (object, direction)
    moves, each a derivative insertion summed over every slot it can
    take: () for the energy trace, one move for its first derivative,
    two, along x, for the mixed second derivative.  ``evaluate`` has
    checked the input: the scenes of a batch differ only in the heights
    of their objects (``_check_batch``), so everything but the images of
    the objects whose height varies is built once for the batch, and
    those images, and the arcs and closings that hold them, carry a
    leading batch axis
    (see the module docstring).

    A move's x part is a diagonal insertion on the decays R, its y part
    a kernel insertion on the object's own blocks (see the module
    docstring); the pass closes the two as separate parts and adds them.
    One link table per pass serves every query, diagram and radial node:
    kernels independent of p (the needle as p^2 times its unit kernel),
    decay exponents and the windows of all nodes are computed once,
    leaving each node the exponentials p^m exp(-p g[W]), the images of
    kernels off height 0, one factor per distinct insertion and the
    chain products, whose arcs every query of a diagram shares
    (``_plan``).
    """
    scene = scenes[0]
    # each query as the parts the engine closes: (query, kernel
    # insertion?, ((object, d(coordinate)/ds), ...))
    parts = []
    for q, query in enumerate(queries):
        if len(query) == 1 and query[0][1][1] != 0.0:
            obj, (ux, uy) = query[0]
            if ux != 0.0:
                parts.append((q, False, ((obj, ux),)))
            parts.append((q, True, ((obj, uy),)))
        else:
            parts.append((q, False, tuple((obj, d[0]) for obj, d in query)))
    kernel = {i for i, (_, kern, _) in enumerate(parts) if kern}
    jobs = []
    for diag in diagrams:
        word = diag.word
        slots = [[{k: c for k, at in enumerate(word) if at == obj}
                  for obj, c in moves] if kern else
                 [_insertion_slots(scene, word, obj, c) for obj, c in moves]
                 for _, kern, moves in parts]
        jobs.append((_pairs(word), slots, _plan(word, slots, kernel)))
    words = [diag.word for diag, (_, _, (_, cuts)) in zip(diagrams, jobs)
             if cuts]
    table = _link_table(scenes, words, grid, grid.p_nodes, {
        moves[0][0] for _, kern, moves in parts if kern})
    # the workspace stacks dense blocks only: a needle's stacked factors
    # are arrays of their own.  It is made after the table, so that its
    # buffers are not alive beside the kernel builds
    stacked = any(len(set(_heights(scenes, i))) > 1
                  and _kernel_key(scene, i)[0] != "needle"
                  for i in range(1, scene.M + 1))
    ws = _Workspace(grid.n_alpha, frozenset(
        pair for pair, image, *_ in table
        if isinstance(image, _Image) and image.static),
        batch=len(scenes) if stacked else 1)
    cosh_a = np.cosh(grid.alpha_nodes[grid.n_alpha // 2:])
    # insertion factor -p * base: base = c cosh(alpha) on a decay R (c =
    # d|Delta x|/ds), the scalar c of a kernel insertion (c = dy/ds), for
    # each distinct (kernel?, c)
    bases = {(i in kernel, c): c if i in kernel else c * cosh_a
             for _, slots, _ in jobs for i, qs in enumerate(slots)
             for s in qs for c in s.values()}
    # acc[q][i]: query q, diagram i, a float or an array over the scenes
    acc = [[0.0] * len(jobs) for _ in queries]
    weights = grid.p_weights * _radial_measure(scene.mode, grid.p_nodes)[1]
    for node, (p, wp) in enumerate(zip(grid.p_nodes, weights)):
        links = _links(table, node, p, ws.scratch)
        scaled = {key: -p * base for key, base in bases.items()}
        for i, (pairs, slots, plan) in enumerate(jobs):
            if not plan[1]:
                continue
            factors = [[{k: scaled[j in kernel, c] for k, c in s.items()}
                        for s in qs] for j, qs in enumerate(slots)]
            for (q, _, _), total in zip(parts, _closed_trace(
                    pairs, plan, links, factors, ws)):
                acc[q][i] += wp * total
    acc = np.array([[np.broadcast_to(v, len(scenes)) for v in acc_q]
                    for acc_q in acc])
    return [acc[..., s].tolist() for s in range(len(scenes))]


# I12's two moves: d/d(d1) moves object 1 away along -x, d/d(d2) object
# 2 along +x.  Objects 1 and 2 face each other across the decay axis, and
# only diagrams holding both give a nonzero I12 = d(F_1)/d(d2)
I12 = ((1, (-1.0, 0.0)), (2, (+1.0, 0.0)))


def _finite_pair(direction) -> bool:
    """Whether a move's ``direction`` is a pair of finite numbers."""
    try:
        return len(direction) == 2 and all(map(math.isfinite, direction))
    except TypeError:
        return False


def evaluate(scenes, diagrams, grid: QuadratureGrid, queries) -> list:
    """Value of each diagram for each query, one list per query, for each
    scene of the batch ``scenes``: the one entry of the chain engine.

    A query is a tuple of at most two (object, direction) moves, the
    object 1-based and the direction a pair (ux, uy) of finite numbers:
    () gives the energy E = -S * C * int dr Re tr(chain), one move the
    force -dE/ds along it and two moves along x -d^2E/ds1 ds2 (``I12``
    is the pair of the blocking interaction), each +S * C * int dr Re
    tr' of the chain with the moves' insertions.  The scenes of a batch
    differ only in the heights of their objects (``_check_batch``); a
    single scene is a batch of one.  Any other input raises
    ValidationError here, before the engine runs.

    Each scalar of the scenes' ``scalars`` runs one pass on the batch
    with that scalar as its bc; its sums are scaled and added in the
    order of ``scalars``, from 0.0.  No query, or no diagram, runs no
    pass: each scene gets no list, or one empty list per query.
    """
    if isinstance(scenes, Scene) or not scenes:
        raise ValidationError(
            "evaluate takes a non-empty batch (a tuple) of scenes")
    _check_batch(scenes)
    scene = scenes[0]
    for diag in diagrams:
        for i in diag.word:
            if not 1 <= i <= scene.M:
                raise ValidationError(
                    f"diagram {diag} references object {i} outside the "
                    "scene")
    if grid.n_p == 0:
        raise ValidationError("grid has no radial nodes")
    # the pair basis pairs each rapidity alpha with -alpha
    check_alpha_count(grid.n_alpha, "grid.n_alpha")
    for query in queries:
        if len(query) > 2:
            raise ValidationError(
                f"a query takes at most two moves, not {len(query)}")
        for obj, direction in query:
            if obj not in range(1, scene.M + 1):
                raise ValidationError(
                    f"a move of object {obj!r}: the scene's objects are "
                    f"1..{scene.M}")
            if not _finite_pair(direction):
                raise ValidationError(
                    f"a move's direction must be a pair of finite numbers, "
                    f"not {direction!r}")
        if len(query) == 2 and any(d[1] != 0.0 for _, d in query):
            raise ValidationError(
                "a query of two moves takes moves along x only")
    pref = _radial_measure(scene.mode, grid.p_nodes)[0]
    out = [[[0.0] * len(diagrams) for _ in queries] for _ in scenes]
    for bc in scene.scalars if queries and diagrams else ():
        per_scene = _integrate(tuple(replace(s, bc=bc) for s in scenes),
                               diagrams, grid, queries)
        out = [[[v + (HBAR_C if query else -HBAR_C)
                 * float(d.symmetry_factor) * pref * acc
                 for v, d, acc in zip(vals, diagrams, accs_q)]
                for query, vals, accs_q in zip(queries, out_s, accs)]
               for out_s, accs in zip(out, per_scene)]
    return out


def diagram_energy(scene: Scene, diagram: Diagram,
                   grid: QuadratureGrid) -> float:
    """Energy of one diagram: -S * C * int dr Re tr(chain)."""
    return evaluate((scene,), [diagram], grid, [()])[0][0][0]


def reflection_series(scene: Scene, N_max: int,
                      grid: QuadratureGrid) -> EnergyBreakdown:
    """All diagrams to order N_max, with by-order partial sums."""
    if N_max < 2:
        raise ValidationError("N_max must be >= 2")
    diagrams = enumerate_diagrams(scene.M, N_max)
    per_diagram = {}
    by_order: dict = {}
    energies, = evaluate((scene,), diagrams, grid, [()])[0]
    for diag, e in zip(diagrams, energies):
        per_diagram[word_to_str(diag.word)] = e
        by_order[diag.order] = by_order.get(diag.order, 0.0) + e
    total = sum(per_diagram.values())
    last = by_order[max(by_order)] if by_order else 0.0
    return EnergyBreakdown(
        per_diagram=per_diagram,
        by_order=by_order,
        total=total,
        truncation_estimate=abs(last),
    )


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
    energies on the scene with the object displaced by +-h, h = 1e-3 *
    gap_min: one batch of the two scenes for a move along y, which
    changes only a height, two passes otherwise."""
    h = 1e-3 * min_gap(scene)
    if h <= 0:
        raise ValidationError("finite-difference step underflow")
    moved = tuple(_moved_scene(scene, moving_object, direction, s)
                  for s in (h, -h))
    batches = [moved] if direction[0] == 0.0 else [moved[:1], moved[1:]]
    ep, em = (v[0] for batch in batches
              for v in evaluate(batch, diagrams, grid, [()]))
    return [-(a - b) / (2.0 * h) for a, b in zip(ep, em)]

