"""Scene assembly: diagram energies, forces, and reference geometries."""

import collections
import gc
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate as si

from casimir2d.assembly import (
    Scene,
    SceneObject,
    WINDOW_EPS,
    _KINDS,
    _Workspace,
    _central_differences,
    _closed_trace,
    _edge_sign,
    _expand,
    _gauge,
    _integrate,
    _kernel_key,
    _link_table,
    _links,
    _operator,
    _pair_blocks,
    _pairs,
    _plan,
    _radial_measure,
    _t_hat,
    I12,
    diagram_energy,
    evaluate,
    min_gap,
    reflection_series,
)
from casimir2d.closedforms import two_halfplates_energy
from casimir2d.diagrams import canonicalize, enumerate_diagrams
from casimir2d.errors import (
    GeometryError,
    NumericalDomainError,
    ValidationError,
)
from casimir2d.quadrature import QuadratureGrid, build_grid
from casimir2d.scattering import (
    BoundaryCondition,
    Channel,
    HalfPlate,
    InfinitePlate,
    Needle,
    halfplate_kernel,
    infinite_plate_rl,
    needle_kernel_planar,
)
from casimir2d.scenarios import _resolve_channel
from casimir2d.translation import FramePose, translation_exponent


def _image(t):
    """Parity image Re T - Im T P of a kernel T with P T P = conj T, the
    real matrix the pair image is the pair-basis form of."""
    return t.real - t.imag[:, ::-1]


def _pair_matrix(n):
    """Orthogonal Q whose rows are the even pair vectors (e_j + e_jb) /
    sqrt 2, then the odd ones (e_jb - e_j) / sqrt 2, pair q = (j, jb) =
    (h - 1 - q, h + q): Q T' Q^T is the pair image laid out as a matrix."""
    h = n // 2
    q = np.zeros((n, n))
    for k in range(h):
        j, jb = h - 1 - k, h + k
        q[k, j] = q[k, jb] = q[h + k, jb] = 1.0 / math.sqrt(2.0)
        q[h + k, j] = -1.0 / math.sqrt(2.0)
    return q


def _laid_out(t):
    """A pair block (block-diagonal, four parity blocks or a factor pair)
    as a matrix, even pairs first."""
    full = _expand(t)
    m, k = full.shape[-2:]
    return full.swapaxes(-3, -2).reshape(full.shape[:-4] + (2 * m, 2 * k))


def _pair(v):
    """An even vector on the rapidities as its pair vector."""
    return v[len(v) // 2:]


def _per_diagram(scene, grid, diagrams, *moves) -> list:
    """Value of each diagram for the one query ``moves`` on one scene:
    () for the energies, one move for the forces, ``*I12`` for I12."""
    return evaluate((scene,), diagrams, grid, [moves])[0][0]


def _two_halfplate_scene(phi1, phi2, D, bc):
    return Scene(
        (SceneObject(HalfPlate(phi1), FramePose((0.0, 0.0), phi1)),
         SceneObject(HalfPlate(phi2), FramePose((D, 0.0), phi2))),
        bc, mode="edge")


class TestSceneValidation:
    def test_single_object_rejected(self):
        with pytest.raises(ValidationError):
            Scene((SceneObject(HalfPlate(0.0), FramePose((0.0, 0.0))),),
                  BoundaryCondition.DIRICHLET)

    def test_coincident_origins_rejected(self):
        with pytest.raises(GeometryError):
            Scene(
                (SceneObject(HalfPlate(0.0), FramePose((0.0, 0.0))),
                 SceneObject(HalfPlate(0.3), FramePose((0.0, 0.0), 0.3))),
                BoundaryCondition.DIRICHLET)

    def test_needle_refused_under_dirichlet(self):
        # a needle's kernel is the Neumann scalar's: a pure-2D D scene
        # and an edge EM scene (scalars D and N) are refused, pure-2D EM
        # (the Neumann scalar) is not
        for bc, mode in ((BoundaryCondition.DIRICHLET, "pure2d"),
                         (BoundaryCondition.EM2D, "edge")):
            with pytest.raises(ValidationError, match="needle"):
                replace(_needle_scene(), bc=bc, mode=mode)
        replace(_needle_scene(), bc=BoundaryCondition.EM2D)

    def test_min_gap_and_p_scale(self):
        s = _two_halfplate_scene(0.0, 0.0, 2.0, BoundaryCondition.DIRICHLET)
        assert min_gap(s) == 2.0


class TestScalarsRule:
    """A scene takes any boundary condition, and each of its values is
    the sum over ``Scene.scalars`` of the scalar scenes' values, to the
    last bit: edge EM = D + N, pure-2D EM = N."""

    D, N, EM = (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN,
                BoundaryCondition.EM2D)
    GRID = build_grid(32, 12, p_scale=0.5)
    DIAGRAMS = enumerate_diagrams(3, 4)

    def _d_plus_n(self, values):
        """values(scene) of the edge EM scene and the D + N sum."""
        d, n, em = (values(_three_object_scene(bc))
                    for bc in (self.D, self.N, self.EM))
        return em, [a + b for a, b in zip(d, n)]

    def test_scalars(self):
        assert _three_object_scene(self.EM).scalars == (self.D, self.N)
        assert replace(_needle_scene(), bc=self.EM).scalars == (self.N,)
        for bc in (self.D, self.N):
            assert _three_object_scene(bc).scalars == (bc,)
        assert _needle_scene().scalars == (self.N,)

    def test_energies(self):
        em, ref = self._d_plus_n(lambda scene: _per_diagram(
            scene, self.GRID, self.DIAGRAMS))
        assert any(em) and em == ref

    def test_slanted_forces(self):
        # a slanted move closes a decay insertion and a kernel insertion
        em, ref = self._d_plus_n(lambda scene: _per_diagram(
            scene, self.GRID, self.DIAGRAMS, (3, (0.6, 0.8))))
        assert any(em) and em == ref

    def test_I12(self):
        em, ref = self._d_plus_n(lambda scene: _per_diagram(
            scene, self.GRID, self.DIAGRAMS, *I12))
        assert any(em) and em == ref

    def test_energies_and_forces_of_one_pass(self):
        for j in range(2):
            em, ref = self._d_plus_n(lambda scene: evaluate(
                (scene,), self.DIAGRAMS, self.GRID,
                [(), ((2, (0.0, 1.0)),)])[0][j])
            assert any(em) and em == ref

    def test_reflection_series(self):
        d, n, em = (reflection_series(
            _two_halfplate_scene(0.3, 0.4, 1.0, bc), 2, self.GRID)
            for bc in (self.D, self.N, self.EM))
        assert em.total == d.total + n.total
        assert em.by_order == {2: d.by_order[2] + n.by_order[2]}

    def test_pure2d_em_is_neumann(self):
        scene = _needle_scene()
        em = replace(scene, bc=self.EM)
        for values in (
                lambda s: _per_diagram(s, self.GRID, self.DIAGRAMS),
                lambda s: _per_diagram(s, self.GRID, self.DIAGRAMS,
                                       (3, (0.6, 0.8))),
                lambda s: _per_diagram(s, self.GRID, self.DIAGRAMS, *I12)):
            ref = values(scene)
            assert any(ref) and values(em) == ref

    @pytest.mark.parametrize("pair", [(2, 1), (1, 3)])
    def test_engine_is_scalar_only(self, pair):
        # a link between plates without a line and one off the vertical
        # plate with its line: both read bc.sign
        with pytest.raises(ValidationError):
            _edge_sign(_three_object_scene(self.EM), *pair)


class TestRadialMeasure:
    """The scene's mode alone sets the radial measure: on one plain
    ``build_grid`` grid an edge scene integrates 1/(4 pi) int p dp and a
    pure-2D scene 1/(2 pi) int dkappa.  The oracle integrates the
    explicit complex trace (``_explicit_trace``) by adaptive quadrature
    over the radial frequency, on the grid's rapidity nodes.  At 64
    radial nodes the needle scene's energies are within 7e-7 of it and
    the plate scene's within 1e-10; the other mode's C and measure
    change them by a factor of 4 or more."""

    GRID = build_grid(32, 64, p_scale=0.5, map_scale=6.0)

    @pytest.mark.parametrize("mode", ["pure2d", "edge"])
    def test_mode_sets_the_measure(self, mode):
        if mode == "pure2d":
            scene = _needle_scene()
            diagrams = [d for d in enumerate_diagrams(3, 3) if 3 in d.word]
            jacobian, pref = (lambda p: 1.0), 1.0 / (2.0 * math.pi)
        else:
            scene = _three_object_scene(BoundaryCondition.NEUMANN)
            diagrams = enumerate_diagrams(3, 3)
            jacobian, pref = (lambda p: p), 1.0 / (4.0 * math.pi)
        got = _per_diagram(scene, self.GRID, diagrams)
        for diag, e in zip(diagrams, got):
            ref, _ = si.quad(
                lambda p: jacobian(p) * _explicit_trace(
                    scene, diag.word, self.GRID, p, []).real,
                0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-11)
            ref *= -float(diag.symmetry_factor) * pref
            assert e == pytest.approx(ref, rel=2e-6), diag


class TestTwoHalfPlates:
    @pytest.mark.parametrize("phi1,phi2", [(0.4, 0.3),
                                           (math.pi / 8, 3 * math.pi / 8)])
    def test_second_order_matches_closed_form(self, phi1, phi2, edge_grid):
        num = 0.0
        for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            scene = _two_halfplate_scene(phi1, phi2, 1.0, bc)
            num += diagram_energy(scene, canonicalize((1, 2)), edge_grid)
        cf = (two_halfplates_energy(phi1, phi2, 1.0, 1.0, "D").value
              + two_halfplates_energy(phi1, phi2, 1.0, 1.0, "N").value)
        assert num == pytest.approx(cf, rel=1e-6)

    def test_translation_invariance(self, edge_grid):
        # rigidly shifting the whole scene leaves the energy unchanged
        base = _two_halfplate_scene(0.3, 0.5, 1.0,
                                    BoundaryCondition.DIRICHLET)
        shifted = Scene(
            (SceneObject(HalfPlate(0.3), FramePose((-2.0, 1.5), 0.3)),
             SceneObject(HalfPlate(0.5), FramePose((-1.0, 1.5), 0.5))),
            BoundaryCondition.DIRICHLET, mode="edge")
        e0 = reflection_series(base, 4, edge_grid).total
        e1 = reflection_series(shifted, 4, edge_grid).total
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_series_orders_decay(self, edge_grid):
        scene = _two_halfplate_scene(0.2, 0.1, 1.0,
                                     BoundaryCondition.DIRICHLET)
        br = reflection_series(scene, 6, edge_grid)
        assert abs(br.by_order[4]) < abs(br.by_order[2])
        assert abs(br.by_order[6]) < abs(br.by_order[4])
        assert br.truncation_estimate == abs(br.by_order[6])
        assert br.total == pytest.approx(sum(br.per_diagram.values()),
                                         rel=1e-14)

    def test_force_matches_finite_difference(self, edge_grid):
        scene = _two_halfplate_scene(0.3, 0.4, 1.0,
                                     BoundaryCondition.DIRICHLET)
        diagrams = enumerate_diagrams(2, 4)
        f = sum(_per_diagram(scene, edge_grid, diagrams, (2, (1.0, 0.0))))
        fd = sum(_central_differences(scene, 2, (1.0, 0.0), edge_grid,
                                      diagrams))
        assert abs(f - fd) < 1e-5 * max(abs(f), abs(fd))
        # attraction: the force on object 2 points back toward object 1
        assert f < 0
        # the [21] diagram alone must reproduce the closed-form gradient
        f2, = _per_diagram(scene, edge_grid, [canonicalize((1, 2))],
                           (2, (1.0, 0.0)))
        e = lambda D: (two_halfplates_energy(0.3, 0.4, D, 1.0, "D").value)
        grad = (e(1.001) - e(0.999)) / 0.002
        assert f2 == pytest.approx(-grad, rel=1e-4)

    def test_mirror_pair_energies_equal(self, edge_grid):
        # three half-plates: [123] and [132] are mirror partners; in this
        # left-right symmetric scene their energies coincide on the grid
        # (in general partners agree only in the continuum limit)
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
             SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
             SceneObject(HalfPlate(0.5 * math.pi), FramePose((0.0, 0.7),
                                                             0.5 * math.pi),
                         plane_normal=(1.0, 0.0))),
            BoundaryCondition.DIRICHLET, mode="edge")
        e123 = diagram_energy(scene, canonicalize((1, 2, 3)), edge_grid)
        e132 = diagram_energy(scene, canonicalize((1, 3, 2)), edge_grid)
        assert e123 == pytest.approx(e132, rel=1e-10)

    def test_diagram_outside_scene_rejected(self, edge_grid):
        scene = _two_halfplate_scene(0.0, 0.0, 1.0,
                                     BoundaryCondition.DIRICHLET)
        with pytest.raises(ValidationError):
            diagram_energy(scene, canonicalize((1, 3)), edge_grid)


class TestWallCancellation:
    @pytest.mark.parametrize("bc", ["D", "N"])
    def test_infinite_wall_blocks_pairwise_term(self, bc, edge_grid):
        # an infinite plate between two half-plates: [321] cancels [21]
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
             SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
             SceneObject(InfinitePlate(), FramePose((0.0, 0.0)))),
            BoundaryCondition.parse(bc), mode="edge")
        e12 = diagram_energy(scene, canonicalize((1, 2)), edge_grid)
        e123 = diagram_energy(scene, canonicalize((1, 2, 3)), edge_grid)
        assert abs(e12 + e123) < 1e-8 * abs(e12)

    def test_higher_order_pair_also_cancels(self, edge_grid):
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
             SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
             SceneObject(InfinitePlate(), FramePose((0.0, 0.0)))),
            BoundaryCondition.DIRICHLET, mode="edge")
        e132 = diagram_energy(scene, canonicalize((1, 3, 2)), edge_grid)
        e1323 = diagram_energy(scene, canonicalize((1, 3, 2, 3)), edge_grid)
        assert abs(e132 + e1323) < 1e-8 * abs(e132)


class TestInteractionI12:
    def test_free_two_body_reference(self, edge_grid):
        # with only the two facing plates, I12 equals -d^2 E / d d1 d d2
        # of the two-body series, checked by double finite differences
        def energy(d1, d2):
            s = Scene(
                (SceneObject(HalfPlate(0.0), FramePose((-d1, 0.0))),
                 SceneObject(HalfPlate(0.0), FramePose((+d2, 0.0)))),
                BoundaryCondition.DIRICHLET, mode="edge")
            return reflection_series(s, 4, edge_grid).total

        s0 = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
             SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0)))),
            BoundaryCondition.DIRICHLET, mode="edge")
        val = sum(_per_diagram(s0, edge_grid, [
            d for d in enumerate_diagrams(2, 4)
            if 1 in d.word and 2 in d.word], *I12))
        h = 1e-3
        fd = -(energy(1 + h, 1 + h) - energy(1 + h, 1 - h)
               - energy(1 - h, 1 + h) + energy(1 - h, 1 - h)) / (4 * h * h)
        assert val == pytest.approx(fd, rel=1e-5)


def _three_object_scene(bc=BoundaryCondition.DIRICHLET):
    """Two facing half-plates and a vertical one with a blocking line."""
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
         SceneObject(HalfPlate(0.2), FramePose((+0.8, 0.1), 0.2)),
         SceneObject(HalfPlate(0.5 * math.pi),
                     FramePose((0.0, 0.6), 0.5 * math.pi),
                     plane_normal=(1.0, 0.0))),
        bc, mode="edge")


def _blocking_scene(bc=BoundaryCondition.DIRICHLET):
    """The blocking layout: two tilt-0 half-plates at one height, whose
    kernels and mutual translations are real, and a vertical one."""
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
         SceneObject(HalfPlate(0.5 * math.pi),
                     FramePose((0.0, 0.6), 0.5 * math.pi),
                     plane_normal=(1.0, 0.0))),
        bc, mode="edge")


def _triples(word) -> list:
    """Directed triple (to, at, frm) = (word[k-1], word[k], word[k+1]) of
    each slot k, which fixes the channel of the reflection off word[k]."""
    n = len(word)
    return [(word[k - 1], word[k], word[(k + 1) % n]) for k in range(n)]


def _channel_sign(scene, triple):
    """Sign of the reflection in ``triple`` relative to its object's
    cached kernel, the LL one: RL = -s LL with s = bc.sign."""
    rl = _resolve_channel(scene, triple) is Channel.RL
    return -scene.bc.sign if rl else 1


def _kernel(scene, triple, grid, p):
    """Weighted T of the reflection in ``triple`` at radial frequency p,
    straight from the scattering builders."""
    obj = scene.object_index(triple[1])
    if isinstance(obj.descriptor, Needle):
        return needle_kernel_planar(obj.descriptor, p, grid)
    if isinstance(obj.descriptor, InfinitePlate):
        return infinite_plate_rl(grid)
    return halfplate_kernel(scene.bc, _resolve_channel(scene, triple),
                            obj.pose.tilt, grid)


def _explicit_trace(scene, word, grid, p, inserted, magnitude=False,
                    kernel=None):
    """tr prod_k diag(u_k f_k) T_k, multiplied out left to right in
    complex arithmetic, with u_k the translation from word[k] to
    word[k-1], T_k built at p and f_k the product of the factors
    ``inserted`` puts at slot k (1 where there is none).

    ``kernel = (k, c)`` replaces T_k by -i c (S T_k - T_k S), S =
    diag(sinh(alpha)), the engine's kernel insertion with factor c; at
    c = -p dy/ds it is what a move of T_k's object along y adds.

    With ``magnitude`` every block entry is replaced by its modulus: the
    sum of the moduli of the terms the trace adds up, the scale of its
    rounding error and of any rows a rapidity window drops."""
    a = grid.alpha_nodes
    prod = np.eye(grid.n_alpha, dtype=complex)
    for k in range(len(word)):
        u = np.exp(-p * translation_exponent(
            scene.object_index(word[k - 1]).pose,
            scene.object_index(word[k]).pose, np.cosh(a), np.sinh(a)))
        for slot, f in inserted:
            if slot == k:
                u = u * f
        t = _kernel(scene, _triples(word)[k], grid, p)
        if kernel is not None and kernel[0] == k:
            s = kernel[1] * np.sinh(a)
            t = -1j * (s[:, None] * t - t * s[None, :])
        block = u[:, None] * t
        prod = prod @ (np.abs(block) if magnitude else block)
    return np.trace(prod)


def _slot_moves(scene, word, moving, direction):
    """slot -> (d Delta_par/ds, d Delta_perp/ds) of every slot whose
    translation moves with one object along ``direction``: the
    derivative of u_k is -p (d Delta_par cosh + i d Delta_perp sinh) u_k.
    The complex oracle for the engine's split into decay and kernel
    insertions."""
    out = {}
    for k, (to, at) in enumerate(_pairs(word)):
        if moving not in (to, at):
            continue
        sx = math.copysign(1.0, scene.object_index(to).pose.origin[0]
                           - scene.object_index(at).pose.origin[0])
        sgn = 1.0 if to == moving else -1.0
        out[k] = (sx * sgn * direction[0], sgn * direction[1])
    return out


def _explicit_integral(scene, word, grid, moves):
    """int dr Re tr of the explicit complex chain (``_explicit_trace``)
    with the derivative insertions of ``moves`` summed over all their
    placements: the engine's ``_integrate`` value of one query.  dr is
    p dp for an edge scene and dkappa for a pure-2D one, on the grid's
    plain int dp."""
    cosh_a, sinh_a = np.cosh(grid.alpha_nodes), np.sinh(grid.alpha_nodes)
    acc = 0.0
    for p, wp in zip(grid.p_nodes, grid.p_weights):
        if scene.mode == "edge":
            wp = wp * p
        per_move = [[(k, -p * (dpar * cosh_a + 1j * dperp * sinh_a))
                     for k, (dpar, dperp) in _slot_moves(
                         scene, word, obj, d).items()]
                    for obj, d in moves]
        for placement in itertools.product(*per_move):
            acc += wp * _explicit_trace(scene, word, grid, p,
                                        list(placement)).real
    return acc


def _scratch(grid):
    """A buffer for the per-node images of one scene's links to rotate
    in (``_Workspace.scratch``)."""
    return np.empty(2 * grid.n_alpha ** 2)


def _node_links(scene, word, grid, p):
    """Links of ``word`` at radial frequency p, from a one-node table,
    with the image gradients of every object."""
    return _links(_link_table((scene,), [word], grid, [p], set(word)), 0,
                  p, _scratch(grid))


def _one_query(word, slot_sets, links, factors, kernel=False, ws=None):
    """The engine's trace of ``word`` for the one query whose insertion
    j takes the slots slot_sets[j] with the factors factors[j], even
    vectors on the rapidities (taken to their pair vectors) or the
    scalars of a kernel insertion; with ``kernel`` its one insertion is
    a kernel insertion.  ``ws`` is the workspace, which counts the
    products, a fresh one by default."""
    t = next(iter(links.values()))[1]
    h = (t[0] if isinstance(t, tuple) else t).shape[-2]
    plan = _plan(word, [slot_sets], {0} if kernel else ())
    factors = [{k: _pair(f) if np.ndim(f) else f for k, f in fs.items()}
               for fs in factors]
    return _closed_trace(_pairs(word), plan, links, [factors],
                         ws or _Workspace(2 * h))[0]


def _dense(t):
    """A link's image or gradient as a matrix: the product of a factor
    pair (a needle in rank space), or the matrix itself."""
    return t[0] @ t[1] if isinstance(t, tuple) else t


class TestSegmentProductEngine:
    WORDS = [(1, 2), (1, 2, 3), (1, 3, 2, 3), (1, 2, 1, 3), (1, 2, 1, 2),
             (1, 2, 1, 2, 3), (1, 3, 1, 2, 3), (1, 2, 3, 1, 2, 3)]
    P = 0.4

    @pytest.fixture(scope="class")
    def setup(self):
        return _three_object_scene(), build_grid(16, 8, p_scale=0.5)

    @staticmethod
    def _factors(n, seed):
        """n random even real factors on the 16 rapidities, as the decay
        insertions are."""
        rng = np.random.default_rng(seed)
        return [f + f[::-1] for f in rng.normal(size=(n, 16))]

    def _engine(self, setup, word, slot_sets, factors, kernel=False):
        scene, grid = setup
        links = _node_links(scene, word, grid, self.P)
        return _one_query(word, slot_sets, links, factors, kernel)

    @pytest.mark.parametrize("word", WORDS)
    def test_energy(self, setup, word):
        ref = _explicit_trace(setup[0], word, setup[1], self.P, [])
        got = self._engine(setup, word, [], [])
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("word", WORDS)
    def test_every_single_slot(self, setup, word):
        f = self._factors(len(word), 1)
        for k in range(len(word)):
            ref = _explicit_trace(setup[0], word, setup[1], self.P,
                                  [(k, f[k])])
            got = self._engine(setup, word, [{k}], [{k: f[k]}])
            assert abs(got - ref) <= 1e-12 * abs(ref), k

    @pytest.mark.parametrize("word", WORDS)
    def test_every_kernel_slot(self, setup, word):
        f = np.random.default_rng(8).normal(size=len(word))
        for k in range(len(word)):
            ref = _explicit_trace(setup[0], word, setup[1], self.P, [],
                                  kernel=(k, f[k]))
            got = self._engine(setup, word, [{k}], [{k: f[k]}],
                               kernel=True)
            assert abs(got - ref) <= 1e-12 * abs(ref), k
        # one plan over the whole slot set closes every placement once
        ref = sum(_explicit_trace(setup[0], word, setup[1], self.P, [],
                                  kernel=(k, f[k]))
                  for k in range(len(word)))
        got = self._engine(setup, word, [set(range(len(word)))],
                           [dict(enumerate(f))], kernel=True)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("word", WORDS)
    def test_every_slot_pair(self, setup, word):
        n = len(word)
        f1, f2 = self._factors(n, 2), self._factors(n, 3)
        for k1, k2 in itertools.product(range(n), repeat=2):
            ref = _explicit_trace(setup[0], word, setup[1], self.P,
                                  [(k1, f1[k1]), (k2, f2[k2])])
            got = self._engine(setup, word, [{k1}, {k2}],
                               [{k1: f1[k1]}, {k2: f2[k2]}])
            assert abs(got - ref) <= 1e-12 * abs(ref), (k1, k2)

    @pytest.mark.parametrize("word", WORDS)
    def test_slot_sets_sum_their_placements(self, setup, word):
        # one plan over whole slot sets closes every placement once
        n = len(word)
        f1, f2 = self._factors(n, 4), self._factors(n, 5)
        s1, s2 = set(range(0, n, 2)), set(range(n))
        ref = sum(_explicit_trace(setup[0], word, setup[1], self.P,
                                  [(k1, f1[k1]), (k2, f2[k2])])
                  for k1 in s1 for k2 in s2)
        got = self._engine(setup, word, [s1, s2],
                           [{k: f1[k] for k in s1}, {k: f2[k] for k in s2}])
        assert abs(got - ref) <= 1e-12 * abs(ref)
        ref = sum(_explicit_trace(setup[0], word, setup[1], self.P,
                                  [(k, f1[k])]) for k in s2)
        got = self._engine(setup, word, [s2], [{k: f1[k] for k in s2}])
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("word,period", [
        ((1, 2), 2), ((1, 2, 3), 3), ((1, 2, 1, 3), 4), ((1, 2, 1, 2), 2),
        ((1, 2, 1, 2, 3), 5), ((1, 2, 3, 1, 2, 3), 3)])
    def test_matmul_counts(self, setup, word, period):
        scene, grid = setup
        n = len(word)
        links = _node_links(scene, word, grid, self.P)
        ones = np.ones(grid.n_alpha)

        def products(slot_sets):
            ws = _Workspace(grid.n_alpha)
            _one_query(word, slot_sets, links,
                       [dict.fromkeys(s, ones) for s in slot_sets], ws=ws)
            # plates only: every product is n x n
            assert ws.thin == 0
            return ws.dense
        # the energy needs at most n - 2 products, one fewer than the
        # chain; any insertion sets need at most one product per distinct
        # arc of length 2 .. n-1, and a word of period d has d arcs of
        # each length
        assert products([]) <= n - 2
        assert products([set(range(n))]) <= period * (n - 2)
        assert products([set(range(n)), set(range(n))]) <= period * (n - 2)
        # the count is real: a trace of more than two blocks needs one
        assert products([]) >= min(1, n - 2)

    @pytest.fixture(scope="class")
    def real_setup(self):
        return _blocking_scene(), build_grid(16, 8, p_scale=0.5)

    @pytest.mark.parametrize("word", WORDS)
    def test_real_chains(self, real_setup, word):
        # every link is float64, the vertical plate off height 0
        # included, and the engine matches the complex chain
        scene, grid = real_setup
        links = _node_links(scene, word, grid, self.P)
        for u, t, _, g in links.values():
            assert u.dtype == t.dtype == g.dtype == np.float64
        n = len(word)
        f1, f2 = self._factors(n, 6), self._factors(n, 7)
        cases = [([], [], [])]
        cases += [([{k}], [{k: f1[k]}], [(k, f1[k])]) for k in range(n)]
        cases += [([{k1}, {k2}], [{k1: f1[k1]}, {k2: f2[k2]}],
                   [(k1, f1[k1]), (k2, f2[k2])])
                  for k1, k2 in itertools.product(range(n), repeat=2)]
        for slot_sets, factors, inserted in cases:
            ref = _explicit_trace(scene, word, grid, self.P, inserted)
            got = self._engine(real_setup, word, slot_sets, factors)
            assert abs(got - ref) <= 1e-12 * abs(ref), slot_sets

    def test_forces_match_central_differences(self, edge_grid):
        # a move along y: each diagram's kernel-insertion force against
        # the central difference of its energies, and their sums
        scene = _three_object_scene()
        diagrams = [canonicalize(w) for w in ((1, 3), (1, 2, 3), (1, 3, 2))]
        terms = _per_diagram(scene, edge_grid, diagrams, (3, (0.0, 1.0)))
        fds = _central_differences(scene, 3, (0.0, 1.0), edge_grid,
                                   diagrams)
        f, fd = sum(terms), sum(fds)
        assert abs(f - fd) < 1e-5 * max(abs(f), abs(fd))
        for t, d in zip(terms, fds):
            assert abs(t - d) < 1e-5 * max(abs(t), abs(d))


class TestLinkTable:
    def test_each_pair_built_once_per_engine_call(self, monkeypatch):
        # the 9 three_halfplates diagrams hold all 6 directed (to, at)
        # pairs of 3 objects; one engine call builds each pair's decay
        # exponent once, not once per radial node or diagram slot
        from casimir2d import assembly
        from casimir2d.scenarios import ScenarioConfig, build
        bld = build(ScenarioConfig("three_halfplates", n_alpha=16, n_p=8))
        assert len(bld.diagrams) == 9
        grid = build_grid(16, 8, p_scale=bld.p_scale)
        calls = []
        real = assembly.decay_exponent

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "decay_exponent", counted)
        _per_diagram(bld.scene, grid, bld.diagrams, (1, (0.0, 1.0)))
        assert len(calls) == 6

    @pytest.mark.parametrize("scenario,bc,moving,query,builds", [
        # the two tilt-0 plates share one kernel
        ("gap_repulsion", "N", 3, "energy+force", 1),
        # the tilt-0 plates share one, the vertical plate has its own
        ("blocking", "D", None, "I12", 2),
        # the Neumann RL kernel is -LL: the vertical plate's RL and LL
        # reflections share one
        ("blocking", "N", None, "I12", 2),
        # plates 2 and 3 share one kernel per channel
        ("three_halfplates", "D", 1, "force", 2)])
    def test_kernels_keyed_by_content(self, monkeypatch, scenario, bc,
                                      moving, query, builds):
        from casimir2d import assembly
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=16, n_p=8)
        bld = build(cfg)
        calls = []
        real = assembly.halfplate_kernel

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "halfplate_kernel", counted)
        TestEngineTraffic.CALLS[query](bld.scene, moving,
                                       _grid_for(cfg, bld), bld.diagrams)
        assert len(calls) == builds

    def test_one_image_per_kernel_and_height(self):
        # the two tilt-0 plates of a blocking scene share one image, at
        # height 0, for all four of their links; the vertical plate's
        # links share one per-node image
        bld, grid = TestEngineTraffic._workload("blocking")
        words = [d.word for d in bld.diagrams]
        table = _link_table((bld.scene,), words, grid, grid.p_nodes)
        images = collections.defaultdict(set)
        for (_, at), image, *_ in table:
            images[at].add(id(image))
        assert images[1] == images[2]
        assert len(images[1]) == len(images[3]) == 1

    def test_neumann_rl_shares_the_ll_image(self):
        # the vertical plate reflects in LL and RL; its Neumann links
        # share one per-node image, and each link carries its edge sign
        # e_xy = sigma_y(x) sigma_x(y) on its decay: -1 on the two links
        # of plate 1, which lies on the negative side of the vertical
        # plate's line, and the vertical plate
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig("blocking", bc="N", n_alpha=16, n_p=8)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        words = [d.word for d in bld.diagrams]
        table = _link_table((bld.scene,), words, grid, grid.p_nodes)
        images = {id(image) for (_, at), image, *_ in table if at == 3}
        assert len(images) == 1
        signs = {pair: sign for pair, _, sign, *_ in table}
        assert len(signs) == 6
        assert signs == {pair: -1 if 1 in pair and 3 in pair else 1
                         for pair in signs}
        links = _links(table, 4, grid.p_nodes[4], _scratch(grid))
        for pair, _, sign, *_ in table:
            assert (np.sign(links[pair][0]) == sign).all()

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_edge_signs_multiply_to_the_channel_signs(self, bc):
        # round every closed walk to order 5 the edge signs multiply to
        # the product of the reflections' channel signs (-s for RL), in
        # scenes with blocking lines along y and along x
        scenes = [_three_object_scene(bc), _blocking_scene(bc),
                  _staggered_scene(bc), TestRealKernels._scene(bc)]
        rl = 0
        for scene in scenes:
            for diag in enumerate_diagrams(scene.M, 5):
                word = diag.word
                channel = math.prod(_channel_sign(scene, tr)
                                    for tr in _triples(word))
                assert math.prod(_edge_sign(scene, *pr)
                                 for pr in _pairs(word)) == channel, word
                rl += channel < 0
        assert (rl > 0) == (bc is BoundaryCondition.NEUMANN)

    @pytest.mark.parametrize("scenario,bc,moving,query", [
        ("blocking", "N", None, "I12"), ("three_halfplates", "D", 1, "force"),
        ("gap_repulsion", "N", 3, "energy+force")])
    def test_one_link_per_directed_pair(self, monkeypatch, scenario, bc,
                                        moving, query):
        # a bundled three-object pass holds one link per directed (to,
        # at) pair, 6, where its diagrams hold 10 or 12 triples; each
        # link's R[W] is its one array sign p^m exp(-p g[W])
        from casimir2d import assembly
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=16, n_p=8)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        tables = []
        real = assembly._link_table

        def spy(*args, **kwargs):
            tables.append(real(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(assembly, "_link_table", spy)
        TestEngineTraffic.CALLS[query](bld.scene, moving, grid, bld.diagrams)
        table, = tables
        assert sorted(pair for pair, *_ in table) == [
            (x, y) for x in (1, 2, 3) for y in (1, 2, 3) if x != y]
        assert len({tr for d in bld.diagrams
                    for tr in _triples(d.word)}) in (10, 12)
        for i in (0, 5):
            p = grid.p_nodes[i]
            links = _links(table, i, p, _scratch(grid))
            for pair, _, sign, m, g, windows in table:
                assert sign == _edge_sign(bld.scene, *pair)
                assert np.array_equal(links[pair][0], sign * p ** m
                                      * np.exp(-p * g[windows[i]]))


class TestGaugeAndStaticCores:
    """The height-phase gauge sits at the height shared by the most
    kernels, and a two-slot diagram of static images closes on one full
    core per pass."""

    @staticmethod
    def _count_cores(monkeypatch):
        from casimir2d import assembly
        calls = []
        real = assembly._static_core

        def counted(x, y):
            calls.append(x.shape[-2:])
            return real(x, y)

        monkeypatch.setattr(assembly, "_static_core", counted)
        return calls

    @staticmethod
    def _bypass(monkeypatch):
        from casimir2d import assembly
        monkeypatch.setattr(assembly, "_Workspace",
                            lambda n_alpha, static, **kw: _Workspace(n_alpha,
                                                                **kw))

    @pytest.mark.parametrize("scenario,bc,call", [
        ("two_halfplates", "D", "energy"),
        ("two_halfplates", "N", "energy"),
        ("blocking", "D", "I12"),
        ("blocking", "N", "I12")])
    def test_core_once_per_pass(self, monkeypatch, scenario, bc, call):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=32, n_p=16)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        run = TestEngineTraffic.CALLS[call]
        cores = self._count_cores(monkeypatch)
        got = run(bld.scene, None, grid, bld.diagrams)
        # only [12] has two slots and both its plates at the gauge; its
        # core spans the 16 rapidity pairs
        assert cores == [(16, 16)]
        self._bypass(monkeypatch)
        ref = run(bld.scene, None, grid, bld.diagrams)
        assert cores == [(16, 16)]
        assert any(ref)
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-14 * abs(r)

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_gauge_at_the_shared_height(self, monkeypatch, bc):
        # both plates at y = 1.5: the gauge moves there, no image is
        # per-node, [12] closes on its static core, and the energies are
        # those of the plates at y = 0
        grid = build_grid(32, 16, p_scale=0.5)
        diagrams = enumerate_diagrams(2, 4)
        scenes = [Scene(
            (SceneObject(HalfPlate(0.7), FramePose((0.0, y), 0.7)),
             SceneObject(HalfPlate(0.3), FramePose((1.0, y), 0.3))),
            bc, mode="edge") for y in (0.0, 1.5)]
        table = _link_table(scenes[1:], [d.word for d in diagrams], grid,
                            grid.p_nodes)
        assert {image.y for _, image, *_ in table} == {0.0}
        cores = self._count_cores(monkeypatch)
        ref = _per_diagram(scenes[0], grid, diagrams)
        assert len(cores) == 1
        got = _per_diagram(scenes[1], grid, diagrams)
        assert len(cores) == 2
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-13 * abs(r)

    @pytest.mark.parametrize("heights,gauge", [
        ((0.0, 1.5, 1.5), 1.5),   # two kernels at 1.5, one at 0
        ((0.0, 1.5, 0.0), 0.0),
        ((1.5, 0.0, -2.0), 0.0),  # a tie goes to 0
        ((1.5, -2.0, 0.7), -2.0),  # else to the lowest
    ])
    def test_gauge_choice(self, heights, gauge):
        scene = Scene(tuple(
            SceneObject(HalfPlate(tilt), FramePose((x, y), tilt))
            for x, y, tilt in zip((-1.0, 0.0, 1.0), heights,
                                  (0.1, 0.2, 0.3))),
            BoundaryCondition.DIRICHLET, mode="edge")
        assert _gauge((scene,), _pairs((1, 2, 3))) == gauge

    def test_equal_kernels_at_one_height_count_once(self):
        # the blocking plates share one kernel at y = 0; the vertical
        # plate's one kernel (LL and RL alike) ties it there
        from casimir2d.scenarios import ScenarioConfig, build
        for bc in ("D", "N"):
            bld = build(ScenarioConfig("blocking", bc=bc, h=0.6))
            pairs = {pr for d in bld.diagrams for pr in _pairs(d.word)}
            assert _gauge((bld.scene,), pairs) == 0.0


class TestRealKernels:
    """Every kernel is cached beside its pair image, the parity image Re
    T - Im T P in the even/odd pair basis, float64 and block-diagonal
    for a real kernel; a kernel off height 0 gets the image of its
    phased T~ at every radial node."""

    @staticmethod
    def _scene(bc):
        half_pi = 0.5 * math.pi
        # object 1 is a tilt-0 plate whose blocking line y = 0 puts
        # object 2 and object 3 on opposite sides: RL between them.  The
        # needles (objects 5 and 6) take the Neumann scalar only
        plates = (SceneObject(HalfPlate(0.0), FramePose((0.0, 0.0)),
                              plane_normal=(0.0, 1.0)),
                  SceneObject(HalfPlate(0.2), FramePose((1.0, 0.5), 0.2)),
                  SceneObject(HalfPlate(half_pi),
                              FramePose((-1.0, -0.5), half_pi)),
                  SceneObject(InfinitePlate(), FramePose((2.0, 1.0))))
        needles = (SceneObject(Needle(0.1, 0.05, 0.2, 0.3),
                               FramePose((-2.0, 1.0))),
                   SceneObject(Needle(0.0, 0.0, 1e-4, half_pi),
                               FramePose((3.0, 1.0))))
        if bc is not BoundaryCondition.NEUMANN:
            needles = ()
        return Scene(plates + needles, bc, mode="edge")

    CASES = [((2, 1, 3), Channel.RL),  # tilt 0
             ((2, 1, 4), Channel.LL),
             ((1, 2, 3), None),        # tilted
             ((1, 3, 2), None),        # vertical
             ((1, 4, 2), None),        # wall
             ((1, 5, 2), None),        # needles
             ((1, 6, 2), None)]

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_kernel_dtypes(self, bc):
        # the object's cached image times the reflection's channel sign
        # is the pair image of the builder's kernel: the RL half-plate
        # shares its LL entry, with sign -s; the cache holds float64
        # arrays only, block-diagonal ones for the real kernels (tilt 0
        # and the wall)
        grid = build_grid(16, 8, p_scale=0.5)
        q = _pair_matrix(16)
        scene = self._scene(bc)
        cache: dict = {}
        for (triple, chan), real in zip(self.CASES, (True, True, False,
                                                     False, True, False,
                                                     False)):
            if max(triple) > scene.M:
                continue
            if chan is not None:
                assert _resolve_channel(scene, triple) is chan
            key = _kernel_key(scene, triple[1])
            sign = _channel_sign(scene, triple)
            image, log_rho, _ = _t_hat(key, grid, cache)
            ref = _kernel(scene, triple, grid, 1.0)
            assert log_rho.dtype == np.float64
            # the pair image is the parity image in the pair basis
            want = q @ _image(ref) @ q.T
            if key[0] == "needle":
                # a needle is cached as its factors (E, M, W) in the
                # pair basis, whose product is its image to rounding
                e, m, w = image
                assert e.shape == (2, 8, 3) and w.shape == (8,)
                assert e.dtype == m.dtype == w.dtype == np.float64
                got = _laid_out((e @ m, e.swapaxes(-1, -2) * w))
                assert np.abs(sign * got - want).max() <= (
                    1e-15 * np.abs(want).max()), triple
                continue
            assert image.dtype == np.float64
            assert image.ndim == (3 if real else 4), triple
            assert np.array_equal(sign * _expand(image),
                                  _pair_blocks(ref)), triple
            assert np.abs(sign * _laid_out(image) - want).max() <= (
                1e-15 * np.abs(want).max()), triple

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_phased_images(self, bc):
        # at every node, each link's block is the image of T~ = T e^{i p y
        # (sinh a - sinh b)} on its window, y the height above the gauge,
        # and its gradient the image of -i (S T~ - T~ S), S = diag(sinh
        # a); its sign and p^m sit in the decay
        grid = build_grid(16, 8, p_scale=0.5)
        scene = self._scene(bc)
        words = [w for w in [(1, 2, 3), (1, 3, 2), (1, 4, 2), (1, 5, 2),
                             (1, 6, 2), (2, 1, 3), (2, 1, 4)]
                 if max(w) <= scene.M]
        table = _link_table((scene,), words, grid, grid.p_nodes,
                            range(1, scene.M + 1))
        # the gauge: the wall and both needles sit at y = 1; without the
        # needles every height holds one kernel, and ties go to 0
        gauge = 1.0 if scene.M == 6 else 0.0
        sinh_a = np.sinh(grid.alpha_nodes)
        for i, p in enumerate(grid.p_nodes):
            links = _links(table, i, p, _scratch(grid))
            for word in words:
                for triple, pair, nxt in zip(_triples(word), _pairs(word),
                                             _pairs(word[1:] + word[:1])):
                    u, t, w, g = links[pair]
                    cols = links[nxt][2]
                    y = scene.object_index(pair[1]).pose.origin[1] - gauge
                    phase = np.exp(1j * p * y * sinh_a)
                    # the keyed kernel, the builder's up to the channel
                    # sign
                    ref = (_channel_sign(scene, triple)
                           * _kernel(scene, triple, grid, 1.0))
                    ref = phase[:, None] * ref * phase.conj()
                    dref = -1j * (sinh_a[:, None] * ref - ref * sinh_a)
                    # a needle's image and gradient are factor pairs
                    t, g = _expand(t), _expand(g)
                    assert t.dtype == g.dtype == np.float64
                    for got, want in ((t, ref), (g, dref)):
                        ref = _pair_blocks(want)[..., w, cols]
                        assert np.allclose(
                            got[..., w, cols], ref, rtol=0,
                            atol=1e-15 * np.abs(want).max()), (i, triple)


    def test_one_real_representation(self, monkeypatch):
        # after a blocking Neumann I12 pass every cached kernel entry and
        # every buffer of every image is float64: no complex T is kept
        from casimir2d import assembly
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig("blocking", bc="N", n_alpha=16, n_p=8)
        bld = build(cfg)
        caches, tables = [], []
        real_hat, real_table = assembly._t_hat, assembly._link_table

        def t_hat(key, grid, cache):
            caches.append(cache)
            return real_hat(key, grid, cache)

        def link_table(*args, **kwargs):
            tables.append(real_table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(assembly, "_t_hat", t_hat)
        monkeypatch.setattr(assembly, "_link_table", link_table)
        assert any(_per_diagram(bld.scene, _grid_for(cfg, bld),
                                bld.diagrams, *I12))
        table, = tables
        # one kernel cache per pass
        cache, = {id(c): c for c in caches}.values()
        assert len(cache) == 2
        for image, log_rho, m in cache.values():
            assert image.dtype == log_rho.dtype == np.float64
            assert isinstance(m, int)
        # the plates' static image and the vertical plate's per-node one
        images = {id(image): image for _, image, *_ in table}.values()
        assert len(images) == 2 and any(image.y for image in images)
        for image in images:
            buffers = [image.image, image.out, image.grad]
            for buf in buffers:
                assert buf is None or buf.dtype == np.float64


class TestPairBasis:
    """The pair images are the parity images Re T - Im T P in the
    even/odd pair basis, an orthogonal change of basis, and the real
    kernels' ones are exactly block-diagonal."""

    @pytest.fixture(scope="class")
    def kernels(self):
        from casimir2d.cli import _parity_kernels
        from casimir2d.quadrature import build_alpha_grid
        from casimir2d.scenarios import ScenarioConfig
        grid = build_alpha_grid(ScenarioConfig.n_alpha)
        return grid, _parity_kernels(grid)

    def test_power_traces(self, kernels):
        # every kernel of the verify list: tr T'^k of the pair image is
        # that of the parity image, k = 1..4, to 1e-13 of tr |T'|^k; a
        # needle's also from the factors the engine keeps
        grid, (plates, needles) = kernels
        cases = [(t, _laid_out(_pair_blocks(t))) for t in plates]
        for desc, t in needles:
            (e, m, w), _, _ = _t_hat(("needle", desc), grid, {})
            cases += [(t, _laid_out(_pair_blocks(t))),
                      (t, _laid_out((e @ m, e.swapaxes(-1, -2) * w)))]
        for t, pair in cases:
            image = _image(t)
            power, power_pair, power_abs = image, pair, np.abs(image)
            for k in range(1, 5):
                scale = np.trace(power_abs)
                assert abs(np.trace(power_pair) - np.trace(power)) <= (
                    1e-13 * scale), k
                power, power_pair = power @ image, power_pair @ pair
                power_abs = power_abs @ np.abs(image)

    def test_real_kernels_are_block_diagonal(self, kernels):
        # the tilt-0 half-plates (D and N, LL and RL) and the wall: the
        # parity blocks EO and OE are exactly 0, and the engine keeps
        # the two diagonal blocks alone; a tilted or vertical plate
        # keeps four
        grid, (plates, _) = kernels
        for t in plates[:4] + plates[-1:]:
            blocks = _pair_blocks(t)
            assert not blocks[0, 1].any() and not blocks[1, 0].any()
            assert blocks[0, 0].any() and blocks[1, 1].any()
        for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            cache: dict = {}
            for key, ndim in ((("hp", bc, 0.0), 3), (("wall",), 3),
                              (("hp", bc, 0.3), 4),
                              (("hp", bc, 0.5 * math.pi), 4)):
                image = _t_hat(key, grid, cache)[0]
                assert image.ndim == ndim, key
                assert np.array_equal(_expand(image),
                                      _pair_blocks(_kernel_of(key, grid)))


def _kernel_of(key, grid):
    """The builder's weighted T of a plate's content key."""
    if key[0] == "wall":
        return infinite_plate_rl(grid)
    return halfplate_kernel(key[1], Channel.LL, key[2], grid)


class TestEngineTraffic:
    """The engine calls the four benchmark workloads make, on 16x8 grids."""

    CALLS = {
        "force": lambda scene, moving, grid, diagrams: _per_diagram(
            scene, grid, diagrams, (moving, (0.0, 1.0))),
        "energy": lambda scene, moving, grid, diagrams: _per_diagram(
            scene, grid, diagrams),
        "I12": lambda scene, moving, grid, diagrams: _per_diagram(
            scene, grid, diagrams, *I12),
        "energy+force": lambda scene, moving, grid, diagrams: evaluate(
            (scene,), diagrams, grid, [(), ((moving, (0.0, 1.0)),)]),
    }

    @staticmethod
    def _workload(scenario):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        # the needle scenario is pure-2D EM, the Neumann scalar
        bc = "N" if scenario == "gap_repulsion" else "D"
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=16, n_p=8)
        bld = build(cfg)
        return bld, _grid_for(cfg, bld)

    @staticmethod
    def _workspaces(monkeypatch, call) -> list:
        """The workspaces of the engine passes ``call()`` makes."""
        from casimir2d import assembly
        made = []

        def workspace(*args, **kwargs):
            made.append(_Workspace(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(assembly, "_Workspace", workspace)
        call()
        return made

    @classmethod
    def _products(cls, monkeypatch, call) -> list:
        """[n x n products, thin products] of the engine passes ``call()``
        makes, as their workspaces count them."""
        made = cls._workspaces(monkeypatch, call)
        return [sum(ws.dense for ws in made), sum(ws.thin for ws in made)]

    # the forces move along y, so their insertions are kernel
    # insertions, each closed on the cut (k, k+1).  A needle runs in rank
    # space: its blocks are factor pairs, so every product that holds
    # one is thin and a needle pass makes only the plate-plate n x n
    # products of [123] and [132].  A thin closing is two products; the
    # needle energies close on the corner of the force's closing, with
    # no product of their own.  The n x n products by the forms of their
    # factors, (bd bd, bd full, full bd, full full): the tilt-0 plates at
    # height 0 are block-diagonal, and a plate off it, tilted or
    # vertical is full; share is the products' multiply-adds over those
    # of the same products with both factors full
    TRAFFIC = [
        ("three_halfplates", 1, "force", 14, 0, (6, 4, 4, 0), 0.3961),
        ("three_halfplates", 1, "energy", 10, 0, (4, 0, 6, 0), 0.4027),
        ("blocking", None, "I12", 30, 0, (10, 12, 8, 0), 0.4192),
        ("blocking", None, "energy", 9, 0, (3, 4, 2, 0), 0.4199),
        ("gap_repulsion", 3, "force", 2, 8, (2, 0, 0, 0), 0.25),
        ("gap_repulsion", 3, "energy", 0, 10, (0, 0, 0, 0), None),
        ("gap_repulsion", 3, "energy+force", 2, 8, (2, 0, 0, 0), 0.25),
        ("two_halfplates", None, "energy", 1, 0, (1, 0, 0, 0), 0.25)]

    @pytest.mark.parametrize(
        "scenario,moving,call,dense,thin,kinds,share", TRAFFIC,
        ids=["-".join(map(str, case[:5])) for case in TRAFFIC])
    def test_matmuls_per_radial_node(self, monkeypatch, scenario, moving,
                                     call, dense, thin, kinds, share):
        bld, grid = self._workload(scenario)
        made = self._workspaces(monkeypatch, lambda: self.CALLS[call](
            bld.scene, moving, grid, bld.diagrams))
        assert [sum(ws.dense for ws in made),
                sum(ws.thin for ws in made)] == [dense * grid.n_p,
                                                 thin * grid.n_p]
        per_kind = [sum(ws.kinds[kind] for ws in made)
                    for kind in _KINDS]
        assert per_kind == [k * grid.n_p for k in kinds]
        assert sum(per_kind) == dense * grid.n_p
        madds = sum(ws.madds for ws in made)
        full = sum(ws.madds_full for ws in made)
        if share is None:
            assert madds == full == 0
        else:
            assert madds / full == pytest.approx(share, abs=1e-4)

    @staticmethod
    def _peak_live_arcs(word, plan) -> int:
        """Most product arcs (length >= 2) alive at once while
        ``_closed_trace`` runs ``plan``: each cut builds its two arcs up
        from their longest live suffixes, then drops what no later cut
        reads."""
        period, cuts = plan
        n = len(word)
        live: set = set()
        peak = 0
        for a, b, _, drop in cuts:
            for end, length in (((b - 1) % period, b - a),
                                ((a - 1) % period, n - b + a)):
                have = length
                while have > 1 and (end, have) not in live:
                    have -= 1
                live |= {(end, ln) for ln in range(have + 1, length + 1)}
            peak = max(peak, len(live))
            live -= set(drop)
        return peak

    def test_no_per_node_allocation(self, monkeypatch):
        # a pass makes its buffers once: a blocking I12 pass makes as many
        # on 16 radial nodes as on 8, no more than the most arcs its plans
        # keep alive at once plus the two scratch buffers
        from casimir2d import assembly
        bld, _ = self._workload("blocking")
        made, plans = [], []
        real_plan = assembly._plan

        def workspace(*args, **kwargs):
            made.append(_Workspace(*args, **kwargs))
            return made[-1]

        def plan(word, *args):
            plans.append((word, real_plan(word, *args)))
            return plans[-1][1]

        monkeypatch.setattr(assembly, "_Workspace", workspace)
        monkeypatch.setattr(assembly, "_plan", plan)
        created = []
        for n_p in (8, 16):
            made.clear()
            plans.clear()
            grid = build_grid(16, n_p, p_scale=bld.p_scale)
            _per_diagram(bld.scene, grid, bld.diagrams, *I12)
            assert len(made) == 1
            created.append(made[0].created)
            assert len(made[0].free) == created[-1] - 2
        peak = max(self._peak_live_arcs(word, p) for word, p in plans)
        assert peak >= 2
        assert created[0] == created[1] <= peak + 2

    def test_needle_batch_products_per_radial_node(self, monkeypatch):
        # a batch of 4 needle heights makes the products of one scene:
        # each stacked product is one call for the whole batch
        bld, grid = self._workload("gap_repulsion")
        scenes = tuple(_lift(bld.scene, 3, h) for h in (0.1, 0.4, 0.7, 1.2))
        queries = [(), ((3, (0.0, 1.0)),)]
        one = self._products(monkeypatch, lambda: evaluate(
            scenes[:1], bld.diagrams, grid, queries))
        four = self._products(monkeypatch, lambda: evaluate(
            scenes, bld.diagrams, grid, queries))
        assert one == four == [2 * grid.n_p, 8 * grid.n_p]

    def test_needle_batch_keeps_the_buffers_of_one_scene(self, monkeypatch):
        # a needle's stacked factors are arrays of their own: a batch over
        # the needle's height stacks no workspace buffer
        from casimir2d import assembly
        bld, grid = self._workload("gap_repulsion")
        scenes = tuple(_lift(bld.scene, 3, h) for h in (0.1, 0.4, 0.7, 1.2))
        made = []

        def workspace(*args, **kwargs):
            made.append(_Workspace(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(assembly, "_Workspace", workspace)
        evaluate(scenes, bld.diagrams, grid, [(), ((3, (0.0, 1.0)),)])
        ws, = made
        assert ws.batch == 1 and not ws.stacked
        # two halves of n^2 and two quarters
        assert ws.scratch.size == 5 * grid.n_alpha ** 2 // 2

    def test_batched_pass_allocates_per_pass(self, monkeypatch):
        # a batched blocking I12 pass makes as many buffers on 16 radial
        # nodes as on 8, stacked ones among them, and gets them all back
        from casimir2d import assembly
        bld, _ = self._workload("blocking")
        scenes = tuple(_lift(bld.scene, 3, h) for h in (-0.4, 0.3, 1.1))
        made = []

        def workspace(*args, **kwargs):
            made.append(_Workspace(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(assembly, "_Workspace", workspace)
        created = []
        for n_p in (8, 16):
            made.clear()
            grid = build_grid(16, n_p, p_scale=bld.p_scale)
            evaluate(scenes, bld.diagrams, grid, [I12])
            ws, = made
            assert ws.batch == 3 and ws.stacked
            assert len(ws.free) + len(ws.stacked) == ws.created - 2
            created.append(ws.created)
        assert created[0] == created[1]

    def test_no_cyclic_garbage(self):
        # every arc is freed by reference counting once no cut reads it,
        # not left for the cyclic collector
        bld, grid = self._workload("blocking")
        gc.collect()
        gc.disable()
        try:
            _per_diagram(bld.scene, grid, bld.diagrams, *I12)
            _per_diagram(bld.scene, grid, bld.diagrams)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _needle_scene():
    """Two half-plates and a needle, whose kernel rows grow like
    e^{|alpha|}."""
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
         SceneObject(HalfPlate(0.2), FramePose((+0.8, 0.1), 0.2)),
         SceneObject(Needle(0.1, 0.05, 0.2, 0.3), FramePose((0.0, 0.6)))),
        BoundaryCondition.NEUMANN, mode="pure2d")


class TestRapidityWindows:
    """The engine at radial nodes where the rapidity windows cut, against
    the full dense product.

    The traces cancel (at p = 20 the 6-block word's trace is 1e-7 of the
    sum of its terms' moduli, and the dense engine is 4e-12 off it in
    relative terms), so errors are measured against that sum.  Higher p
    (p = 200) underflows the longer words into denormals.
    """
    N = 64
    CASES = [(_three_object_scene, w) for w in
             [(1, 2), (1, 2, 3), (1, 3, 2, 3), (1, 2, 1, 2, 3),
              (1, 2, 3, 1, 2, 3)]] + [(_needle_scene, (1, 3, 2, 3))]

    @pytest.fixture(scope="class")
    def grid(self):
        return build_grid(self.N, 8, p_scale=0.5)

    def _check(self, scene, word, grid, p, slot_sets, factors, inserted,
               kernel=None):
        links = _node_links(scene, word, grid, p)
        got = _one_query(word, slot_sets, links, factors, kernel is not None)
        ref = _explicit_trace(scene, word, grid, p, inserted, kernel=kernel)
        scale = _explicit_trace(scene, word, grid, p, inserted, True,
                                kernel).real
        assert abs(got - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_cached_kernels_and_row_bounds(self, bc, grid):
        # object 3 reflects in the RL channel in [132] and in LL in [13];
        # RL = -s LL, so both share one matrix, the RL reflection with
        # the sign -s
        scene = _three_object_scene(bc)
        cache: dict = {}
        for word in ((1, 3, 2), (1, 3), (1, 3, 2, 3)):
            for triple in _triples(word):
                chan = _resolve_channel(scene, triple)
                ref = halfplate_kernel(bc, chan,
                                       scene.object_index(triple[1]).pose.tilt,
                                       grid)
                key = _kernel_key(scene, triple[1])
                image, log_rho, m = _t_hat(key, grid, cache)
                assert m == 0
                assert np.array_equal(
                    _channel_sign(scene, triple) * _expand(image),
                    _pair_blocks(ref))
                # the row bound of a pair is that of its two rapidities
                rho = np.log(np.abs(ref).max(axis=1))
                assert np.array_equal(log_rho, np.maximum(
                    rho[self.N // 2:], rho[self.N // 2 - 1::-1]))
        own = [key for key in cache if key[2:] == (0.5 * math.pi,)]
        assert len(own) == 1

    @pytest.mark.parametrize("p", [20.0, 60.0])
    @pytest.mark.parametrize("make_scene,word", CASES)
    def test_windows_cut(self, make_scene, word, grid, p):
        scene = make_scene()
        links = _node_links(scene, word, grid, p)
        wins = [links[pair][2] for pair in _pairs(word)]
        assert all(0 <= w.start < w.stop <= self.N for w in wins)
        assert any(w.stop - w.start < self.N for w in wins)
        assert max(w.stop - w.start for w in wins) < self.N // 2

    @pytest.mark.parametrize("make_scene", [_three_object_scene,
                                            _needle_scene])
    def test_windows_match_definition(self, make_scene):
        # every link's window at every node of a 64x16 grid: the
        # symmetric range [lo, n - lo) round the rapidities whose row
        # bound |U| max|T| (1 + p cosh)^2, with T built at p, is within
        # WINDOW_EPS of its largest
        scene = make_scene()
        grid = build_grid(64, 16, p_scale=0.5)
        words = [d.word for d in enumerate_diagrams(3, 4)]
        table = _link_table((scene,), words, grid, grid.p_nodes)
        assert len(table) == 6
        cosh_a = np.cosh(grid.alpha_nodes)
        cut = 0
        for i, p in enumerate(grid.p_nodes):
            links = _links(table, i, p, _scratch(grid))
            for (to, at), (_, _, w, _) in links.items():
                dpar = abs(scene.object_index(to).pose.origin[0]
                           - scene.object_index(at).pose.origin[0])
                rho = np.abs(_kernel(scene, (to, at, to), grid, p)).max(1)
                log_r = (np.log(rho) - p * dpar * cosh_a
                         + 2.0 * np.log(1.0 + p * cosh_a))
                keep = np.flatnonzero(
                    log_r >= log_r.max() + math.log(WINDOW_EPS))
                lo = min(keep[0], grid.n_alpha - 1 - keep[-1])
                # the window's pairs, centre-out
                assert w == slice(0, grid.n_alpha // 2 - lo), (i, to, at)
                cut += w.stop < grid.n_alpha // 2
        assert cut > 0

    @pytest.mark.parametrize("p", [20.0, 60.0])
    @pytest.mark.parametrize("make_scene,word", CASES)
    def test_energy_and_insertions(self, make_scene, word, grid, p):
        scene = make_scene()
        n = len(word)
        self._check(scene, word, grid, p, [], [], [])
        rng = np.random.default_rng(7)
        # even real factors, as the decay insertions are, and scalars
        # for the kernel insertions
        f1, f2 = (f + f[:, ::-1] for f in rng.normal(size=(2, n, self.N)))
        f3 = rng.normal(size=n)
        for k in range(n):
            self._check(scene, word, grid, p, [{k}], [{k: f1[k]}],
                        [(k, f1[k])])
            self._check(scene, word, grid, p, [{k}], [{k: f3[k]}], [],
                        (k, f3[k]))
        for k1, k2 in itertools.product(range(n), repeat=2):
            self._check(scene, word, grid, p, [{k1}, {k2}],
                        [{k1: f1[k1]}, {k2: f2[k2]}],
                        [(k1, f1[k1]), (k2, f2[k2])])


class TestEvaluateInput:
    """``evaluate`` checks its input once, at the entry: a query that the
    engine cannot answer raises ValidationError instead of a value."""

    GRID = build_grid(16, 8, p_scale=0.5)
    DIAGRAMS = enumerate_diagrams(3, 3)

    def _refused(self, queries, match, scenes=None):
        scenes = (_three_object_scene(),) if scenes is None else scenes
        with pytest.raises(ValidationError, match=match):
            evaluate(scenes, self.DIAGRAMS, self.GRID, queries)

    def test_empty_batch(self):
        self._refused([()], "non-empty batch", scenes=())

    def test_scene_outside_a_batch(self):
        self._refused([()], "non-empty batch", scenes=_three_object_scene())

    def test_three_moves(self):
        move = (1, (1.0, 0.0))
        self._refused([(move, move, move)], "at most two moves")

    @pytest.mark.parametrize("obj", [0, 4, 5, -1, 1.5, "1"])
    def test_object_outside_the_scene(self, obj):
        self._refused([((obj, (0.0, 1.0)),)], "object")
        self._refused([((1, (1.0, 0.0)), (obj, (1.0, 0.0)))], "object")

    @pytest.mark.parametrize("direction", [
        (math.nan, 1.0), (0.0, math.inf), (1.0, 0.0, 0.0), (1.0,), 1.0,
        None, ("a", "b")])
    def test_direction_not_a_finite_pair(self, direction):
        self._refused([((3, direction),)], "pair of finite numbers")
        self._refused([((1, (1.0, 0.0)), (2, direction))],
                      "pair of finite numbers")

    def test_odd_rapidity_count(self, monkeypatch):
        # a public grid symmetric about 0 on 33 nodes leaves the middle
        # node unpaired: refused at the entry, before any pass
        from casimir2d import assembly
        monkeypatch.setattr(assembly, "_integrate", None)
        a = np.linspace(-4.0, 4.0, 33)
        grid = QuadratureGrid(a, np.full(33, 0.04), self.GRID.p_nodes,
                              self.GRID.p_weights, epsilon=0.1)
        with pytest.raises(ValidationError, match="n_alpha must be even"):
            evaluate((_three_object_scene(),), self.DIAGRAMS, grid, [()])

    def test_every_query_checked(self):
        # a bad query behind good ones is refused before any pass runs
        self._refused([(), ((3, (0.0, 1.0)),), ((5, (0.0, 1.0)),)],
                      "object 5")

    def test_batch_checked_once(self, monkeypatch):
        # an EM batch runs one pass per scalar, each without re-checking
        from casimir2d import assembly
        calls = []
        real = assembly._check_batch

        def spy(scenes):
            calls.append(len(scenes))
            return real(scenes)

        monkeypatch.setattr(assembly, "_check_batch", spy)
        scenes = tuple(_lift(_three_object_scene(BoundaryCondition.EM2D), 3,
                             h) for h in (0.6, 0.9))
        evaluate(scenes, self.DIAGRAMS, self.GRID, [(), I12])
        assert calls == [2]

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_object_on_a_plate_line(self, bc):
        # sigma = 0: a reflection off the plate has no sign per edge,
        # under either scalar
        n = 1.0 / math.sqrt(2.0)
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((0.0, 1.0)),
                         plane_normal=(n, n)),
             SceneObject(HalfPlate(0.0), FramePose((1.0, 0.0)))),
            bc, mode="edge")
        with pytest.raises(ValidationError, match="on the line"):
            evaluate((scene,), [canonicalize((1, 2))], self.GRID, [()])

    @staticmethod
    def _no_pass(monkeypatch):
        """An EM batch of two scenes, with every engine pass disabled."""
        from casimir2d import assembly
        monkeypatch.setattr(assembly, "_integrate", None)
        return tuple(_lift(_three_object_scene(BoundaryCondition.EM2D), 3,
                           h) for h in (0.6, 0.9))

    def test_no_query(self, monkeypatch):
        # the documented empty list per scene, from no pass
        scenes = self._no_pass(monkeypatch)
        assert evaluate(scenes, self.DIAGRAMS, self.GRID, []) == [[], []]
        assert evaluate(scenes, [], self.GRID, []) == [[], []]

    def test_no_diagram(self, monkeypatch):
        # the documented empty list per query and scene, from no pass
        scenes = self._no_pass(monkeypatch)
        assert evaluate(scenes, [], self.GRID, [(), I12]) == [[[], []],
                                                            [[], []]]

    def test_good_edge_cases_pass(self):
        # objects 1 and M, a zero direction and integer components
        vals, = evaluate((_three_object_scene(),), self.DIAGRAMS, self.GRID,
                         [((1, (0, 1)),), ((3, (0.0, 0.0)),),
                          ((np.int64(3), np.array([1.0, 0.0])),)])
        assert any(vals[0]) and not any(vals[1]) and any(vals[2])


class TestOnePass:
    """Several queries in one engine pass against one call per query."""

    def test_energies_and_forces_of_the_needle_scene(self):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig("gap_repulsion", bc="N", n_alpha=48, n_p=16,
                             h=0.4)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        move = (3, (0.0, 1.0))
        (es, fs), = evaluate((bld.scene,), bld.diagrams, grid,
                             [(), (move,)])
        # the forces close exactly as on their own; each energy closes
        # on one of the force's cuts instead of its own
        assert fs == _per_diagram(bld.scene, grid, bld.diagrams, move)
        ref = _per_diagram(bld.scene, grid, bld.diagrams)
        assert len(es) == len(ref) == 4
        for e, r in zip(es, ref):
            assert abs(e - r) <= 1e-13 * abs(r)

    def test_energy_force_and_I12_of_the_plate_scene(self, edge_grid):
        scene = _three_object_scene()
        diagrams = enumerate_diagrams(3, 4)
        move = (3, (0.0, 1.0))
        (e, f, i12), = evaluate((scene,), diagrams, edge_grid, [
            (), (move,), ((1, (-1.0, 0.0)), (2, (1.0, 0.0)))])
        for got, ref in [
                (e, _per_diagram(scene, edge_grid, diagrams)),
                (f, _per_diagram(scene, edge_grid, diagrams, move)),
                (i12, _per_diagram(scene, edge_grid, diagrams, *I12))]:
            assert any(ref)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-12 * abs(r) or g == r == 0.0


class TestPerDiagramLists:
    def test_lists_match_single_diagram_calls(self, edge_grid):
        scene = _three_object_scene()
        diagrams = [canonicalize(w) for w in ((1, 2), (1, 2, 3), (1, 3, 2),
                                              (1, 2, 3, 2))]
        es = _per_diagram(scene, edge_grid, diagrams)
        assert es == [diagram_energy(scene, d, edge_grid) for d in diagrams]


def _staggered_scene(bc=BoundaryCondition.DIRICHLET, mirror=False):
    """Three half-plates at three heights and three tilts, the last
    vertical with a blocking line; ``mirror`` reflects it through y = 0
    (heights and tilts negated)."""
    s = -1.0 if mirror else 1.0
    half_pi = 0.5 * math.pi
    return Scene(
        (SceneObject(HalfPlate(s * 0.3), FramePose((-1.0, s * 0.2), s * 0.3)),
         SceneObject(HalfPlate(-s * 0.5),
                     FramePose((0.9, -s * 0.35), -s * 0.5)),
         SceneObject(HalfPlate(s * half_pi),
                     FramePose((0.1, s * 0.6), s * half_pi),
                     plane_normal=(1.0, 0.0))),
        bc, mode="edge")


def _staggered_needle_scene(bc=BoundaryCondition.NEUMANN, mirror=False):
    """Two half-plates and a tilted needle at three heights."""
    s = -1.0 if mirror else 1.0
    return Scene(
        (SceneObject(HalfPlate(s * 0.2), FramePose((-1.0, -s * 0.3), s * 0.2)),
         SceneObject(HalfPlate(0.0), FramePose((1.0, s * 0.15))),
         SceneObject(Needle(0.1, 0.05, 0.2, s * 0.7),
                     FramePose((0.05, s * 0.5)))),
        bc, mode="pure2d")


class TestRealEngineOracle:
    """The real engine (height phases on the kernels, parity images,
    kernel insertions for moves along y) against the complex chain of
    ``_explicit_trace``, per diagram, on scenes whose objects sit at
    three heights and tilts."""

    SCENES = [(_staggered_scene, BoundaryCondition.DIRICHLET),
              (_staggered_scene, BoundaryCondition.NEUMANN),
              (_staggered_needle_scene, BoundaryCondition.NEUMANN)]
    QUERIES = [(), ((3, (1.0, 0.0)),), ((3, (0.0, 1.0)),),
               ((3, (0.6, 0.8)),), ((1, (0.0, 1.0)),),
               ((1, (-1.0, 0.0)), (2, (1.0, 0.0)))]

    @pytest.fixture(scope="class")
    def grid(self):
        return build_grid(16, 8, p_scale=0.5)

    @staticmethod
    def _check(scene, diagrams, grid, queries):
        accs, = _integrate((scene,), diagrams, grid, queries)
        for query, acc in zip(queries, accs):
            for diag, got in zip(diagrams, acc):
                ref = _explicit_integral(scene, diag.word, grid, query)
                assert abs(got - ref) <= 1e-12 * abs(ref), (query, diag)

    @pytest.mark.parametrize("make_scene,bc", SCENES)
    def test_energies_forces_and_I12(self, grid, make_scene, bc):
        self._check(make_scene(bc), enumerate_diagrams(3, 4), grid,
                    self.QUERIES)

    @pytest.mark.parametrize("needle", ["vertical", "horizontal", "circle"])
    def test_gap_repulsion_needles(self, needle):
        # the bundled needle kinds, whose blocks run in rank space, on
        # their scenario's grid: energies, both forces on the needle (a
        # move along x puts diagonal insertions on its factored arcs) and
        # I12 of the plates.  Mid-gap the x-force of [123] is a symmetry
        # zero, so the needle sits 0.2 off the middle
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig("gap_repulsion", bc="N", n_alpha=32, n_p=16,
                             h=0.4, needle=needle)
        bld = build(cfg)
        scene = self._shift(bld.scene, 3, 0.2)
        self._check(scene, bld.diagrams, _grid_for(cfg, bld),
                    [(), ((3, (0.0, 1.0)),), ((3, (1.0, 0.0)),), I12])

    @staticmethod
    def _shift(scene, i, dx):
        """``scene`` with object i (1-based) moved by dx along x."""
        objs = list(scene.objects)
        x, y = objs[i - 1].pose.origin
        objs[i - 1] = replace(objs[i - 1], pose=replace(
            objs[i - 1].pose, origin=(x + dx, y)))
        return replace(scene, objects=tuple(objs))

    def test_needle_at_the_gauge_height(self, grid):
        # a needle alone at the gauge height takes the static path: its
        # factors are built once per pass, by the arithmetic of a
        # rotation by 0.  The plates sit at one height each, so the
        # gauge is the needle's, 0
        scene = Scene(
            (SceneObject(HalfPlate(0.2), FramePose((-1.0, -0.3), 0.2)),
             SceneObject(HalfPlate(0.0), FramePose((1.0, 0.15))),
             SceneObject(Needle(0.1, 0.05, 0.2, 0.7),
                         FramePose((0.05, 0.0)))),
            BoundaryCondition.NEUMANN, mode="pure2d")
        diagrams = enumerate_diagrams(3, 4)
        table = _link_table((scene,), [d.word for d in diagrams], grid,
                            grid.p_nodes)
        needles = {id(image): image for pair, image, *_ in table
                   if pair[1] == 3}.values()
        assert [(image.static, type(image.out)) for image in needles] == [
            (True, tuple)]
        self._check(scene, diagrams, grid, self.QUERIES)

    @pytest.mark.parametrize("make_scene,bc", SCENES)
    def test_mirrored_scene(self, grid, make_scene, bc):
        # y -> -y keeps every energy and x-force and flips every y-force
        diagrams = enumerate_diagrams(3, 4)
        queries = [(), ((3, (1.0, 0.0)),), ((3, (0.0, 1.0)),)]
        ref, = _integrate((make_scene(bc),), diagrams, grid, queries)
        got, = _integrate((make_scene(bc, mirror=True),), diagrams, grid,
                         queries)
        for sign, r_acc, g_acc in zip((1.0, 1.0, -1.0), ref, got):
            for r, g in zip(r_acc, g_acc):
                assert abs(g - sign * r) <= 1e-13 * abs(r)

    def test_two_move_query_with_a_y_part_refused(self, grid):
        with pytest.raises(ValidationError, match="along x"):
            evaluate((_staggered_scene(),), enumerate_diagrams(3, 3), grid,
                     [((1, (0.0, 1.0)), (2, (1.0, 0.0)))])

    def test_broken_symmetry_refused(self, monkeypatch, grid):
        # a kernel without P T P = conj T has no real image: exit 3
        from casimir2d import assembly
        real = assembly.halfplate_kernel

        def bent(*args):
            t = real(*args)
            t[0, 1] += 1e-9 * np.abs(t).max()
            return t

        monkeypatch.setattr(assembly, "halfplate_kernel", bent)
        with pytest.raises(NumericalDomainError, match="mirror symmetry"):
            _per_diagram(_staggered_scene(), grid, enumerate_diagrams(3, 2))


def _lift(scene, i, h):
    """``scene`` with object i (1-based) at height h."""
    objs = list(scene.objects)
    obj = objs[i - 1]
    objs[i - 1] = replace(obj, pose=replace(obj.pose,
                                            origin=(obj.pose.origin[0], h)))
    return replace(scene, objects=tuple(objs))


class TestBatches:
    """One engine pass on a batch of scenes that differ only in the
    heights of their objects gives each scene the values it gets alone,
    bit for bit."""

    # the bundled h sweeps: scenario, bc, the object whose height they
    # sweep
    SWEEPS = [("three_halfplates", "EM", 1), ("blocking", "EM", 3),
              ("blocking", "D", 3), ("gap_repulsion", "N", 3)]
    QUERIES = {"energy": lambda k: [()],
               "y-force": lambda k: [((k, (0.0, 1.0)),)],
               "I12": lambda k: [I12],
               "energy+force": lambda k: [(), ((k, (0.0, 1.0)),)]}

    @staticmethod
    def _setup(scenario, bc):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=32, n_p=12)
        bld = build(cfg)
        return bld, _grid_for(cfg, bld)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("scenario,bc,moving", SWEEPS)
    def test_batch_of_four_equals_each_scene_alone(self, scenario, bc,
                                                   moving, query):
        # the heights hold a negative one and 0, the gauge height, where
        # the scene alone has a static image and the batch rotates it by 0
        bld, grid = self._setup(scenario, bc)
        queries = self.QUERIES[query](moving)
        scenes = tuple(_lift(bld.scene, moving, h)
                       for h in (0.55, -0.8, 0.0, 1.7))
        got = evaluate(scenes, bld.diagrams, grid, queries)
        alone = [evaluate((scene,), bld.diagrams, grid, queries)[0]
                 for scene in scenes]
        assert got == alone
        assert any(v != 0.0 for per in got for vals in per for v in vals)
        # and the batch's order does not matter
        assert evaluate(scenes[::-1], bld.diagrams, grid,
                        queries) == alone[::-1]

    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_stacked_trace(self, r):
        # a rank-space closing's trace adds its diagonal in order, for a
        # stacked closing slice by slice, so each scene keeps its bits
        w = np.random.default_rng(r).standard_normal((4, r, r))
        got = np.trace(w, axis1=-2, axis2=-1)
        for k, wk in enumerate(w):
            ref = wk[0, 0]
            for j in range(1, r):
                ref = ref + wk[j, j]
            assert got[k] == ref == np.trace(wk, axis1=-2, axis2=-1)

    @pytest.mark.parametrize("moving", [1, 3])
    def test_tilted_needle_scene(self, moving):
        # a batch over a tilted plate's height, whose stacked dense arcs
        # meet the needle's factor pairs, or over the tilted needle's
        # (Im S != 0); the other heights keep the gauge at 0
        scene = Scene(
            (SceneObject(HalfPlate(0.2), FramePose((-1.0, 0.0), 0.2)),
             SceneObject(HalfPlate(0.0), FramePose((1.0, 0.0))),
             SceneObject(Needle(0.1, 0.05, 0.2, 0.7),
                         FramePose((0.05, 0.5)))),
            BoundaryCondition.NEUMANN, mode="pure2d")
        grid = build_grid(16, 8, p_scale=0.5)
        diagrams = enumerate_diagrams(3, 4)
        scenes = tuple(_lift(scene, moving, h) for h in (0.3, -0.2, 0.0, 0.7))
        queries = [(), ((3, (0.6, 0.8)),), ((1, (0.0, 1.0)),), I12]
        assert evaluate(scenes, diagrams, grid, queries) == [
            evaluate((s,), diagrams, grid, queries)[0] for s in scenes]

    @pytest.mark.parametrize("scene", [
        _blocking_scene(), _blocking_scene(BoundaryCondition.NEUMANN),
        Scene((SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
               SceneObject(HalfPlate(0.0), FramePose((1.0, 0.0))),
               SceneObject(Needle(0.1, 0.05, 0.2, 0.7),
                           FramePose((0.2, 0.4)))),
              BoundaryCondition.NEUMANN, mode="pure2d")],
        ids=["plates D", "plates N", "needle"])
    @pytest.mark.parametrize("moving", [1, 2])
    def test_block_diagonal_plate_in_a_batch(self, scene, moving):
        # a tilt-0 plate whose height varies, the gauge at 0 alone and in
        # the batch: alone at height 0 its image is block-diagonal and
        # static (halved products, two-term closings, a static core,
        # plain thin products with the needle), in the batch it is
        # rotated by 0 into four blocks with exact zeros off the
        # diagonal; the bits agree
        grid = build_grid(16, 8, p_scale=0.5)
        diagrams = enumerate_diagrams(3, 4)
        scenes = tuple(_lift(scene, moving, h) for h in (0.3, 0.0, -0.5))
        queries = [(), ((moving, (0.0, 1.0)),), ((3, (0.0, 1.0)),), I12]
        assert evaluate(scenes, diagrams, grid, queries) == [
            evaluate((s,), diagrams, grid, queries)[0] for s in scenes]

    def test_central_differences_of_a_y_move_in_one_batch(self,
                                                          monkeypatch):
        from casimir2d import assembly
        bld, grid = self._setup("three_halfplates", "N")
        ref = [-(a - b) / 2e-3 for a, b in zip(*(
            _per_diagram(_lift(bld.scene, 1, 0.5 + s), grid, bld.diagrams)
            for s in (1e-3, -1e-3)))]
        batches = []
        real = assembly.evaluate

        def spy(scenes, *args):
            batches.append(len(scenes))
            return real(scenes, *args)

        monkeypatch.setattr(assembly, "evaluate", spy)
        got = _central_differences(bld.scene, 1, (0.0, 1.0), grid,
                                   bld.diagrams)
        assert batches == [2]
        assert got == ref

    def _refused(self, scene, other):
        bld, grid = self._setup("three_halfplates", "D")
        with pytest.raises(ValidationError, match="batch"):
            evaluate((scene, other), bld.diagrams, grid, [()])

    @staticmethod
    def _object(scene, i, **changes):
        objs = list(scene.objects)
        objs[i - 1] = replace(objs[i - 1], **changes)
        return replace(scene, objects=tuple(objs))

    @pytest.mark.parametrize("attribute", [
        "bc", "mode", "descriptor", "x", "tilt", "plane_normal"])
    def test_batch_differing_in_more_than_heights_refused(self, attribute):
        scene = self._setup("three_halfplates", "D")[0].scene
        obj = scene.object_index(2)
        x, y = obj.pose.origin
        other = {
            "bc": lambda: replace(scene, bc=BoundaryCondition.NEUMANN),
            "mode": lambda: replace(scene, mode="pure2d"),
            "descriptor": lambda: self._object(
                scene, 2, descriptor=HalfPlate(0.3)),
            "x": lambda: self._object(
                scene, 2, pose=FramePose((x - 0.25, y), obj.pose.tilt)),
            "tilt": lambda: self._object(
                scene, 2, pose=FramePose((x, y), 0.3)),
            "plane_normal": lambda: self._object(
                scene, 1, plane_normal=(0.6, 0.8)),
        }[attribute]()
        # the same scene at another height of object 1 batches
        assert evaluate((scene, _lift(scene, 1, 0.9)),
                        [canonicalize((1, 2))],
                        self._setup("three_halfplates", "D")[1], [()])
        self._refused(_lift(scene, 1, 0.9), other)

    def test_batch_resolving_a_channel_differently_refused(self):
        # object 1's blocking line y = 0 puts object 2 and object 3 on
        # opposite sides (RL) until object 3 moves below it (LL); under
        # Neumann RL = -LL (under Dirichlet the two are equal)
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((0.0, 0.0)),
                         plane_normal=(0.0, 1.0)),
             SceneObject(HalfPlate(0.2), FramePose((1.0, -0.5), 0.2)),
             SceneObject(HalfPlate(0.4), FramePose((-1.0, 0.5), 0.4))),
            BoundaryCondition.NEUMANN, mode="edge")
        self._refused(scene, _lift(scene, 3, -0.7))


class TestObjectOperator:
    """The scene's operator A on object states (``_operator``): -C int dr
    tr(A^k)/k is the engine's sum over the order-k diagrams of the scene,
    each a sum of S tr(chain), so A carries the engine's kernels, images,
    decays, windows and channel signs."""

    @staticmethod
    def _check(scene, grid):
        diagrams = enumerate_diagrams(scene.M, 5)
        energies = _per_diagram(scene, grid, diagrams)
        c, jac = _radial_measure(scene.mode, grid.p_nodes)
        traces, scale = np.zeros(6), np.zeros(6)
        for w, a in zip(c * grid.p_weights * jac, _operator(scene, grid)):
            assert a.shape == (scene.M * grid.n_alpha,) * 2
            assert a.dtype == np.float64
            power, power_abs = a, np.abs(a)
            for k in range(2, 6):
                power = power @ a
                power_abs = power_abs @ np.abs(a)
                traces[k] -= w * np.trace(power) / k
                scale[k] += w * np.trace(power_abs) / k
        for k in range(2, 6):
            engine = sum(e for d, e in zip(diagrams, energies)
                         if d.order == k)
            assert abs(traces[k] - engine) <= 1e-13 * scale[k], k

    @pytest.mark.parametrize("sid, bc", [
        ("blocking", "D"), ("blocking", "N"), ("three_halfplates", "D"),
        ("three_halfplates", "N"), ("gap_repulsion", "N")])
    def test_bundled_scenes(self, sid, bc):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(sid, bc=bc, n_alpha=32, n_p=12)
        bld = build(cfg)
        self._check(bld.scene, _grid_for(cfg, bld))

    @pytest.mark.parametrize("scene", [
        _staggered_scene(), _staggered_scene(BoundaryCondition.NEUMANN),
        _staggered_needle_scene()], ids=["plates D", "plates N", "needle"])
    def test_scenes_off_the_gauge(self, scene):
        # every object at its own height, none at the gauge, and a
        # Neumann blocking line with the objects on both sides
        self._check(scene, build_grid(32, 12, p_scale=0.5, map_scale=6.0))

    @pytest.mark.parametrize("sid, bc", [
        ("blocking", "N"), ("three_halfplates", "D"), ("gap_repulsion", "N")])
    def test_blocks_are_the_links(self, sid, bc):
        # block [x, y] of A is link (x, y) of the engine's table over the
        # bundled diagrams, diag(R) T~', bit for bit on the link's window:
        # its pairs and the pairs of each link (y, z) that reads its
        # columns, in both parities
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig(sid, bc=bc, n_alpha=32, n_p=12)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        n = grid.n_alpha
        table = _link_table((bld.scene,), [d.word for d in bld.diagrams],
                            grid, grid.p_nodes)
        ops = list(_operator(bld.scene, grid))
        for i in (0, 5, grid.n_p - 1):
            links = _links(table, i, grid.p_nodes[i], _scratch(grid))
            assert len(links) == 6
            for (x, y), (u, t, w, _) in links.items():
                block = ops[i][(x - 1) * n:x * n, (y - 1) * n:y * n]
                # back to the four parity blocks
                block = block.reshape(2, n // 2, 2, n // 2).swapaxes(1, 2)
                for (to, _), (_, _, cols, _) in links.items():
                    if to == y:
                        ref = u[:, None] * _expand(t)[..., w, cols]
                        assert np.array_equal(block[..., w, cols], ref), (
                            i, x, y)
            for x in (1, 2, 3):
                assert not ops[i][(x - 1) * n:x * n, (x - 1) * n:x * n].any()

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_object_on_a_plate_line_refused(self, bc, edge_grid):
        # sigma = 0: the channel of a reflection off the plate is no
        # product of the sides of its neighbours
        n = 1.0 / math.sqrt(2.0)
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((0.0, 1.0)),
                         plane_normal=(n, n)),
             SceneObject(HalfPlate(0.0), FramePose((1.0, 0.0)))),
            bc, mode="edge")
        with pytest.raises(ValidationError, match="on the line"):
            _operator(scene, edge_grid)
