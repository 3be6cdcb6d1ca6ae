"""Scene assembly: diagram energies, forces, and reference geometries."""

import collections
import gc
import itertools
import math

import numpy as np
import pytest

from casimir2d.assembly import (
    Scene,
    SceneObject,
    WINDOW_EPS,
    _closed_trace,
    _derivative_values,
    _energies_and_forces,
    _energy_values,
    _integrate,
    _link_table,
    _links,
    _plan,
    _resolve_channel,
    _t_hat,
    _triples,
    diagram_I12,
    diagram_energies,
    diagram_energy,
    diagram_forces,
    force,
    min_gap,
    parallel_plates_energy_quadrature,
    reflection_series,
)
from casimir2d.closedforms import (
    parallel_plate_energy,
    two_halfplates_energy,
)
from casimir2d.diagrams import canonicalize, enumerate_diagrams
from casimir2d.errors import GeometryError, ValidationError
from casimir2d.quadrature import build_grid
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
from casimir2d.translation import FramePose, translation_exponent


def _two_halfplate_scene(phi1, phi2, D, bc):
    return Scene(
        (SceneObject(HalfPlate(phi1), FramePose((0.0, 0.0), phi1)),
         SceneObject(HalfPlate(phi2), FramePose((D, 0.0), phi2))),
        bc, mode="edge")


class TestSceneValidation:
    def test_em_rejected(self):
        with pytest.raises(ValidationError):
            _two_halfplate_scene(0.0, 0.0, 1.0, BoundaryCondition.EM2D)

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

    def test_min_gap_and_p_scale(self):
        s = _two_halfplate_scene(0.0, 0.0, 2.0, BoundaryCondition.DIRICHLET)
        assert min_gap(s) == 2.0


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
        res = force(scene, 2, (1.0, 0.0), grid=edge_grid, N_max=4)
        assert res.cross_check_delta < 1e-5
        # attraction: the force on object 2 points back toward object 1
        assert res.value < 0
        # the [21] diagram alone must reproduce the closed-form gradient
        res2 = force(scene, 2, (1.0, 0.0), grid=edge_grid,
                     diagrams=[canonicalize((1, 2))])
        e = lambda D: (two_halfplates_energy(0.3, 0.4, D, 1.0, "D").value)
        grad = (e(1.001) - e(0.999)) / 0.002
        assert res2.value == pytest.approx(-grad, rel=1e-4)

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


class TestParallelPlates:
    def test_d3_matches_zeta_form(self, edge_grid):
        num = parallel_plates_energy_quadrature(1.0, "D", 3, edge_grid)
        cf = parallel_plate_energy(3, 1.0, 1.0, "D").value
        assert num == pytest.approx(cf, rel=1e-7)

    def test_d2_matches_zeta_form(self, kappa_grid):
        num = parallel_plates_energy_quadrature(1.0, "D", 2, kappa_grid)
        cf = parallel_plate_energy(2, 1.0, 1.0, "D").value
        assert num == pytest.approx(cf, rel=1e-6)

    def test_em_is_d_plus_n(self, edge_grid):
        em = parallel_plates_energy_quadrature(0.8, "EM", 3, edge_grid)
        d = parallel_plates_energy_quadrature(0.8, "D", 3, edge_grid)
        n = parallel_plates_energy_quadrature(0.8, "N", 3, edge_grid)
        assert em == pytest.approx(d + n, rel=1e-14)

    def test_truncated_orders_match_per_order_forms(self, edge_grid):
        from casimir2d.closedforms import parallel_plate_per_order
        full = parallel_plates_energy_quadrature(1.0, "D", 3, edge_grid, 3)
        cf = sum(parallel_plate_per_order(3, 1.0, 1.0, "D", n).value
                 for n in (1, 2, 3))
        assert full == pytest.approx(cf, rel=1e-7)

    def test_validation(self, edge_grid):
        with pytest.raises(ValidationError):
            parallel_plates_energy_quadrature(-1.0, "D", 3, edge_grid)
        with pytest.raises(ValidationError):
            parallel_plates_energy_quadrature(1.0, "D", 4, edge_grid)


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
        val = sum(diagram_I12(s0, grid=edge_grid, diagrams=[
            d for d in enumerate_diagrams(2, 4)
            if 1 in d.word and 2 in d.word]))
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


def _kernel(scene, triple, grid, p):
    """Weighted T of the reflection in ``triple`` at radial frequency p,
    straight from the scattering builders."""
    obj = scene.object_index(triple[1])
    if isinstance(obj.descriptor, Needle):
        return needle_kernel_planar(obj.descriptor, p, grid)
    return halfplate_kernel(scene.bc, _resolve_channel(scene, triple),
                            obj.pose.tilt, grid)


def _explicit_trace(scene, word, grid, p, inserted, magnitude=False):
    """tr prod_k diag(u_k f_k) T_k, multiplied out left to right, with
    u_k the translation from word[k] to word[k-1], T_k built at p and f_k
    the product of the factors ``inserted`` puts at slot k (1 where there
    is none).

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
        block = u[:, None] * _kernel(scene, _triples(word)[k], grid, p)
        prod = prod @ (np.abs(block) if magnitude else block)
    return np.trace(prod)


def _node_links(scene, word, grid, p):
    """Links of ``word`` at radial frequency p, from a one-node table."""
    return _links(_link_table(scene, [word], grid, [p], {}), 0, p)


def _one_query(word, slot_sets, links, factors):
    """The engine's trace of ``word`` for the one query whose insertion
    j takes the slots slot_sets[j] with the factors factors[j]."""
    return _closed_trace(word, _plan(word, [slot_sets]), links,
                         [factors])[0]


class _Counting(np.ndarray):
    """An ndarray that counts the 2-D matrix products it is the left
    factor of, by arithmetic: "real" (both factors real), "mixed" (a real
    T times a complex arc, which enters as its float view) and "complex"
    (a complex factor); the engine's arcs, built from slices of such a
    T, are of this type too."""

    products: collections.Counter = collections.Counter()

    def __matmul__(self, other):
        if self.ndim == 2 and np.ndim(other) == 2:
            if np.iscomplexobj(self) or np.iscomplexobj(other):
                kind = "complex"
            elif other.base is not None and np.iscomplexobj(other.base):
                kind = "mixed"
            else:
                kind = "real"
            _Counting.products[kind] += 1
        return super().__matmul__(other)

    @classmethod
    def count(cls, call) -> collections.Counter:
        """Products of each kind ``call()`` makes."""
        cls.products = collections.Counter()
        call()
        return cls.products


def _counting(links):
    """The link table with every T viewed as a ``_Counting``."""
    return {tr: (u, t.view(_Counting), w) for tr, (u, t, w) in links.items()}


class TestSegmentProductEngine:
    WORDS = [(1, 2), (1, 2, 3), (1, 3, 2, 3), (1, 2, 1, 3), (1, 2, 1, 2),
             (1, 2, 1, 2, 3), (1, 3, 1, 2, 3), (1, 2, 3, 1, 2, 3)]
    P = 0.4

    @pytest.fixture(scope="class")
    def setup(self):
        return _three_object_scene(), build_grid(16, 8, p_scale=0.5)

    @staticmethod
    def _factors(n, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=16) + 1j * rng.normal(size=16)
                for _ in range(n)]

    def _engine(self, setup, word, slot_sets, factors):
        scene, grid = setup
        links = _node_links(scene, word, grid, self.P)
        return _one_query(word, slot_sets, links, factors)

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
        links = _counting(_node_links(scene, word, grid, self.P))
        ones = np.ones(grid.n_alpha)

        def products(slot_sets):
            return sum(_Counting.count(lambda: _one_query(
                word, slot_sets, links,
                [dict.fromkeys(s, ones) for s in slot_sets])).values())
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
        # between the two tilt-0 plates every block is real, so whole
        # arcs are real products and real kernels meet complex arcs
        scene, grid = real_setup
        links = _node_links(scene, word, grid, self.P)
        for (to, at, _), (u, t, _) in links.items():
            assert np.isrealobj(t) == (at != 3)
            assert np.isrealobj(u) == (3 not in (to, at))
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

    def test_force_terms_sum_to_force(self, edge_grid):
        scene = _three_object_scene()
        diagrams = [canonicalize(w) for w in ((1, 3), (1, 2, 3), (1, 3, 2))]
        terms = diagram_forces(scene, 3, (0.0, 1.0), grid=edge_grid,
                               diagrams=diagrams)
        res = force(scene, 3, (0.0, 1.0), grid=edge_grid, diagrams=diagrams)
        assert res.value == sum(terms)
        assert res.cross_check_delta < 1e-5


class TestLinkTable:
    def test_each_triple_built_once_per_engine_call(self, monkeypatch):
        # the 9 three_halfplates diagrams use all M (M-1)^2 = 12 directed
        # triples of 3 objects; one engine call builds each triple's
        # translation exponent once, not once per radial node or per
        # diagram slot
        from casimir2d import assembly
        from casimir2d.scenarios import ScenarioConfig, build
        bld = build(ScenarioConfig("three_halfplates", n_alpha=16, n_p=8))
        assert len(bld.diagrams) == 9
        grid = build_grid(16, 8, p_scale=bld.p_scale)
        calls = []
        real = assembly.translation_exponent

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "translation_exponent", counted)
        diagram_forces(bld.scene, 1, (0.0, 1.0), grid=grid,
                       diagrams=bld.diagrams)
        assert len(calls) == 12


class TestRealKernels:
    """A kernel whose imaginary part is exactly zero is cached as
    float64, in place of the complex matrix the builder returns."""

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_kernel_dtypes(self, bc):
        grid = build_grid(16, 8, p_scale=0.5)
        half_pi = 0.5 * math.pi
        # object 1 is a tilt-0 plate whose blocking line y = 0 puts
        # object 2 and object 3 on opposite sides: RL between them
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((0.0, 0.0)),
                         plane_normal=(0.0, 1.0)),
             SceneObject(HalfPlate(0.2), FramePose((1.0, 0.5), 0.2)),
             SceneObject(HalfPlate(half_pi),
                         FramePose((-1.0, -0.5), half_pi)),
             SceneObject(InfinitePlate(), FramePose((2.0, 1.0))),
             SceneObject(Needle(0.1, 0.05, 0.2, 0.3),
                         FramePose((-2.0, 1.0))),
             SceneObject(Needle(0.0, 0.0, 1e-4, half_pi),
                         FramePose((3.0, 1.0)))),
            bc, mode="edge")
        cases = [((2, 1, 3), Channel.RL, np.float64),  # tilt 0
                 ((2, 1, 4), Channel.LL, np.float64),
                 ((1, 2, 3), None, np.complex128),     # tilted
                 ((1, 3, 2), None, np.complex128),     # vertical
                 ((1, 4, 2), None, np.float64),        # wall
                 ((1, 5, 2), None, np.complex128),     # needles
                 ((1, 6, 2), None, np.complex128)]
        cache: dict = {}
        for triple, chan, dtype in cases:
            if chan is not None:
                assert _resolve_channel(scene, triple) is chan
            t = _t_hat(scene, triple, grid, cache)[0]
            assert t.dtype == dtype, triple
            desc = scene.object_index(triple[1]).descriptor
            ref = (infinite_plate_rl(grid) if isinstance(desc, InfinitePlate)
                   else _kernel(scene, triple, grid, 1.0))
            assert np.array_equal(t, ref), triple


class TestEngineTraffic:
    """The engine calls the four benchmark workloads make, on 16x8 grids."""

    CALLS = {
        "force": lambda scene, moving, grid, diagrams: diagram_forces(
            scene, moving, (0.0, 1.0), grid=grid, diagrams=diagrams),
        "energy": lambda scene, moving, grid, diagrams: diagram_energies(
            scene, grid=grid, diagrams=diagrams),
        "I12": lambda scene, moving, grid, diagrams: diagram_I12(
            scene, grid=grid, diagrams=diagrams),
        "energy+force": lambda scene, moving, grid, diagrams:
            _energies_and_forces(scene, moving, (0.0, 1.0), grid, diagrams),
    }

    @staticmethod
    def _workload(scenario):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        # the needle scenario is pure-2D EM, the Neumann scalar
        bc = "N" if scenario == "gap_repulsion" else "D"
        cfg = ScenarioConfig(scenario, bc=bc, n_alpha=16, n_p=8)
        bld = build(cfg)
        return bld, _grid_for(cfg, bld)

    # products per radial node by arithmetic (real, mixed, complex), see
    # _Counting: the tilt-0 plates and their mutual translations are real
    KINDS = {("three_halfplates", "force"): (6, 4, 4),
             ("three_halfplates", "energy"): (4, 0, 6),
             ("blocking", "I12"): (10, 12, 8),
             ("blocking", "energy"): (3, 4, 2),
             ("gap_repulsion", "force"): (2, 0, 0),
             ("gap_repulsion", "energy"): (0, 1, 1),
             # the energies close on the force's cuts: no product of
             # their own
             ("gap_repulsion", "energy+force"): (2, 0, 0),
             ("two_halfplates", "energy"): (1, 0, 0)}

    @pytest.mark.parametrize("scenario,moving,call,per_node", [
        ("three_halfplates", 1, "force", 14),
        ("three_halfplates", 1, "energy", 10),
        ("blocking", None, "I12", 30),
        ("blocking", None, "energy", 9),
        ("gap_repulsion", 3, "force", 2),
        ("gap_repulsion", 3, "energy", 2),
        ("gap_repulsion", 3, "energy+force", 2),
        ("two_halfplates", None, "energy", 1)])
    def test_matmuls_per_radial_node(self, monkeypatch, scenario, moving,
                                     call, per_node):
        from casimir2d import assembly
        bld, grid = self._workload(scenario)
        real = assembly._links
        monkeypatch.setattr(assembly, "_links",
                            lambda *args: _counting(real(*args)))
        kinds = _Counting.count(lambda: self.CALLS[call](
            bld.scene, moving, grid, bld.diagrams))
        assert sum(kinds.values()) == per_node * grid.n_p
        assert [kinds[k] for k in ("real", "mixed", "complex")] == [
            n * grid.n_p for n in self.KINDS[scenario, call]]

    def test_no_cyclic_garbage(self):
        # every arc is freed by reference counting once no cut reads it,
        # not left for the cyclic collector
        bld, grid = self._workload("blocking")
        gc.collect()
        gc.disable()
        try:
            diagram_I12(bld.scene, grid=grid, diagrams=bld.diagrams)
            diagram_energies(bld.scene, grid=grid, diagrams=bld.diagrams)
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

    def _check(self, scene, word, grid, p, slot_sets, factors, inserted):
        links = _node_links(scene, word, grid, p)
        got = _one_query(word, slot_sets, links, factors)
        ref = _explicit_trace(scene, word, grid, p, inserted)
        scale = _explicit_trace(scene, word, grid, p, inserted, True).real
        assert abs(got - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    def test_cached_kernels_and_row_bounds(self, bc, grid):
        # object 3 reflects in the RL channel in [132] and in LL in [13];
        # RL = -s LL, so Dirichlet shares one matrix between the two
        scene = _three_object_scene(bc)
        cache: dict = {}
        for word in ((1, 3, 2), (1, 3), (1, 3, 2, 3)):
            for triple in _triples(word):
                chan = _resolve_channel(scene, triple)
                ref = halfplate_kernel(bc, chan,
                                       scene.object_index(triple[1]).pose.tilt,
                                       grid)
                t, log_rho, m = _t_hat(scene, triple, grid, cache)
                assert m == 0
                assert np.array_equal(t, ref)
                assert np.array_equal(log_rho,
                                      np.log(np.abs(ref).max(axis=1)))
        own = [key for key in cache if key[:2] == ("hp", 3)]
        assert len(own) == (1 if bc is BoundaryCondition.DIRICHLET else 2)

    @pytest.mark.parametrize("p", [20.0, 60.0])
    @pytest.mark.parametrize("make_scene,word", CASES)
    def test_windows_cut(self, make_scene, word, grid, p):
        scene = make_scene()
        links = _node_links(scene, word, grid, p)
        wins = [links[triple][2] for triple in _triples(word)]
        assert all(0 <= w.start < w.stop <= self.N for w in wins)
        assert any(w.stop - w.start < self.N for w in wins)
        assert max(w.stop - w.start for w in wins) < self.N // 2

    @pytest.mark.parametrize("make_scene", [_three_object_scene,
                                            _needle_scene])
    def test_windows_match_definition(self, make_scene):
        # every triple's window at every node of a 64x16 grid: the first
        # to last rapidity whose row bound |U| max|T| (1 + p cosh)^2, with
        # T built at p, is within WINDOW_EPS of its largest
        scene = make_scene()
        grid = build_grid(64, 16, p_scale=0.5)
        words = [d.word for d in enumerate_diagrams(3, 4)]
        table = _link_table(scene, words, grid, grid.p_nodes, {})
        assert len(table) == 12
        cosh_a = np.cosh(grid.alpha_nodes)
        cut = 0
        for i, p in enumerate(grid.p_nodes):
            links = _links(table, i, p)
            for (to, at, frm), (_, _, w) in links.items():
                dpar = abs(scene.object_index(to).pose.origin[0]
                           - scene.object_index(at).pose.origin[0])
                rho = np.abs(_kernel(scene, (to, at, frm), grid, p)).max(1)
                log_r = (np.log(rho) - p * dpar * cosh_a
                         + 2.0 * np.log(1.0 + p * cosh_a))
                keep = np.flatnonzero(
                    log_r >= log_r.max() + math.log(WINDOW_EPS))
                assert w == slice(keep[0], keep[-1] + 1), (i, to, at, frm)
                cut += w.stop - w.start < grid.n_alpha
        assert cut > 0

    @pytest.mark.parametrize("p", [20.0, 60.0])
    @pytest.mark.parametrize("make_scene,word", CASES)
    def test_energy_and_insertions(self, make_scene, word, grid, p):
        scene = make_scene()
        n = len(word)
        self._check(scene, word, grid, p, [], [], [])
        rng = np.random.default_rng(7)
        f1, f2 = (rng.normal(size=(n, self.N))
                  + 1j * rng.normal(size=(n, self.N)) for _ in range(2))
        for k in range(n):
            self._check(scene, word, grid, p, [{k}], [{k: f1[k]}],
                        [(k, f1[k])])
        for k1, k2 in itertools.product(range(n), repeat=2):
            self._check(scene, word, grid, p, [{k1}, {k2}],
                        [{k1: f1[k1]}, {k2: f2[k2]}],
                        [(k1, f1[k1]), (k2, f2[k2])])


class TestOnePass:
    """Several queries in one engine pass against one call per query."""

    def test_energies_and_forces_of_the_needle_scene(self):
        from casimir2d.scenarios import ScenarioConfig, _grid_for, build
        cfg = ScenarioConfig("gap_repulsion", bc="N", n_alpha=48, n_p=16,
                             h=0.4)
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        es, fs = _energies_and_forces(bld.scene, 3, (0.0, 1.0), grid,
                                      bld.diagrams)
        # the forces close exactly as on their own; each energy closes
        # on one of the force's cuts instead of its own
        assert fs == diagram_forces(bld.scene, 3, (0.0, 1.0), grid=grid,
                                    diagrams=bld.diagrams)
        ref = diagram_energies(bld.scene, grid=grid, diagrams=bld.diagrams)
        assert len(es) == len(ref) == 4
        for e, r in zip(es, ref):
            assert abs(e - r) <= 1e-13 * abs(r)

    def test_energy_force_and_I12_of_the_plate_scene(self, edge_grid):
        scene = _three_object_scene()
        diagrams = enumerate_diagrams(3, 4)
        move = (3, (0.0, 1.0))
        e, f, i12 = _integrate(scene, diagrams, edge_grid, [
            (), (move,), ((1, (-1.0, 0.0)), (2, (1.0, 0.0)))])
        for got, ref in [
                (_energy_values(scene, diagrams, e),
                 diagram_energies(scene, grid=edge_grid, diagrams=diagrams)),
                (_derivative_values(scene, diagrams, f),
                 diagram_forces(scene, *move, grid=edge_grid,
                                diagrams=diagrams)),
                (_derivative_values(scene, diagrams, i12),
                 diagram_I12(scene, grid=edge_grid, diagrams=diagrams))]:
            assert any(ref)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-12 * abs(r) or g == r == 0.0


class TestPerDiagramLists:
    def test_lists_match_single_diagram_calls(self, edge_grid):
        scene = _three_object_scene()
        diagrams = [canonicalize(w) for w in ((1, 2), (1, 2, 3), (1, 3, 2),
                                              (1, 2, 3, 2))]
        es = diagram_energies(scene, grid=edge_grid, diagrams=diagrams)
        assert es == [diagram_energy(scene, d, edge_grid) for d in diagrams]
